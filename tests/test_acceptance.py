"""Acceptance suite: end-to-end checks with hard tolerances and budgets.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s`` or in the
captured output) and asserts the same condition, so the suite doubles as a
human-readable scorecard.
"""

import time

import numpy as np
import pytest
from signal_oracle import with_monitor_kernel

from npdshare import (
    AlwaysConceal,
    AlwaysDisclose,
    GameSpec,
    LinearGain,
    PromiseAutomaton,
    check_c1,
    check_c2,
    check_c3,
    extreme_profiles,
    feasible_hull,
    individual_full_rank,
    k_star,
    k_star_formula_linear_n2,
    kappa,
    minmax,
    monte_carlo_promise,
    pairwise_full_rank,
    ppe_payoff_set,
    public_signal_distribution,
    run_episode,
    solve_enforceability,
    table2_gamma_bar,
    theorem_preconditions,
)
from npdshare.geometry import (
    hausdorff_distance_polygons,
    point_in_hull,
    point_polygon_distance,
)

ALPHAS = (0.6, 0.7, 0.8, 0.9, 0.95)
EPSILONS = (0.05, 0.1, 0.2, 0.3, 0.4)
LOSSES = (0.5, 1.0, 2.0)
DIRECTIONS = (
    (1.0, 1.0),
    (1.0, 2.0),
    (2.0, 1.0),
    (1.0, 3.5),
    (3.5, 1.0),
    (0.5, 0.7),
    (-1.0, -1.0),
    (-1.0, -2.0),
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _spec(alpha=0.9, epsilon=0.1, G=3.0, L=1.0, delta=0.9, n=2):
    return GameSpec(n, LinearGain(G), L, alpha, epsilon, delta)


def test_accept_solver_matches_closed_form_grid():
    """Equality solver reproduces the two-firm closed form on a dense grid."""
    t0 = time.monotonic()
    worst = 0.0
    for a in ALPHAS:
        for e in EPSILONS:
            for L in LOSSES:
                spec = _spec(alpha=a, epsilon=e, L=L)
                for lam in DIRECTIONS:
                    expected = table2_gamma_bar(L, a, e, lam)
                    res = solve_enforceability(spec, (1, 1), lam)
                    assert res.feasible, (a, e, L, lam)
                    worst = max(
                        worst, float(np.max(np.abs(res.gamma_bar - expected)))
                    )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        "solver-vs-closed-form", ok,
        f"worst |diff| {worst:.3g} over {len(ALPHAS)*len(EPSILONS)*len(LOSSES)*len(DIRECTIONS)} "
        f"solves, {elapsed:.2f}s (budget 5s)",
    )
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_accept_closed_form_satisfies_reduced_equations():
    """The closed form solves its defining reduced equations; spot value 1.25."""
    worst = 0.0
    for a in ALPHAS:
        for e in EPSILONS:
            for L in LOSSES:
                rho = (1 - e) / e
                kap = kappa(a, e)
                for lam in DIRECTIONS:
                    g = table2_gamma_bar(L, a, e, lam)
                    r1 = e * g[0, 0] + (1 - e) * g[2, 0] + (L / (a * kap)) * rho
                    r2 = e * g[1, 0] + (1 - e) * g[3, 0] - L / (a * kap)
                    r3 = (
                        -g[2, 0] + g[1, 0]
                        - (L / (e * a * kap)) * (lam[1] / lam[0] + 1)
                    )
                    worst = max(worst, abs(r1), abs(r2), abs(r3))
    spot = table2_gamma_bar(1.0, 0.9, 0.1, (1.0, 1.0))[1, 0]
    spot_err = abs(spot - 1.25)
    ok = worst <= 1e-9 and spot_err <= 1e-9
    _report(
        "reduced-equations", ok,
        f"worst residual {worst:.3g}, spot gamma_bar_1(1,0) = {spot!r}",
    )
    assert worst <= 1e-9
    assert spot_err <= 1e-9


def test_accept_rank_conditions_across_sizes():
    """Individual rank 2 for N up to 8 at random informative kernels,
    pairwise rank 3 for N up to 8 at every extreme profile, deficiency when
    the kernel is uninformative."""
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    kernels = []
    while len(kernels) < 10:
        a = float(rng.uniform(0.505, 0.995))
        e = float(rng.uniform(0.005, 0.495))
        if a - e >= 0.05:
            kernels.append((a, e))
    n_individual = 0
    for n in range(2, 9):
        for a, e in kernels:
            spec = _spec(alpha=a, epsilon=e, n=n)
            for i in range(n):
                rep = individual_full_rank(spec, minmax(spec, i).profile, i)
                assert rep.holds and rep.evidence["rank"] == 2, (n, a, e, i)
                n_individual += 1
    uninformative = with_monitor_kernel(_spec(), 0.3, 0.3)
    deficient = individual_full_rank(uninformative, (0, 0), 0).evidence["rank"]
    assert deficient == 1
    assert pairwise_full_rank(uninformative, (0, 0), 0, 1).evidence["rank"] == 1
    n_pairwise = 0
    for n in range(2, 9):
        spec = _spec(n=n)
        for profile in extreme_profiles(spec):
            for i in range(n):
                for j in range(i + 1, n):
                    rep = pairwise_full_rank(spec, profile, i, j)
                    assert rep.holds and rep.evidence["rank"] == 3, (n, profile, i, j)
                    n_pairwise += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    _report(
        "rank-conditions", ok,
        f"{n_individual} individual checks N=2..8, {n_pairwise} pairwise "
        f"checks N=2..8, alpha=epsilon rank {deficient}, "
        f"{elapsed:.2f}s (budget 10s)",
    )
    assert elapsed < 10.0


def test_accept_best_score_matches_piecewise_formula():
    """k* equals the piecewise closed form on 360 positive-quadrant unit
    directions and vanishes toward the negative coordinate axes."""
    spec = _spec()
    t0 = time.monotonic()
    worst = 0.0
    for t in np.linspace(0.0, np.pi / 2, 360):
        lam = (float(np.cos(t)), float(np.sin(t)))
        worst = max(
            worst,
            abs(k_star(spec, lam).value - k_star_formula_linear_n2(3.0, 1.0, lam)),
        )
    neg = max(
        abs(k_star(spec, (-1.0, 0.0)).value), abs(k_star(spec, (0.0, -1.0)).value)
    )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and neg <= 1e-9
    _report(
        "best-score-closed-form", ok,
        f"worst |diff| {worst:.3g} over 360 directions, negative-axis value "
        f"{neg:.3g}, {elapsed:.2f}s",
    )
    assert worst <= 1e-9
    assert neg <= 1e-9


def test_accept_payoff_set_close_to_limit_square():
    """360-direction approximation within Hausdorff 0.02 of the limit set
    and within the same tolerance of the clipped feasible hull."""
    spec = _spec()
    approx = ppe_payoff_set(spec, n_directions=360)
    target = np.array([[0.0, 0.0], [8.0 / 3.0, 0.0], [2.0, 2.0], [0.0, 8.0 / 3.0]])
    dist = hausdorff_distance_polygons(approx.vertices, target)
    hull = np.asarray(feasible_hull(spec, clip_to_ir=True).vertices, dtype=float)
    excess = max(
        0.0 if point_in_hull(v, hull) else point_polygon_distance(v, hull)
        for v in approx.vertices
    )
    ok = dist <= 0.02 and excess <= 0.02 and not approx.degenerate
    _report(
        "payoff-set", ok,
        f"Hausdorff {dist:.4f} (tol 0.02), hull excess {excess:.4f}, "
        f"{len(approx.vertices)} vertices",
    )
    assert dist <= 0.02
    assert excess <= 0.02
    assert not approx.degenerate


def test_accept_communication_conditions():
    """Identifiability holds for three to six firms; the private-monitoring
    route correctly reports itself inapplicable for two."""
    for n in (3, 4, 5, 6):
        spec = _spec(n=n)
        for firm in range(n):
            assert check_c1(spec, firm).holds, (n, firm)
        for profile in extreme_profiles(spec):
            for i in range(n):
                for j in range(i + 1, n):
                    assert check_c2(spec, profile, i, j).holds, (n, profile)
                    assert check_c3(spec, profile, i, j).holds, (n, profile)
        assert theorem_preconditions(spec, "km").holds
    two = theorem_preconditions(_spec(n=2), "km")
    ok = not two.holds and "more than two firms" in two.evidence["reason"]
    _report(
        "communication-conditions", ok,
        "C1-C3 hold for N=3..6; N=2 reported inapplicable",
    )
    assert not two.holds
    assert "more than two firms" in two.evidence["reason"]


def test_accept_promise_automaton_end_to_end():
    """Promise walk: exact per-period decomposition on a surviving replica,
    Monte Carlo mean within 2% of the promised payoff at delta = 0.99 with
    README's halt count and median halt period, and prompt exit at
    delta = 0.5."""
    t0 = time.monotonic()
    spec = _spec(delta=0.99)
    auto = PromiseAutomaton(spec, (2.0, 2.0), (1.0, 1.0))
    trace = run_episode(spec, [auto, auto.clone()], 2000, seed=11)
    pd = auto.decomp
    pi = public_signal_distribution(spec, (1, 1)).probs
    c = 0.01 / 0.99
    v = np.array([2.0, 2.0])
    worst = 0.0
    for t in range(2000):
        assert np.max(np.abs(trace.promises[t] - v)) <= 1e-9
        gam = pd.gamma_bar_for(v)
        recon = 0.01 * pd.u_r + 0.99 * (pi @ (v[None, :] + c * gam))
        worst = max(worst, float(np.max(np.abs(recon - v))))
        v = v + c * gam[int(trace.public_signals[t])]
    assert worst <= 1e-9

    mc = monte_carlo_promise(
        spec, (2.0, 2.0), (1.0, 1.0), replicas=10_000, horizon=2000, base_seed=123
    )
    mean_err = float(np.max(np.abs(mc.mean - 2.0)))
    assert mean_err <= 0.04  # 2% of the promised 2.0
    # README's quick start prints this run's halt count and median halt period.
    assert mc.n_halted == 9520
    assert np.median(mc.halt_periods[mc.halt_periods >= 0]) == 618

    from npdshare.errors import DiscountTooSmallError

    impatient = PromiseAutomaton(_spec(delta=0.5), (2.0, 2.0), (1.0, 1.0))
    with pytest.raises(DiscountTooSmallError) as exc_info:
        run_episode(_spec(delta=0.5), [impatient, impatient.clone()], 100, seed=5)
    halt_period = exc_info.value.period
    assert halt_period == 21

    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    _report(
        "promise-automaton", ok,
        f"identity residual {worst:.3g}, MC mean {mc.mean[0]:.6f} "
        f"({mc.n_halted}/10000 halted), delta=0.5 exit at period {halt_period}, "
        f"{elapsed:.1f}s (budget 60s)",
    )
    assert elapsed < 60.0


def test_accept_sampling_statistics():
    """Empirical frequencies of the signals run_episode draws, within 3 sigma
    over 1e5 periods for three fixed profiles; every model distribution
    normalized to 1e-12."""
    spec = _spec()
    n_draws = 100_000
    worst_sigma = 0.0
    for k, profile in enumerate([(1, 1), (0, 0), (1, 0)]):
        probs = public_signal_distribution(spec, profile).probs
        strategies = [AlwaysDisclose() if a else AlwaysConceal() for a in profile]
        idx = run_episode(spec, strategies, n_draws, seed=2024 + k).public_signals
        counts = np.bincount(idx, minlength=4)
        for b in range(4):
            sigma = np.sqrt(n_draws * probs[b] * (1 - probs[b]))
            worst_sigma = max(
                worst_sigma, abs(counts[b] - n_draws * probs[b]) / sigma
            )
    assert worst_sigma < 3.0

    worst_norm = 0.0
    for n in (2, 3, 4, 5):
        sp = _spec(n=n)
        for bits in range(2**n):
            r = tuple((bits >> j) & 1 for j in range(n))
            worst_norm = max(
                worst_norm,
                abs(float(public_signal_distribution(sp, r).probs.sum()) - 1.0),
            )
    ok = worst_sigma < 3.0 and worst_norm <= 1e-12
    _report(
        "sampling", ok,
        f"worst frequency deviation {worst_sigma:.2f} sigma, worst "
        f"normalization error {worst_norm:.2e}",
    )
    assert worst_norm <= 1e-12


def test_accept_sweep_surface_monotone(tmp_path, capsys):
    """10x10 sweep CSV is monotone: decreasing in alpha, increasing in
    epsilon."""
    import csv

    from npdshare.cli import main

    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--alpha-grid", "0.55:0.95:10", "--epsilon-grid",
         "0.05:0.45:10", "--L", "1.0", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows[0] == ["alpha", "epsilon", "gamma_bar_1_10"]
    grid = {(float(a), float(e)): float(v) for a, e, v in rows[1:]}
    alphas = sorted({k[0] for k in grid})
    epsilons = sorted({k[1] for k in grid})
    assert len(alphas) == 10 and len(epsilons) == 10
    mono_a = all(
        grid[(a1, e)] > grid[(a2, e)]
        for e in epsilons
        for a1, a2 in zip(alphas, alphas[1:])
    )
    mono_e = all(
        grid[(a, e1)] < grid[(a, e2)]
        for a in alphas
        for e1, e2 in zip(epsilons, epsilons[1:])
    )
    ok = mono_a and mono_e
    _report(
        "sweep-monotonicity", ok,
        f"10x10 grid, decreasing in alpha: {mono_a}, increasing in epsilon: {mono_e}",
    )
    assert mono_a and mono_e
