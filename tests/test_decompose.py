"""Continuation-reward solver, scores, and the payoff-set approximation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npdshare import (
    ConcaveGain,
    GameSpec,
    LinearGain,
    PromiseDecomposition,
    check_assumptions,
    feasible_hull,
    k_star,
    k_star_formula_linear_n2,
    kappa,
    ppe_payoff_set,
    profile_payoff,
    public_signal_distribution,
    solve_enforceability,
    table2_gamma_bar,
    verify_decomposition,
)
from npdshare.decompose import (
    REGION_TOL,
    SOLVE_TOL,
    _circle_directions,
    _direction,
    _profile_levels,
    _solve,
)
from npdshare.errors import CapacityError, DomainError
from npdshare.game import all_profiles, profile_array
from npdshare.geometry import hausdorff_distance_polygons

from k_star_oracle import _profile_tables, exhaustive_k_star, general_lp

TOL = 1e-9

ALPHAS = (0.6, 0.7, 0.8, 0.9, 0.95)
EPSILONS = (0.05, 0.1, 0.2, 0.3, 0.4)


def _spec(alpha=0.9, epsilon=0.1, G=3.0, L=1.0, delta=0.9, n=2):
    return GameSpec(n, LinearGain(G), L, alpha, epsilon, delta)


# ---------------------------------------------------------------------------
# closed form


def test_kappa_value():
    # (1-e)/e - (1-a)/a at the standard kernel: 9 - 1/9 = 80/9
    assert abs(kappa(0.9, 0.1) - 80.0 / 9.0) < 1e-14


@given(
    alpha=st.floats(min_value=0.55, max_value=0.99),
    epsilon=st.floats(min_value=0.01, max_value=0.45),
)
def test_kappa_identity(alpha, epsilon):
    # epsilon * alpha * kappa == alpha - epsilon, algebraically
    assert epsilon * alpha * kappa(alpha, epsilon) == pytest.approx(
        alpha - epsilon, abs=1e-12
    )


def test_closed_form_symmetric_direction():
    g = table2_gamma_bar(1.0, 0.9, 0.1, (1.0, 1.0))
    scale = 1.0 / (0.1 * 0.9 * kappa(0.9, 0.1))  # 1.25
    assert abs(g[1, 0] - scale) < 1e-12
    assert abs(g[1, 0] - 1.25) < 1e-12
    assert abs(g[2, 0] + scale) < 1e-12  # firm 1 looks deviant: -1.25
    assert abs(g[0, 0]) < 1e-12  # symmetric direction: ratio term vanishes
    assert np.all(np.abs(g[3]) < 1e-12)  # both-good signal pinned at zero


def test_closed_form_asymmetric_direction():
    g = table2_gamma_bar(1.0, 0.9, 0.1, (1.0, 2.0))
    assert abs(g[0, 0] - 11.25) < 1e-12
    assert abs(g[0, 1] + 5.625) < 1e-12


def test_closed_form_rejects_coordinate_directions():
    with pytest.raises(DomainError, match="k_star"):
        table2_gamma_bar(1.0, 0.9, 0.1, (1.0, 0.0))


def test_closed_form_is_orthogonal_and_consistent():
    # every table entry satisfies lambda . gamma_bar(b) = 0 and the three
    # reduced equations that characterize it
    for a in ALPHAS:
        for e in EPSILONS:
            for L in (0.5, 1.0, 2.0):
                for lam in [(1.0, 1.0), (1.0, 2.0), (3.0, 1.0), (0.5, 4.0)]:
                    g = table2_gamma_bar(L, a, e, lam)
                    assert np.max(np.abs(g @ np.asarray(lam))) < 1e-9
                    rho = (1 - e) / e
                    k = kappa(a, e)
                    lhs1 = e * g[0, 0] + (1 - e) * g[2, 0]
                    assert abs(lhs1 + (L / (a * k)) * rho) < 1e-9
                    lhs2 = e * g[1, 0] + (1 - e) * g[3, 0]
                    assert abs(lhs2 - L / (a * k)) < 1e-9
                    lhs3 = -g[2, 0] + g[1, 0]
                    scale = L / (e * a * k)
                    assert abs(lhs3 - scale * (lam[1] / lam[0] + 1)) < 1e-9


# ---------------------------------------------------------------------------
# equality solver versus closed form


def test_solver_recovers_closed_form_symmetric():
    spec = _spec()
    res = solve_enforceability(spec, (1, 1), (1.0, 1.0))
    assert res.feasible and res.mode == "equality"
    expected = table2_gamma_bar(1.0, 0.9, 0.1, (1.0, 1.0))
    assert np.max(np.abs(res.gamma_bar - expected)) < TOL


def test_solver_recovers_closed_form_asymmetric():
    spec = _spec()
    res = solve_enforceability(spec, (1, 1), (1.0, 2.0))
    expected = table2_gamma_bar(1.0, 0.9, 0.1, (1.0, 2.0))
    assert np.max(np.abs(res.gamma_bar - expected)) < TOL


def test_solver_neutralization_rows():
    # the row where only the deviator's own bit is bad carries the full
    # punishment scale; the solver and the closed form agree on its sign
    spec = _spec(L=2.0)
    res = solve_enforceability(spec, (1, 1), (1.0, 1.0))
    assert res.gamma_bar[2, 0] < 0 < res.gamma_bar[1, 0]
    assert abs(res.gamma_bar[1, 0] - 2.0 / (0.1 * 0.9 * kappa(0.9, 0.1))) < TOL


def test_solver_infeasible_off_hyperplane_target():
    spec = _spec()
    res = solve_enforceability(spec, (1, 1), (1.0, 1.0), target=(5.0, 5.0))
    assert not res.feasible
    assert res.failure_reason


def test_solver_reports_binding_constraints():
    res = solve_enforceability(_spec(), (1, 1), (1.0, 1.0))
    assert res.binding == (True, True)


def test_solver_per_bit_map_when_minimum_norm_breaks_a_slack_incentive(monkeypatch, spec2):
    # At (0, 0) neither deviation pays, so the equality solve binds no
    # incentive; pushing firm 2's promise to -3 makes its minimum-norm map
    # break firm 2's slack constraint and the per-bit map takes over, with
    # no LP.  No firm gains, so the map is the constant v - u(r) and each
    # slack is its unprofitable gain: nothing binds.
    from npdshare import decompose

    def refuse(*args, **kwargs):
        raise AssertionError("the orthogonal solve called linprog")

    monkeypatch.setattr(decompose, "linprog", refuse)
    lam = np.array([1.0, 0.0])
    target = (0.0, -3.0)
    res = solve_enforceability(spec2, (0, 0), lam, target=target)
    assert res.feasible and res.mode == "per_bit" and res.orthogonal
    assert verify_decomposition(spec2, target, (0, 0), res.gamma_bar).holds
    assert np.max(np.abs(res.gamma_bar @ lam)) <= SOLVE_TOL
    assert res.gamma_bar.tobytes() == np.tile([0.0, -3.0], (4, 1)).tobytes()
    assert res.binding == (False, False)


def test_solver_orthogonal_infeasible_falls_back_to_general_lp(spec2):
    # lambda = e_2 punishes firm 2, who discloses at (0, 1): general mode
    # pays it on its own bit.
    lam = (0.0, 1.0)
    res = solve_enforceability(spec2, (0, 1), lam)
    assert not res.feasible
    assert res.failure_reason == "orthogonal enforcement infeasible"
    gen = solve_enforceability(spec2, (0, 1), lam, orthogonal=False)
    assert gen.feasible and gen.mode == "own_bit" and not gen.orthogonal
    assert gen.k_star == pytest.approx(-1.125, abs=TOL)


def test_verify_decomposition_accepts_solver_output():
    spec = _spec()
    res = solve_enforceability(spec, (1, 1), (1.0, 1.0))
    chk = verify_decomposition(spec, np.array([2.0, 2.0]), (1, 1), res.gamma_bar)
    assert chk.holds
    assert chk.equality_residual < TOL
    assert min(chk.ic_slacks) > -TOL


def test_verify_decomposition_flags_perturbation():
    # shaving 0.1 off the reward on firm 1's good signal breaks firm 1's
    # incentive constraint by (1 - delta) * 0.1 * (0.9 * 0.9 - 0.9 * 0.1)...
    # measured directly: slack = -0.0008 at delta = 0.9
    spec = _spec()
    g = solve_enforceability(spec, (1, 1), (1.0, 1.0)).gamma_bar.copy()
    g[1, 0] -= 0.1
    chk = verify_decomposition(spec, np.array([2.0, 2.0]), (1, 1), g)
    assert not chk.holds
    assert chk.ic_slacks[0] == pytest.approx(-0.0008, abs=1e-12)


# ---------------------------------------------------------------------------
# scores


def test_k_star_frozen_values():
    spec = _spec()
    assert abs(k_star(spec, (1.0, 1.0)).value - 4.0) < TOL
    assert abs(k_star(spec, (1.0, 3.5)).value - 9.5) < TOL
    assert abs(k_star(spec, (-1.0, 0.0)).value - 0.0) < TOL


def test_k_star_best_profiles():
    spec = _spec()
    assert k_star(spec, (1.0, 1.0)).best_profile == (1, 1)
    assert k_star(spec, (1.0, 3.5)).best_profile == (1, 0)
    assert k_star(spec, (-1.0, 0.0)).best_profile == (0, 0)


def test_k_star_matches_formula_on_quadrant_arc():
    # the closed form covers the positive quadrant; 3600 unit directions
    # from (1, 0) to (0, 1), endpoints included.  The formula factors
    # (G - L)(l1 + l2) where k* sums l1 (G - L) + l2 (G - L), so the two
    # agree to rounding, not bit for bit.
    spec = _spec()
    angles = np.linspace(0.0, np.pi / 2, 3600)
    worst = 0.0
    for t in angles:
        lam = (float(np.cos(t)), float(np.sin(t)))
        got = k_star(spec, lam).value
        want = k_star_formula_linear_n2(3.0, 1.0, lam)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_k_star_zero_toward_negative_coordinates():
    spec = _spec()
    for lam in [(-1.0, 0.0), (0.0, -1.0)]:
        assert abs(k_star(spec, lam).value) < TOL


def test_k_star_positively_homogeneous():
    # The zero rule is relative to max|lambda|: (-1, 1e-10) counts as a
    # coordinate direction at every scale, so all-conceal stays best.  Were
    # 1e-7 a nonzero component at scale 1e3, (1, 0) would reach about 1e3.
    spec = _spec()
    for lam in [(1.0, 1.0), (1.0, 3.5), (-0.3, 0.8), (-1.0, 1e-10)]:
        base = k_star(spec, lam)
        for c in (5.0, 1e3):
            scaled = k_star(spec, tuple(c * x for x in lam))
            assert scaled.best_profile == base.best_profile
            assert scaled.value == pytest.approx(c * base.value, abs=1e-8)


def test_k_star_never_exceeds_stage_payoff():
    spec = _spec()
    rng_ = np.random.default_rng(42)
    for _ in range(25):
        lam = rng_.normal(size=2)
        res = k_star(spec, tuple(lam))
        best = max(float(lam @ profile_payoff(spec, r)) for r in
                   [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert res.value <= best + TOL


def test_k_star_best_map_is_a_valid_decomposition():
    # k* builds no map; the promise family's base map enforces its best
    # profile at u(r*).
    spec = _spec()
    walk = PromiseDecomposition(spec, (1.0, 1.0))
    assert walk.action == k_star(spec, (1.0, 1.0)).best_profile
    chk = verify_decomposition(
        spec, profile_payoff(spec, walk.action), walk.action, walk.gamma_base
    )
    assert chk.holds


# ---------------------------------------------------------------------------
# payoff set


def test_payoff_set_close_to_square():
    spec = _spec()
    approx = ppe_payoff_set(spec, n_directions=360)
    target = np.array([[0.0, 0.0], [8.0 / 3.0, 0.0], [2.0, 2.0], [0.0, 8.0 / 3.0]])
    assert hausdorff_distance_polygons(approx.vertices, target) <= 0.02
    assert not approx.degenerate


def test_payoff_set_shrinks_with_more_directions():
    from npdshare.geometry import polygon_area

    spec = _spec()
    a90 = polygon_area(ppe_payoff_set(spec, n_directions=90).vertices)
    a360 = polygon_area(ppe_payoff_set(spec, n_directions=360).vertices)
    # outer approximations only tighten as directions are added
    assert a360 <= a90 + 1e-12


def test_payoff_set_inside_ir_feasible_hull():
    # outer half-space approximation: vertices may poke out between sampled
    # directions, but never by more than the advertised Hausdorff budget
    from npdshare.geometry import point_in_hull, point_polygon_distance

    spec = _spec()
    hull_poly = feasible_hull(spec, clip_to_ir=True).as_array()
    approx = ppe_payoff_set(spec, n_directions=360)
    for v in approx.vertices:
        inside = point_in_hull(v, hull_poly)
        assert inside or point_polygon_distance(np.asarray(v), hull_poly) <= 0.02, v


def test_payoff_set_contains_full_disclosure_payoff():
    spec = _spec()
    approx = ppe_payoff_set(spec, n_directions=120)
    assert approx.contains((2.0, 2.0))
    assert approx.contains((0.0, 0.0))
    assert not approx.contains((2.9, 2.9))


def test_payoff_set_three_firms_halfspaces_only():
    spec = _spec(n=3)
    approx = ppe_payoff_set(spec, n_directions=64)
    assert approx.vertices is None
    assert approx.directions.shape == (64, 3)
    assert len(approx.best_profiles) == 64


def _folk_specs():
    for n in range(3, 9):
        yield _spec(n=n)
        f = tuple(2.0 * (1.0 - 2.0**-z) for z in range(n))
        yield GameSpec(n, ConcaveGain(3.0, f), 1.0, 0.9, 0.1, 0.9)


@pytest.mark.parametrize("spec", list(_folk_specs()), ids=lambda s: f"{s.gain.kind}{s.n_firms}")
def test_folk_theorem_halfspaces_at_three_to_eight_firms(spec):
    # Fudenberg-Levine-Maskin (1994): every pure profile is orthogonally
    # enforceable on a direction with two or more nonzero components, so
    # each level k*(lambda) is the best lambda . u(r), the support function
    # of the feasible hull.  The individually rational part of the hull then
    # lies in every half-space, and it has interior because the hull does
    # and u(D) > 0 (A2): mixing an interior point with u(D) gives interior
    # points with every coordinate positive.
    approx = ppe_payoff_set(spec, n_directions=24)
    assert np.all(np.count_nonzero(approx.directions, axis=1) >= 2)
    full = feasible_hull(spec)
    assert not full.degenerate and check_assumptions(spec).a2_holds
    support = np.max(approx.directions @ full.as_array().T, axis=1)
    assert np.max(np.abs(support - approx.k_values)) <= SOLVE_TOL


def test_contains_refuses_points_that_are_not_n_finite_numbers():
    approx = ppe_payoff_set(_spec(), n_directions=16)
    assert approx.contains((1.0, 1.0))
    with pytest.raises(DomainError, match="point must have length 2"):
        approx.contains((1.0, 1.0, 1.0))
    for bad in ((float("nan"), 1.0), (1.0, float("inf"))):
        with pytest.raises(DomainError, match="point must be finite"):
            approx.contains(bad)


def test_payoff_set_requires_enough_directions():
    with pytest.raises(DomainError):
        ppe_payoff_set(_spec(), n_directions=4)


# ---------------------------------------------------------------------------
# scale structure


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(min_value=0.55, max_value=0.95),
    epsilon=st.floats(min_value=0.05, max_value=0.45),
)
def test_scale_decreases_with_accuracy(alpha, epsilon):
    # better monitoring (higher alpha or lower epsilon) shrinks the
    # continuation scale L / (epsilon * alpha * kappa)
    s = 1.0 / (epsilon * alpha * kappa(alpha, epsilon))
    better_a = 1.0 / (epsilon * (alpha + 0.01) * kappa(alpha + 0.01, epsilon))
    assert better_a < s
    if epsilon > 0.06:
        better_e = 1.0 / ((epsilon - 0.01) * alpha * kappa(alpha, epsilon - 0.01))
        assert better_e < s


def test_transfers_never_punish_both_firms():
    # orthogonality with a positive direction means one firm's loss is the
    # other's gain; no signal can push both continuation rewards down
    spec = _spec()
    for lam in [(1.0, 1.0), (1.0, 2.0), (2.0, 0.7)]:
        g = solve_enforceability(spec, (1, 1), lam).gamma_bar
        for b in range(4):
            row = g[b]
            if np.max(np.abs(row)) < 1e-12:
                continue
            assert row.min() < 1e-12 and row.max() > -1e-12


# ---------------------------------------------------------------------------
# promise family


def test_promise_family_base_point():
    spec = _spec(delta=0.99)
    pd = PromiseDecomposition(spec, (1.0, 1.0))
    assert pd.action == (1, 1)
    assert abs(pd.k_star - 4.0) < TOL
    base = pd.gamma_bar_for(pd.u_r)
    expected = table2_gamma_bar(1.0, 0.9, 0.1, (1.0, 1.0))
    assert np.max(np.abs(base - expected)) < TOL


def test_promise_family_frozen_slopes():
    # moving the promise one unit along (1, -1) (staying on the hyperplane)
    # tilts firm 1's rewards by (1 - rho^2, 1/eps, 1/eps, 0) per signal
    spec = _spec(delta=0.99)
    pd = PromiseDecomposition(spec, (1.0, 1.0))
    g0 = pd.gamma_bar_for(pd.u_r)
    g1 = pd.gamma_bar_for(pd.u_r + np.array([1.0, -1.0]))
    slopes = (g1 - g0)[:, 0]
    assert np.allclose(slopes, [-80.0, 10.0, 10.0, 0.0], atol=1e-9)


def test_promise_family_decomposes_everywhere():
    # any admissible promise must decompose exactly through its own map
    spec = _spec(delta=0.99)
    pd = PromiseDecomposition(spec, (1.0, 1.0))
    rng_ = np.random.default_rng(7)
    for _ in range(20):
        v = rng_.uniform(0.0, 2.0, size=2)
        if v.sum() > pd.k_star:
            continue
        chk = verify_decomposition(spec, v, (1, 1), pd.gamma_bar_for(v))
        assert chk.holds, v


def test_promise_family_perpendicular_shift_is_rigid():
    spec = _spec(delta=0.99)
    pd = PromiseDecomposition(spec, (1.0, 1.0))
    lam_unit = np.array([1.0, 1.0]) / np.sqrt(2.0)
    g0 = pd.gamma_bar_for(pd.u_r)
    g1 = pd.gamma_bar_for(pd.u_r + lam_unit)
    assert np.allclose(g1 - g0, np.tile(lam_unit, (4, 1)), atol=1e-9)


def _hex(row) -> list[str]:
    return [float.hex(float(x)) for x in row]


@pytest.mark.parametrize("n, kind", [pytest.param(n, "ones", id=str(n)) for n in range(2, 6)]
                         + [pytest.param(n, "mixed", id=f"{n}-mixed") for n in range(2, 6)])
def test_promise_walk_is_the_same_in_every_shape(n, kind):
    # The automaton steps one promise as a tuple of floats and the Monte
    # Carlo kernel a firm-major (N, R) block; a tuple, an (N,) array and a
    # block's column must give the same bits, and a step must add exactly
    # the row of gamma_bar_for.
    spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.99)
    lam = np.ones(n) if kind == "ones" else np.array([1.0, -0.5, 0.75, -0.25, 1.5])[:n]
    walk = PromiseDecomposition(spec, lam)
    gen = np.random.default_rng(n)
    interior = walk.u_r + gen.normal(scale=0.5, size=(40, n))
    level = (interior @ lam)[:, None]
    hyperplane = interior - (level - walk.k_star) * lam / (lam @ lam)
    tol = REGION_TOL
    # A point on the supporting hyperplane with every component >= 1; it is
    # u(r*) except at N = 2 with mixed signs, where u(r*) has a negative one.
    p = np.maximum(walk.u_r, 1.0)
    p[0] = (walk.k_star - lam[1:] @ p[1:]) / lam[0]
    unit = lam / (lam @ lam)  # raises lam . v by one
    face = np.where(lam > 0, p - 1.0, p + 1.0)  # lam . face < lam . p
    edges = np.array([
        p,  # on the supporting hyperplane
        p + tol * unit,  # at the level's slack
        p + 2 * n * tol * unit,  # past it
        np.r_[0.0, p[1:]],  # on a coordinate face
        np.r_[-tol, face[1:]],  # at the face's slack
        np.r_[-2 * tol, face[1:]],  # past it
    ])
    v = np.concatenate([interior, hyperplane, edges])
    block = np.ascontiguousarray(v.T)  # (N, R), as the kernel holds it
    out = walk.outside(block)
    assert out.any() and not out.all()
    for r in range(len(v)):
        assert walk.outside(v[r]) == out[r], r
        assert walk.outside(tuple(v[r].tolist())) is bool(out[r]), r
    # The point at the level's slack is a tie that rounding breaks: outside
    # for the all-ones direction at N = 5, inside in the other cases.
    slack_outside = kind == "ones" and n == 5
    assert list(out[-6:]) == [False, slack_outside, True, False, False, True]

    c = (1.0 - 0.99) / 0.99
    signals = gen.integers(0, 2**n, size=len(v)).astype(np.uint8)
    moved = walk.step(block, signals, c)
    assert moved.shape == block.shape
    for r in range(len(v)):
        row = walk.step(v[r], int(signals[r]), c)
        assert row.tobytes() == moved[:, r].tobytes(), r
        point = tuple(v[r].tolist())
        assert _hex(walk.step(point, int(signals[r]), c)) == _hex(moved[:, r]), r
        gamma = walk.gamma_bar_for(v[r])
        for b in range(2**n):
            row = walk.step(v[r], b, c)
            assert row.tobytes() == (v[r] + c * gamma[b]).tobytes(), (r, b)
            assert _hex(walk.step(point, b, c)) == _hex(row), (r, b)


def test_promise_walks_sharing_a_decomposition_match_walks_apart():
    # The tuple step remembers its last (v, b, c) and result; walks that
    # alternate on one decomposition, from different promises and on
    # different signals, must give the bits of walks on their own.
    spec = GameSpec(3, LinearGain(3.0), 1.0, 0.9, 0.1, 0.99)
    shared = PromiseDecomposition(spec, np.ones(3))
    starts = [tuple(shared.u_r.tolist()), (4.0, 5.0, 6.0)]
    gen = np.random.default_rng(5)
    signals = gen.integers(0, 8, size=(2, 60)).tolist()
    signals[1][:10] = signals[0][:10]  # the same signals for a while
    c = (1.0 - 0.99) / 0.99

    def walk_apart(start, bits):
        own = PromiseDecomposition(spec, np.ones(3))
        path, v = [], start
        for b in bits:
            v = own.step(v, b, c)
            path.append((_hex(v), own.outside(v)))
        return path

    apart = [walk_apart(start, bits) for start, bits in zip(starts, signals)]
    for first in (0, 1):
        paths, v = [[], []], list(starts)
        for t in range(60):
            for w in (first, 1 - first):
                # Step twice, as two firms of one period do.
                for _ in range(2):
                    moved = shared.step(v[w], signals[w][t], c)
                v[w] = moved
                paths[w].append((_hex(moved), shared.outside(moved)))
        assert paths == apart


# ---------------------------------------------------------------------------
# non-finite inputs


@pytest.mark.parametrize(
    "direction", [(np.inf, 1.0), (np.nan, 1.0)], ids=["inf", "nan"]
)
def test_solver_rejects_non_finite_direction(spec2, direction):
    with pytest.raises(DomainError, match="finite"):
        solve_enforceability(spec2, (1, 1), direction)
    with pytest.raises(DomainError, match="finite"):
        solve_enforceability(spec2, (1, 1), direction, orthogonal=False)
    with pytest.raises(DomainError, match="finite"):
        k_star(spec2, direction)


def test_solver_rejects_non_finite_target(spec2):
    with pytest.raises(DomainError, match="finite"):
        solve_enforceability(spec2, (1, 1), (1.0, 0.0), target=(np.nan, 2.0))


# ---------------------------------------------------------------------------
# spec-level profile tables


def _random_specs(n, count, seed, concave=False):
    """Random specs with their own monitor kernel; ``concave`` gives each a
    random concave gain table instead of a linear gain."""
    rng_ = np.random.default_rng(seed)
    for _ in range(count):
        g = float(rng_.uniform(1.5, 4.0))
        gain = LinearGain(g)
        if concave:
            f, step = [0.0], float(rng_.uniform(0.8, 1.2))
            for _ in range(n):
                f.append(f[-1] + step)
                step *= float(rng_.uniform(0.5, 0.95))
            gain = ConcaveGain(g, tuple(f))
        yield GameSpec(
            n, gain, float(rng_.uniform(0.5, 2.0)),
            float(rng_.uniform(0.6, 0.95)), float(rng_.uniform(0.05, 0.4)), 0.9,
            monitor_alpha=float(rng_.uniform(0.6, 0.95)),
            monitor_epsilon=float(rng_.uniform(0.05, 0.4)),
        )


def _tie_spec(n):
    """Welfare peaks at two disclosers, so on the all-ones direction the
    permutations of a two-discloser profile tie for the top bound.  At
    N = 3 and 4 the tie is within SOLVE_TOL but not bitwise: the sums round
    apart by an ulp, and the largest is not the lexicographically smallest
    profile."""
    return GameSpec(
        n, ConcaveGain(3.0, (0.0,) + (1.1,) * n), 0.7, 0.9, 0.1, 0.9,
        monitor_alpha=0.8, monitor_epsilon=0.2,
    )


# Components of cos(pi/2), cos(pi) and cos(3 pi/2) in the circle directions.
_NEAR_ZERO = (6.123233995736766e-17, 1.2246467991473532e-16, 1.8369701987210297e-16)


def _test_directions(n, count, seed):
    """(class, direction) pairs: Gaussian directions, coordinate directions of
    both signs, directions with one zero component, near-coordinate
    directions (a coordinate direction whose other components are about
    1e-16, like the circle directions at 90, 180 and 270 degrees), and the
    all-ones direction."""
    rng_ = np.random.default_rng(seed)
    dirs = [("gaussian", rng_.standard_normal(n)) for _ in range(count)]
    dirs += [
        ("coordinate", sign * np.eye(n)[i]) for i in range(n) for sign in (1.0, -1.0)
    ]
    for _ in range(count):
        lam = rng_.standard_normal(n)
        lam[rng_.integers(n)] = 0.0
        dirs.append(("zero-component", lam))
    for i in range(n):
        for sign in (1.0, -1.0):
            lam = rng_.choice((-1.0, 1.0), n) * rng_.choice(_NEAR_ZERO, n)
            lam[i] = sign
            dirs.append(("near-coordinate", lam))
    if n == 2:
        dirs += [("near-coordinate", lam) for lam in _circle_directions(4)[1:]]
    dirs.append(("all-ones", np.ones(n)))
    return dirs


def _fresh_solve(spec, r, lam):
    res = solve_enforceability(spec, r, lam, orthogonal=True)
    if not res.feasible:
        res = solve_enforceability(spec, r, lam, orthogonal=False)
    return res


def _assert_same_k_star(ks, oracle):
    assert np.float64(ks.value).tobytes() == np.float64(oracle.value).tobytes()
    assert ks.direction == oracle.direction
    assert ks.best_profile == oracle.best_profile
    assert ks.orthogonal_at_best == oracle.orthogonal_at_best


def _k_star_cases(n):
    specs = [*_random_specs(n, 2, seed=100 + n), *_random_specs(n, 1, 400 + n, True)]
    for spec in specs:
        for cls, lam in _test_directions(n, 3, seed=200 + n):
            yield spec, cls, lam
    yield _tie_spec(n), "all-ones", np.ones(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_k_star_tables_match_fresh_public_solves_bitwise(n):
    """The closed form gives the exhaustive solver's k* bit for bit, and a
    fresh public solve of the best profile gives the same level.  On the
    Gaussian, coordinate, zero-component and all-ones directions every
    profile's closed-form level is also within 1e-12 of the solver's, with
    the same enforcement mode; near-coordinate directions are compared at
    the best profile only."""
    for spec, cls, lam in _k_star_cases(n):
        oracle, levels, maps = exhaustive_k_star(spec, lam)
        _assert_same_k_star(k_star(spec, lam), oracle)
        fresh = _fresh_solve(spec, oracle.best_profile, lam)
        assert np.float64(fresh.k_star).tobytes() == np.float64(oracle.value).tobytes()
        if cls == "near-coordinate":
            continue
        profiles, closed, orth = _profile_levels(spec, _direction(lam, n))
        profiles = [tuple(r) for r in profiles.tolist()]
        assert profiles == list(all_profiles(n))
        for r, level, orthogonal in zip(profiles, closed, orth):
            assert abs(level - levels[r]) <= 1e-12, (cls, r)
            assert orthogonal == maps[r].orthogonal, (cls, r)


# One small component on a coordinate direction, 1e-17 to 1e-3, plus three
# sizes in the band just above the zero rule's SOLVE_TOL.
_SMALL = tuple(float(f"1e{e}") for e in range(-17, -2)) + (1.5e-9, 3e-9, 6e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_k_star_small_component_sweep_matches_oracle(n):
    """Bit for bit at every size: in the band just above the zero rule the
    closed form counts the small component, and the oracle's orthogonal
    solve, where lstsq misses, takes the per-bit map at lambda . u(r)."""
    spec = next(_random_specs(n, 1, seed=600 + n))
    rng_ = np.random.default_rng(700 + n)
    for size in _SMALL:
        for sign in (1.0, -1.0):
            k, j = rng_.choice(n, 2, replace=False)
            lam = sign * np.eye(n)[k]
            lam[j] = rng_.choice((-1.0, 1.0)) * size
            _assert_same_k_star(k_star(spec, lam), exhaustive_k_star(spec, lam)[0])


def test_k_star_and_payoff_set_solve_nothing(monkeypatch, spec2, spec3):
    from npdshare import decompose

    def refuse(*args, **kwargs):
        raise AssertionError("k* built or solved a constraint system")

    for name in ("_solve", "linprog", "_profile_table"):
        monkeypatch.setattr(decompose, name, refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for lam in [(1.0, 1.0), (1.0, 0.0), (-1.0, 1e-17)]:
        k_star(spec2, lam)
    k_star(spec3, (0.0, -1.0, 0.0))
    ppe_payoff_set(spec2, 360)
    ppe_payoff_set(spec3, 32)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_general_level_never_exceeds_its_bound(n):
    """An orthogonal level is lambda . u(r) exactly, and the oracle's
    general-LP level, lambda . u(r) minus the LP optimum, is at most that,
    for every profile the LP is given, with or without a profitable
    deviation.  A profile with no profitable deviation is enforced by
    gamma_bar = 0: its orthogonal solve succeeds, and its general LP optimum
    is 0, which HiGHS may return as -6e-17."""
    general = 0
    for spec, _, lam in _k_star_cases(n):
        for t in _profile_tables(spec).values():
            bound = float(lam @ t.u_r)
            res = _solve(t, lam, None)
            if res.feasible:
                assert np.float64(res.k_star).tobytes() == np.float64(bound).tobytes()
            else:
                assert np.any(t.profitable)
            res = general_lp(t, lam)
            if res is not None:
                general += 1
                assert res.k_star <= bound
    assert general > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_general_mode_is_k_stars_level_with_no_lp(monkeypatch, n):
    """On every profile, general mode returns ``_profile_levels``' level bit
    for bit, within 1e-12 of the oracle's HiGHS LP, with a map that
    decomposes v = u(r) + E[gamma_bar | r] and stays in the half-space; and
    it calls no LP.  The directions are ``_test_directions``' and a unit
    one with a 1e-17 component."""
    from npdshare import decompose

    tiny = np.eye(n)[0]
    tiny[n - 1] = 1e-17
    cases = []
    for concave in (False, True):
        spec = next(_random_specs(n, 1, seed=900 + n, concave=concave))
        for _, lam in _test_directions(n, 2, seed=950 + n) + [("tiny", tiny)]:
            oracle = {r: general_lp(t, lam) for r, t in _profile_tables(spec).items()}
            cases.append((spec, lam, oracle))

    def refuse(*args, **kwargs):
        raise AssertionError("general mode called linprog")

    monkeypatch.setattr(decompose, "linprog", refuse)
    own_bit = 0
    for spec, lam, oracle in cases:
        profiles, levels, orthogonal = _profile_levels(spec, lam)
        for r, level, orth_r in zip(map(tuple, profiles.tolist()), levels, orthogonal):
            res = solve_enforceability(spec, r, lam, orthogonal=False)
            assert res.feasible, (r, lam)
            assert type(res.k_star) is float
            assert np.float64(res.k_star).tobytes() == level.tobytes(), (r, lam)
            assert abs(res.k_star - oracle[r].k_star) <= 1e-12, (r, lam)
            assert res.orthogonal == orth_r
            own_bit += res.mode == "own_bit"
            _assert_map_in_half_space(spec, r, lam, res.gamma_bar)
    assert own_bit > 0


def _assert_map_in_half_space(spec, r, lam, g):
    """g decomposes v = u(r) + E[g | r] and lam . g(b) <= 0 on every signal."""
    v = profile_payoff(spec, r) + public_signal_distribution(spec, r).probs @ g
    assert verify_decomposition(spec, v, r, g).holds, (r, lam)
    assert np.max(g @ lam) <= SOLVE_TOL * max(1.0, float(np.max(np.abs(g)))), (r, lam)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_own_bit_map_stays_in_the_half_space_under_the_zero_rule(n):
    """Components of +-0.99e-9 beside a unit one count as zero, so every
    profile where firm 1 discloses is punished at k*'s level.  Each other
    profitable firm's transfer is signed so that lambda_j gamma_bar_j(b) <= 0:
    mean-zero transfers would leave the half-space by 2-3 |lambda_j| per
    firm, past the tolerance at N = 4 and 5."""
    spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                    monitor_alpha=0.6, monitor_epsilon=0.4)
    lam = np.random.default_rng(850 + n).choice((-1.0, 1.0), n) * 0.99e-9
    lam[0] = 1.0
    profiles, levels, _ = _profile_levels(spec, lam)
    for r, level in zip(map(tuple, profiles.tolist()), levels):
        res = solve_enforceability(spec, r, lam, orthogonal=False)
        assert res.feasible and (res.mode == "own_bit") == (r[0] == 1), r
        assert np.float64(res.k_star).tobytes() == level.tobytes(), r
        _assert_map_in_half_space(spec, r, lam, res.gamma_bar)


@pytest.mark.parametrize("n", range(2, 9))
def test_own_bit_maps_build_and_solve_no_rows(monkeypatch, n):
    """General mode on a coordinate direction that punishes its firm (a
    discloser, who gains by concealing) pays each profitable firm on its own
    bit: it builds none of the 2^N system's rows and runs neither lstsq nor
    an LP, at k*'s level bit for bit."""
    from npdshare import decompose

    spec = next(_random_specs(n, 1, seed=1000 + n, concave=n % 2 == 1))
    rng_ = np.random.default_rng(1100 + n)
    cases = []
    for k in range(n):
        for c in (1.0, -2.5):
            lam = c * np.eye(n)[k]
            profiles, levels, _ = _profile_levels(spec, lam)
            picks = np.flatnonzero(profiles[:, k] == 1)
            for i in [picks[-1], *rng_.choice(picks, 3)]:
                cases.append((tuple(profiles[i].tolist()), lam, levels[i]))

    def refuse(*args, **kwargs):
        raise AssertionError("the own-bit map built or solved a system")

    for owner, name in ((decompose, "_system"), (decompose, "linprog"), (np.linalg, "lstsq")):
        monkeypatch.setattr(owner, name, refuse)
    for r, lam, level in cases:
        res = solve_enforceability(spec, r, lam, orthogonal=False)
        assert res.mode == "own_bit" and res.feasible and not res.orthogonal, (r, lam)
        assert np.float64(res.k_star).tobytes() == level.tobytes(), (r, lam)
        _assert_map_in_half_space(spec, r, lam, res.gamma_bar)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_general_mode_in_the_zero_rule_band_is_orthogonal_mode(n):
    """A component of 1.5e-9 to 6e-9 beside a unit one counts as nonzero, so
    no profile is punished and general mode is orthogonal mode at u(r): the
    same map bytes, mode and level, and both succeed."""
    spec = next(_random_specs(n, 1, seed=600 + n))
    rng_ = np.random.default_rng(800 + n)
    for size in (1.5e-9, 3e-9, 6e-9):
        for sign in (1.0, -1.0):
            k, j = rng_.choice(n, 2, replace=False)
            lam = sign * np.eye(n)[k]
            lam[j] = rng_.choice((-1.0, 1.0)) * size
            for r in all_profiles(n):
                orth = solve_enforceability(spec, r, lam)
                gen = solve_enforceability(spec, r, lam, orthogonal=False)
                assert (gen.feasible, gen.mode, gen.orthogonal, gen.k_star) == (
                    orth.feasible, orth.mode, orth.orthogonal, orth.k_star
                ), (size, r)
                assert orth.feasible and gen.failure_reason is None, (size, r)
                assert gen.gamma_bar.tobytes() == orth.gamma_bar.tobytes()


def _on_hyperplane(rng_, u, lam):
    """u plus a Gaussian step projected onto the hyperplane lambda . d = 0."""
    d = rng_.standard_normal(len(lam))
    return u + (d - (lam @ d) / (lam @ lam) * lam)


# Sizes of one small component beside a unit one: three below the zero rule,
# two in the band just above it.
_FEASIBILITY_SMALL = (1e-17, 1e-12, 5e-10, 1.5e-9, 3e-9)


def _feasibility_cases(n):
    """(spec, direction) pairs: a linear spec with the firms' kernel as the
    monitor, a linear and a concave spec with their own monitor; Gaussian,
    coordinate, zero-component and small-component directions."""
    rng_ = np.random.default_rng(1200 + n)
    specs = [_spec(0.8, 0.2, n=n), *_random_specs(n, 1, seed=1210 + n),
             *_random_specs(n, 1, seed=1220 + n, concave=True)]
    dirs = [lam for cls, lam in _test_directions(n, 3, seed=1230 + n)
            if cls != "near-coordinate"]
    for size in _FEASIBILITY_SMALL:
        for sign in (1.0, -1.0):
            k, j = rng_.choice(n, 2, replace=False)
            lam = sign * np.eye(n)[k]
            lam[j] = rng_.choice((-1.0, 1.0)) * size
            dirs.append(lam)
    return [(spec, _direction(lam, n)) for spec in specs for lam in dirs]


def _outside_band(lam):
    mag = np.abs(lam)
    return bool(np.all(mag[mag > 0] >= 1e-8 * mag.max()))


def _assert_per_bit_map(spec, r, lam, v, g):
    """The three facts of an orthogonal map at v: it decomposes v, lambda .
    g(b) = 0 on every signal and E[g | r] = v - u(r)."""
    tol = SOLVE_TOL * max(1.0, float(np.max(np.abs(g))))
    u = profile_payoff(spec, r)
    assert verify_decomposition(spec, v, r, g).holds, (r, lam, v)
    assert np.max(np.abs(g @ lam)) <= tol, (r, lam, v)
    mean = public_signal_distribution(spec, r).probs @ g
    assert np.max(np.abs(mean - (v - u))) <= tol, (r, lam, v)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orthogonal_feasibility_is_k_stars_classification(monkeypatch, n):
    """Orthogonal mode succeeds exactly where k* enforces the profile
    orthogonally, at u(r) and at a target on the hyperplane, with no LP.
    Every per-bit map outside the zero rule's band, those the solver returns
    and the closed form at every feasible profile, decomposes its target
    orthogonally."""
    from npdshare import decompose

    def refuse(*args, **kwargs):
        raise AssertionError("the orthogonal solve called linprog")

    monkeypatch.setattr(decompose, "linprog", refuse)
    rng_ = np.random.default_rng(1300 + n)
    returned = closed = 0
    for spec, lam in _feasibility_cases(n):
        profiles, _, orthogonal = _profile_levels(spec, lam)
        outside = _outside_band(lam)
        for r, orth_r in zip(map(tuple, profiles.tolist()), orthogonal):
            u = profile_payoff(spec, r)
            for v in (u, _on_hyperplane(rng_, u, lam)):
                res = solve_enforceability(spec, r, lam, target=v)
                assert res.feasible == orth_r, (r, lam, v)
                if not orth_r:
                    assert res.failure_reason == "orthogonal enforcement infeasible"
                    continue
                assert res.mode in ("equality", "per_bit") and res.orthogonal
                if not outside:
                    continue
                if res.mode == "per_bit":
                    returned += 1
                    _assert_per_bit_map(spec, r, lam, v, res.gamma_bar)
                g = decompose._per_bit_map(decompose._profile_table(spec, r), lam, v)
                closed += 1
                _assert_per_bit_map(spec, r, lam, v, g)
    assert returned > 0 and closed > 0


def test_verify_decomposition_refuses_malformed_inputs(spec2):
    g = solve_enforceability(spec2, (1, 1), (1.0, 1.0)).gamma_bar
    for v in ((np.nan, 2.0), (2.0, 2.0, 2.0), 2.0):
        with pytest.raises(DomainError, match="v must"):
            verify_decomposition(spec2, v, (1, 1), g)
    for bad in (np.nan, np.inf):
        h = g.copy()
        h[1, 0] = bad
        with pytest.raises(DomainError, match=r"gamma_bar must be a finite \(4, 2\) array"):
            verify_decomposition(spec2, (2.0, 2.0), (1, 1), h)
    with pytest.raises(DomainError, match=r"gamma_bar must be a finite \(4, 2\) array"):
        verify_decomposition(spec2, (2.0, 2.0), (1, 1), g[:, :1])


@pytest.mark.parametrize("n,n_directions", [(2, 24), (3, 16)])
def test_payoff_set_levels_match_k_star_loop_bitwise(n, n_directions):
    spec = next(_random_specs(n, 1, seed=300 + n))
    approx = ppe_payoff_set(spec, n_directions)
    looped = [k_star(spec, lam) for lam in approx.directions]
    levels = np.array([ks.value for ks in looped])
    assert approx.k_values.tobytes() == levels.tobytes()
    assert approx.best_profiles == tuple(ks.best_profile for ks in looped)


@pytest.mark.parametrize(
    "n,n_directions,concave", [(2, 360, False), (2, 72, True), (3, 32, True), (4, 16, False)]
)
def test_payoff_set_levels_match_exhaustive_oracle_bitwise(n, n_directions, concave):
    spec = next(_random_specs(n, 1, 500 + n, concave))
    approx = ppe_payoff_set(spec, n_directions)
    oracle = [exhaustive_k_star(spec, lam)[0] for lam in approx.directions]
    assert approx.k_values.tobytes() == np.array([o.value for o in oracle]).tobytes()
    assert approx.best_profiles == tuple(o.best_profile for o in oracle)


def _count_distribution_builds(monkeypatch):
    from npdshare import decompose

    calls = []
    inner = decompose.public_profile_distribution_raw

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(decompose, "public_profile_distribution_raw", counting)
    return calls


def test_payoff_set_builds_each_distribution_once(monkeypatch, spec2, spec3):
    # The closed form reads the stage table and the kernel: no distribution.
    calls = _count_distribution_builds(monkeypatch)
    ppe_payoff_set(spec2, 360)
    ppe_payoff_set(spec3, 32)
    assert calls == []


def test_promise_setup_builds_each_distribution_once(monkeypatch, spec3):
    # One table, for k*'s best profile: its distribution and N deviations'.
    calls = _count_distribution_builds(monkeypatch)
    PromiseDecomposition(_spec(delta=0.99), (1.0, 1.0))
    assert len(calls) == 2 + 1
    calls.clear()
    PromiseDecomposition(spec3, (1.0, 1.0, 1.0))
    assert len(calls) == 3 + 1


def test_single_profile_systems_share_the_n_cap():
    # The constraint systems over 2^N signals have their own cap; k* and
    # the payoff set list the 2^N profiles, so they raise profile_array's.
    spec = GameSpec(9, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
    with pytest.raises(CapacityError, match="capped at N <= 8") as system:
        solve_enforceability(spec, (1,) * 9, (1.0,) * 9)
    assert "constraint system over 2^N public signals" in str(system.value)
    with pytest.raises(CapacityError, match="capped at N <= 8") as exc:
        verify_decomposition(spec, (2.0,) * 9, (1,) * 9, np.zeros((2**9, 9)))
    assert str(exc.value) == str(system.value)
    with pytest.raises(CapacityError) as listing:
        profile_array(9)
    for call in (lambda: k_star(spec, (1.0,) * 9), lambda: ppe_payoff_set(spec, 16),
                 lambda: _profile_levels(spec, np.ones(9))):
        with pytest.raises(CapacityError, match="capped at N <= 8") as exc:
            call()
        assert str(exc.value) == str(listing.value) != str(system.value)


def _best_by_enumeration(spec, lam):
    """k*'s value and best profile when lambda has two or more nonzero
    components, from ``all_profiles`` and ``profile_payoff``: the best
    lambda . u(r), ties within SOLVE_TOL to the first profile."""
    levels = {r: float(lam @ profile_payoff(spec, r)) for r in all_profiles(spec.n_firms)}
    top = max(levels.values())
    best = next(r for r, level in levels.items() if level >= top - SOLVE_TOL)
    return top, best


@pytest.mark.parametrize("n", range(2, 9))
def test_k_star_is_the_best_profile_payoff_on_directions_with_two_components(n):
    """Every profile is enforced orthogonally, so k* is max_r lambda . u(r):
    its value is float(lambda @ u) of its best profile, bit for bit, within
    SOLVE_TOL of the enumerated max, and its profile is the
    lexicographically smallest within SOLVE_TOL of that max."""
    rng_ = np.random.default_rng(800 + n)
    specs = [*_random_specs(n, 2, seed=810 + n), *_random_specs(n, 2, 820 + n, True)]
    cases = [(spec, rng_.standard_normal(n)) for spec in specs for _ in range(4)]
    cases += [(spec, np.ones(n)) for spec in specs + [_tie_spec(n)]]
    for spec in specs:
        lam = rng_.standard_normal(n)
        lam[rng_.choice(n, n - 2, replace=False)] = 0.0
        cases.append((spec, lam))
    for spec, lam in cases:
        ks = k_star(spec, lam)
        top, best = _best_by_enumeration(spec, lam)
        u = profile_payoff(spec, ks.best_profile)
        assert np.float64(ks.value).tobytes() == np.float64(float(lam @ u)).tobytes()
        assert type(ks.value) is float and ks.orthogonal_at_best
        assert abs(ks.value - top) <= SOLVE_TOL
        assert ks.best_profile == best
        assert all(type(a) is int for a in ks.best_profile)
