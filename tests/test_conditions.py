"""Rank conditions and the private-monitoring identifiability checks."""

import decimal
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from condition_oracle import c1_evidence, c2_c3_evidence, per_bit_gap
from signal_oracle import numeric_rank, signal_matrix, with_monitor_kernel, with_private_kernel

from npdshare import (
    ConcaveGain,
    FactoredBernoulli,
    GameSpec,
    LinearGain,
    all_profiles,
    check_c1,
    check_c2,
    check_c3,
    extreme_profiles,
    individual_full_rank,
    marginal_excluding,
    minmax,
    pairwise_full_rank,
    theorem_preconditions,
)
from npdshare.conditions import rank_reports
from npdshare import conditions, game, geometry, monitoring
from npdshare.errors import CapacityError, ConditionInapplicableError, DomainError
from npdshare.game import profile_array


def test_numeric_rank_basics():
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.eye(4)) == 4
    assert numeric_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    # near-dependence below the relative tolerance collapses
    m = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-12]])
    assert numeric_rank(m) == 1
    assert numeric_rank(m, tol=1e-15) == 2
    # a duplicated row adds no rank; zero trailing columns end the scan early
    assert numeric_rank(np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 5.0], [1.0, 2.0, 3.0]])) == 2
    tail = np.zeros((3, 6))
    tail[:, :2] = [[2.0, 1.0], [1.0, 3.0], [4.0, 2.0]]
    assert numeric_rank(tail) == 2


def test_individual_signal_matrix_frozen_rows():
    mat = signal_matrix((0, 0), (0,), 0.9, 0.1)
    assert np.allclose(mat[0], [0.81, 0.09, 0.09, 0.01], atol=1e-15)
    assert np.allclose(mat[1], [0.09, 0.81, 0.01, 0.09], atol=1e-15)
    assert numeric_rank(mat) == 2


def test_individual_rank_deficient_when_uninformative(spec2):
    # alpha == epsilon: both actions induce the same signal distribution
    assert numeric_rank(signal_matrix((0, 0), (0,), 0.3, 0.3)) == 1
    rep = individual_full_rank(with_monitor_kernel(spec2, 0.3, 0.3), (0, 0), 0)
    assert not rep.holds and rep.evidence["rank"] == 1


def test_exact_rank_matches_numeric_oracle():
    gen = np.random.default_rng(13)
    for n in range(2, 7):
        spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
        for k in range(8):
            a, e = gen.uniform(0.0, 1.0, size=2)
            if k < 2:
                e = a  # uninformative: every row is the equilibrium row
            with_monitor_kernel(spec, float(a), float(e))
            for _ in range(3):
                r = tuple(int(x) for x in gen.integers(0, 2, size=n))
                for i in range(n):
                    want = numeric_rank(signal_matrix(r, (i,), a, e))
                    assert individual_full_rank(spec, r, i).evidence["rank"] == want
                for i, j in itertools.combinations(range(n), 2):
                    want = numeric_rank(signal_matrix(r, (i, j), a, e))
                    assert pairwise_full_rank(spec, r, i, j).evidence["rank"] == want, (n, a, e, r, i, j)


def test_rank_is_exact_at_a_tiny_monitor_gap():
    # A relative pivot tolerance reads rows 1e-10 apart as equal; the
    # per-bit kernel still tells the actions apart.
    spec = GameSpec(4, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                    monitor_alpha=0.5 + 5e-11, monitor_epsilon=0.5 - 5e-11)
    gap = spec.m_alpha - spec.m_epsilon
    assert 0 < gap < 1.1e-10
    assert numeric_rank(signal_matrix((1,) * 4, (0,), spec.m_alpha, spec.m_epsilon)) == 1
    for i in range(4):
        assert individual_full_rank(spec, (1,) * 4, i).evidence["rank"] == 2
    for i, j in itertools.combinations(range(4), 2):
        assert pairwise_full_rank(spec, (0, 1, 0, 1), i, j).evidence["rank"] == 3
    assert theorem_preconditions(spec, "flm").holds


@pytest.mark.parametrize("firm", [-1, 2, 0.5, True])
def test_rank_rejects_firms_out_of_range(spec2, firm):
    with pytest.raises(DomainError, match="out of range"):
        individual_full_rank(spec2, (1, 1), firm)
    with pytest.raises(DomainError, match="out of range"):
        pairwise_full_rank(spec2, (1, 1), 0, firm)


def test_individual_full_rank_all_firms(spec2, spec3):
    for spec in (spec2, spec3):
        for i in range(spec.n_firms):
            rep = individual_full_rank(spec, minmax(spec, i).profile, i)
            assert rep.holds
            assert rep.evidence["rank"] == 2


def test_pairwise_full_rank_is_three(spec2):
    rep = pairwise_full_rank(spec2, (1, 1), 0, 1)
    assert rep.holds and rep.evidence["rank"] == 3
    mat = signal_matrix((1, 1), (0, 1), spec2.m_alpha, spec2.m_epsilon)
    assert mat.shape == (4, 4)
    # the two prescribed-action rows coincide, so rank 4 is unreachable
    assert np.allclose(mat[1], mat[3])


def test_pairwise_full_rank_across_sizes():
    for n in range(2, 7):
        spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
        rep = pairwise_full_rank(spec, (1,) * n, 0, n - 1)
        assert rep.holds, n
        assert rep.evidence["required"] == 3


def test_pairwise_rejects_same_firm(spec2):
    with pytest.raises(DomainError):
        pairwise_full_rank(spec2, (1, 1), 0, 0)


def test_c1_holds_for_three_and_four_firms():
    for n in (3, 4):
        spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
        for firm in range(n):
            rep = check_c1(spec, firm)
            assert rep.holds, (n, firm)
            for entry in rep.evidence["deviators"]:
                assert entry["holds"]


def test_c2_c3_hold_for_three_and_four_firms():
    for n in (3, 4):
        spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
        for r in [(0,) * n, (1,) * n]:
            rep2 = check_c2(spec, r, 0, 1)
            rep3 = check_c3(spec, r, 0, 1)
            assert rep2.holds and rep3.holds, (n, r)


def test_c3_holds_at_a_cosine_just_below_one():
    # At the kernel's edge C3's cosine approaches 1 - 2^-(N - 2): at N = 24
    # it reads 1 - 2.4e-7, between 1 - 1e-6 and 1 - COLLINEAR_TOL, so the
    # segments are not positively collinear and C3 holds.
    spec = GameSpec(24, LinearGain(3.0), 1.0, 0.5 + 1e-9, 1e-9, 0.9)
    rep = check_c3(spec, (1,) * 24, 0, 1)
    assert rep.holds
    assert 1.0 - 1e-6 < rep.evidence["cosine"] < 1.0 - 1e-9


KERNELS = [(0.9, 0.1), (0.6, 0.4), (0.501, 0.499), (0.99, 0.01), (0.75, 0.3)]


def _exact_c3(p, q_i, q_j):
    """<q_i - p, q_j - p>, ||q_i - p||^2 and ||q_j - p||^2 over the dense
    marginals, in exact rational arithmetic.

    Each P(bit = 0) is a dyadic rational, so the outcome probabilities are
    integers over one power of two, and the sums run on Python integers.
    """
    scale = 2**64

    def dense(fb):
        probs = [1]
        for a in map(Fraction, fb.p_zero.tolist()):
            z = a * scale
            assert z.denominator == 1
            probs = [x * y for y in (int(z), scale - int(z)) for x in probs]
        return probs

    base = dense(p)
    d_i = [x - y for x, y in zip(dense(q_i), base)]
    d_j = [x - y for x, y in zip(dense(q_j), base)]
    denominator = scale ** (2 * p.n_bits)
    return (
        Fraction(sum(x * y for x, y in zip(d_i, d_j)), denominator),
        Fraction(sum(x * x for x in d_i), denominator),
        Fraction(sum(x * x for x in d_j), denominator),
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_c3_values_match_exact_oracle(n):
    pairs = list(itertools.combinations(range(n), 2))
    profiles = [(0,) * n, (1,) * n, tuple(k % 2 for k in range(n))]

    def dec(x: Fraction) -> decimal.Decimal:
        return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)

    worst = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for alpha, epsilon in ((0.501, 0.499), (0.99, 0.01), (0.75, 0.3)):
            spec = GameSpec(n, LinearGain(3.0), 1.0, alpha, epsilon, 0.9)
            for r in profiles:
                for i, j in pairs:
                    dev_i, dev_j = list(r), list(r)
                    dev_i[i], dev_j[j] = 1 - r[i], 1 - r[j]
                    inner, nn_i, nn_j = _exact_c3(
                        *(marginal_excluding(spec, x, excluded=(i, j)) for x in (r, dev_i, dev_j))
                    )
                    norm_i, norm_j = dec(nn_i).sqrt(), dec(nn_j).sqrt()
                    want = {
                        "cosine": dec(inner) / (norm_i * norm_j),
                        "displacement_norm_i": norm_i,
                        "displacement_norm_j": norm_j,
                    }
                    ev = check_c3(spec, r, i, j).evidence
                    for key, exact in want.items():
                        rel = abs(decimal.Decimal(ev[key]) - exact) / abs(exact)
                        worst = max(worst, float(rel))
    assert worst <= 1e-12, worst


def test_per_bit_gap_decides_like_dense_oracle():
    for n in (3, 4):
        for alpha, epsilon in KERNELS:
            spec = GameSpec(n, LinearGain(3.0), 1.0, alpha, epsilon, 0.9)
            for excluded in ((0,), (0, 1)):  # the C1 and C2 label sets
                for r in all_profiles(n):
                    p = marginal_excluding(spec, r, excluded=excluded)
                    seen = {l for (_, l) in p.labels}
                    for r2 in all_profiles(n):
                        q = marginal_excluding(spec, r2, excluded=excluded)
                        gap = per_bit_gap(p.p_zero, q.p_zero)
                        moved = any(r[l] != r2[l] for l in seen)
                        assert (gap > 0) == moved
                        assert (p.sup_diff(q) > 0) == moved


def test_per_bit_gap_zero_for_uninformative_kernel(spec3):
    # alpha == epsilon: both actions induce the same bit law, so the
    # marginals of different profiles coincide under either measure
    labels = marginal_excluding(spec3, (1, 1, 1), excluded=(0,)).labels
    observed = np.array([l for (_, l) in labels])

    def marginal(profile):
        actions = np.asarray(profile)[observed]
        return FactoredBernoulli(labels=labels, p_zero=np.where(actions == 1, 0.3, 0.3))

    p, q = marginal((1, 1, 1)), marginal((0, 1, 0))
    assert per_bit_gap(p.p_zero, q.p_zero) == 0.0
    assert p.sup_diff(q) == 0.0


def test_reported_gaps_are_per_bit_kernel_gaps():
    # A deviation by one firm moves only the bits about that firm, each by
    # alpha - epsilon, so every C1 and C2 gap at every extreme profile and
    # pair is that kernel gap; with alpha == epsilon nothing moves.
    for n in range(3, 9):
        informative = GameSpec(n, LinearGain(3.0), 1.0, 0.8, 0.15, 0.9)
        flat = with_private_kernel(
            GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                     monitor_alpha=0.9, monitor_epsilon=0.1),
            0.3, 0.3,
        )
        for spec, kernel_gap in ((informative, abs(0.8 - 0.15)), (flat, 0.0)):
            for firm in range(n):
                for entry in check_c1(spec, firm).evidence["deviators"]:
                    _same_bits(entry["signal_gap"], kernel_gap)
                    assert entry["clause"] == ("detectable" if kernel_gap else "unprofitable")
                    assert "gap_metric" not in entry
            for (r, i, j), (c2, c3) in _bundle_pairs(spec, "km"):
                ev = check_c2(spec, r, i, j).evidence
                _same_bits(ev, c2.evidence)
                _same_bits(ev["deviation_marginals_gap"], kernel_gap)
                assert "gap_metric" not in ev
                if kernel_gap:
                    assert ev["intersection_empty"] and "equilibrium_to_intersection_gap" not in ev
                    assert "cosine" in c3.evidence
                else:
                    assert not ev["intersection_empty"] and not c2.holds
                    _same_bits(ev["equilibrium_to_intersection_gap"], 0.0)
                    assert c3.evidence["degenerate_displacement"] is True


@pytest.mark.parametrize("n", range(3, 7))
def test_c1_and_c2_build_no_marginal_moments(monkeypatch, n):
    # C1 and C2 read the kernel gap alone: with the moment recurrence
    # refused, check_c1, check_c2 and the bundle's C2 reports still give
    # the marginal oracle's evidence.
    def refuse(*args, **kwargs):
        raise AssertionError("displacement moments computed")

    monkeypatch.setattr(monitoring, "displacement_moments", refuse)
    monkeypatch.setattr(conditions, "displacement_moments", refuse)
    for spec in _oracle_specs(n):
        for firm in range(n):
            _same_bits(check_c1(spec, firm).evidence, c1_evidence(spec, firm))
        extremes = [list(r) for r in extreme_profiles(spec)]
        pairs = list(itertools.combinations(range(n), 2))
        bundle = conditions._c2_reports(spec, extremes, pairs)
        keys = [(r, i, j) for r in extremes for i, j in pairs]
        assert len(bundle) == len(keys)
        for (r, i, j), c2 in zip(keys, bundle):
            want = c2_c3_evidence(spec, r, i, j)[0]
            _same_bits(check_c2(spec, r, i, j).evidence, want)
            _same_bits(c2.evidence, want)
            assert c2.context == {"profile": r, "pair": [i + 1, j + 1]}


def test_km_preconditions_hold_for_six_firms():
    spec6 = GameSpec(6, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
    assert theorem_preconditions(spec6, "km").holds


def test_rank_reports_are_the_flm_rank_checks(spec3):
    reports = list(rank_reports(spec3, extreme_profiles(spec3)))
    flm_ranks = [
        rep
        for rep in theorem_preconditions(spec3, "flm").evidence["checks"]
        if rep.condition_id.endswith("_full_rank")
    ]
    assert [r.to_text() for r in reports] == [r.to_text() for r in flm_ranks]
    assert [r.condition_id for r in reports[:3]] == ["individual_full_rank"] * 3


def test_c2_rejects_two_firm_games(spec2):
    # with N = 2 removing both firms of a pair leaves no observer
    with pytest.raises(ConditionInapplicableError):
        check_c2(spec2, (1, 1), 0, 1)


def test_flm_preconditions_bundle(spec2, spec3):
    for spec in (spec2, spec3):
        rep = theorem_preconditions(spec, "flm")
        assert rep.holds
        assert rep.context["n_firms"] == spec.n_firms


def test_km_preconditions_hold_for_three_firms(spec3):
    rep = theorem_preconditions(spec3, "km")
    assert rep.holds


def test_km_inapplicable_for_two_firms(spec2):
    rep = theorem_preconditions(spec2, "km")
    assert not rep.holds
    assert "more than two firms" in rep.evidence["reason"]


def _sub_reports(rep, condition_id):
    return [c for c in rep.evidence["checks"] if c.condition_id == condition_id]


def test_km_is_exact_at_a_tiny_private_gap():
    # Private kernels 1e-10 apart still tell every deviation apart bit by bit.
    spec = GameSpec(4, LinearGain(3.0), 1.0, 0.5 + 5e-11, 0.5 - 5e-11, 0.9,
                    monitor_alpha=0.9, monitor_epsilon=0.1)
    assert 0 < spec.alpha - spec.epsilon < 1.1e-10
    rep = theorem_preconditions(spec, "km")
    assert rep.holds
    c1 = _sub_reports(rep, "c1_minmax_detectable_or_unprofitable")
    assert len(c1) == 4
    assert {d["clause"] for c in c1 for d in c.evidence["deviators"]} == {"detectable"}
    c2 = _sub_reports(rep, "c2_attributable")
    assert len(c2) == 6 * rep.context["n_extreme_profiles"]
    assert all(c.holds and c.evidence["intersection_empty"] for c in c2)
    c3 = _sub_reports(rep, "c3_jointly_attributable")
    assert len(c3) == len(c2)
    for c in c3:
        assert c.holds and "degenerate_displacement" not in c.evidence
        assert 0 < c.evidence["displacement_norm_i"] < 1e-9


def test_km_fails_for_an_uninformative_private_kernel():
    # alpha == epsilon: no deviation moves any private bit.
    spec = with_private_kernel(
        GameSpec(4, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                 monitor_alpha=0.9, monitor_epsilon=0.1),
        0.3, 0.3,
    )
    rep = theorem_preconditions(spec, "km")
    assert not rep.holds
    c2 = _sub_reports(rep, "c2_attributable")
    assert c2 and not any(c.holds for c in c2)
    c1 = _sub_reports(rep, "c1_minmax_detectable_or_unprofitable")
    assert all(c.holds for c in c1)
    assert {d["clause"] for c in c1 for d in c.evidence["deviators"]} == {"unprofitable"}
    c3 = _sub_reports(rep, "c3_jointly_attributable")
    assert c3 and all(c.evidence.get("degenerate_displacement") is True for c in c3)
    # Every boolean prints in lower case, per-deviator verdicts included.
    text = rep.to_text()
    assert "holds: true" in text and "holds: false" in text
    assert "True" not in text and "False" not in text


def test_preconditions_refuse_large_n_before_enumerating(monkeypatch):
    # At N = 16 the dimension report alone would price all 2^16 profiles.
    def fail(*args):
        raise AssertionError("profile payoffs enumerated before the N cap")

    monkeypatch.setattr(conditions, "all_profile_payoffs", fail)
    spec = GameSpec(16, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
    with pytest.raises(CapacityError, match="capped at N <= 8") as listing:
        profile_array(16)
    for theorem in ("flm", "km"):
        with pytest.raises(CapacityError, match="capped at N <= 8") as exc:
            theorem_preconditions(spec, theorem)
        assert str(exc.value) == str(listing.value)


def test_theorem_name_validated(spec2):
    with pytest.raises(DomainError):
        theorem_preconditions(spec2, "nonsense")


def test_report_text_structure(spec3):
    text = theorem_preconditions(spec3, "flm").to_text()
    assert text.startswith("condition: flm_preconditions")
    assert "holds: true" in text
    assert "- condition: pairwise_full_rank" in text


def _oracle_specs(n):
    gen = np.random.default_rng(100 + n)
    specs = [
        GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9),
        GameSpec(n, LinearGain(3.0), 1.0, 0.5 + 5e-11, 0.5 - 5e-11, 0.9),
        with_private_kernel(
            GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                     monitor_alpha=0.9, monitor_epsilon=0.1),
            0.3, 0.3,
        ),
    ]
    for _ in range(2):
        specs.append(GameSpec(
            n, LinearGain(float(gen.uniform(1.0, 4.0))), float(gen.uniform(0.5, 2.0)),
            float(gen.uniform(0.5, 1.0)), float(gen.uniform(0.0, 0.5)), 0.9,
        ))
    return specs


def _same_bits(got, want):
    # repr tells apart floats that compare equal (0.0 and -0.0) and numpy
    # scalars from Python ones.
    assert got == want and repr(got) == repr(want)


def _bundle_pairs(spec, theorem):
    """((profile, i, j), reports) for every extreme profile and pair, in
    bundle order; the reports are ``theorem``'s pairwise ones for that
    (profile, pair): (C2, C3) for km, (rank,) for flm."""
    ids = ("c2_attributable", "c3_jointly_attributable") if theorem == "km" else ("pairwise_full_rank",)
    reps = [rep for rep in theorem_preconditions(spec, theorem).evidence["checks"]
            if rep.condition_id in ids]
    keys = [(r, i, j) for r in extreme_profiles(spec)
            for i, j in itertools.combinations(range(spec.n_firms), 2)]
    assert len(reps) == len(ids) * len(keys)
    return list(zip(keys, zip(*[iter(reps)] * len(ids))))


@pytest.mark.parametrize("n", range(3, 9))
def test_c1_c3_evidence_matches_marginal_oracle_bitwise(n):
    # Every C2 and C3 report of the km bundle at every N, and the single-pair
    # calls up to N = 5; above that they take up to 0.5 ms each, and the next
    # test shows that they return the bundle's reports.
    for spec in _oracle_specs(n):
        for firm in range(n):
            _same_bits(check_c1(spec, firm).evidence, c1_evidence(spec, firm))
        for (r, i, j), (c2, c3) in _bundle_pairs(spec, "km"):
            want2, want3 = c2_c3_evidence(spec, r, i, j)
            _same_bits(c2.evidence, want2)
            _same_bits(c3.evidence, want3)
            if n <= 5:
                _same_bits(check_c2(spec, r, i, j).evidence, want2)
                _same_bits(check_c3(spec, r, i, j).evidence, want3)


@pytest.mark.parametrize("n", range(3, 7))
def test_single_pair_checks_return_the_bundle_reports(n):
    for spec in _oracle_specs(n):
        for ((r, i, j), want), (_, (rank,)) in zip(_bundle_pairs(spec, "km"),
                                                  _bundle_pairs(spec, "flm")):
            _same_bits(check_c2(spec, r, i, j), want[0])
            _same_bits(check_c3(spec, r, i, j), want[1])
            _same_bits(pairwise_full_rank(spec, r, i, j), rank)


def test_checks_validate_firms_and_profiles(spec3):
    with pytest.raises(DomainError, match="out of range"):
        check_c2(spec3, (1, 1, 1), 0, 3)
    with pytest.raises(DomainError, match="out of range"):
        check_c3(spec3, (1, 1, 1), -1, 2)
    # A firm index is an integer: 1.5 names no firm of a pair.
    with pytest.raises(DomainError, match="out of range"):
        check_c2(spec3, (1, 1, 1), 0, 1.5)
    with pytest.raises(DomainError, match="out of range"):
        check_c3(spec3, (1, 1, 1), 0, 1.5)
    with pytest.raises(DomainError, match="distinct"):
        check_c3(spec3, (1, 1, 1), 1, 1)
    with pytest.raises(DomainError, match="0 or 1"):
        check_c2(spec3, (1, 0.5, 1), 0, 1)
    with pytest.raises(DomainError):
        check_c1(spec3, 3)
    # Firm 0.5 is no firm, so no firm can be minmaxed at it.
    with pytest.raises(DomainError, match="out of range"):
        check_c1(spec3, 0.5)


@pytest.mark.parametrize("check", [pairwise_full_rank, check_c2, check_c3])
def test_pair_checks_share_one_pair_rule(spec3, check):
    # Each firm index is checked before the two are compared: True and 1.0
    # equal 1, but neither is a firm index.
    for i, j in ((True, 1), (1.0, 1), (1, np.True_)):
        with pytest.raises(DomainError, match=r"^pair firm index .* out of range"):
            check(spec3, (1, 1, 1), i, j)
    with pytest.raises(DomainError,
                       match=r"^a pair must be two distinct firms, got firm index 2 twice$"):
        check(spec3, (1, 1, 1), 2, 2)


def test_preconditions_and_rank_run_no_lp(monkeypatch, spec2, spec3):
    def fail(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(geometry, "linprog", fail)
    monkeypatch.setattr(geometry, "point_in_hull", fail)
    spec4 = GameSpec(4, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                     monitor_alpha=0.85, monitor_epsilon=0.2)
    for spec in (spec2, spec3, spec4):
        for theorem in ("flm", "km"):
            theorem_preconditions(spec, theorem).to_text()
        assert all(rep.holds for rep in rank_reports(spec, game.extreme_profiles(spec)))


def test_report_text_prints_numpy_scalars_like_python_ones():
    plain = GameSpec(3, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
    numpy_fields = GameSpec(
        np.int64(3), LinearGain(np.float64(3.0)), np.float64(1.0), np.float64(0.9),
        np.float64(0.1), np.float64(0.9),
    )
    for theorem in ("flm", "km"):
        text = theorem_preconditions(numpy_fields, theorem).to_text()
        assert text == theorem_preconditions(plain, theorem).to_text()
        assert "np." not in text
    text = theorem_preconditions(numpy_fields, "km").to_text()
    assert "alpha: 0.9\n" in text and "full_disclosure_payoff: 5.0\n" in text
    rep = conditions.ConditionReport(
        "scalars", np.bool_(True),
        evidence={"flag": np.bool_(False), "count": np.int64(7), "x": np.float32(0.5),
                  "values": [np.float64(0.25), np.int32(2), np.True_]},
    )
    assert rep.to_text() == (
        "condition: scalars\nholds: true\nevidence:\n  flag: false\n  count: 7\n"
        "  x: 0.5\n  values: [0.25, 2, true]"
    )


def test_report_text_nests_reports_and_mappings():
    inner = conditions.ConditionReport("inner", False, context={"k": {"a": 1}},
                                       evidence={"v": [1, 2]})
    outer = conditions.ConditionReport(
        "outer", True,
        context={"sub": inner, "m": {"deep": {"x": 1.5}}},
        evidence={"checks": [inner, {"a": 1, "b": {"c": "d"}}]},
    )
    assert outer.to_text() == "\n".join([
        "condition: outer",
        "holds: true",
        "context:",
        "  sub:",
        "    condition: inner",
        "    holds: false",
        "    context:",
        "      k:",
        "        a: 1",
        "    evidence:",
        "      v: [1, 2]",
        "  m:",
        "    deep:",
        "      x: 1.5",
        "evidence:",
        "  checks:",
        "    - condition: inner",
        "      holds: false",
        "      context:",
        "        k:",
        "          a: 1",
        "      evidence:",
        "        v: [1, 2]",
        "    - a: 1",
        "      b:",
        "        c: d",
    ])


def test_km_bundle_runs_c3_in_profile_blocks():
    # At N = 8 one C3 pass over every extreme profile peaks near 63 MiB;
    # passes of _PROFILE_BLOCK profiles keep the bundle near 16 MiB.  The
    # spec is test_cli.py's concave8.
    f = (0.0, 1.0, 1.6, 2.0, 2.3, 2.5, 2.65, 2.75, 2.8)
    spec = GameSpec(8, ConcaveGain(2.8, f), 1.05, 0.84, 0.14, 0.92, 0.79, 0.17)
    tracemalloc.start()
    try:
        theorem_preconditions(spec, "km")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
