"""Stage game: payoffs, assumptions, minmax, feasible hull."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from npdshare import (
    AlwaysDisclose,
    ConcaveGain,
    GameSpec,
    LinearGain,
    all_profiles,
    check_assumptions,
    feasible_hull,
    Strategy,
    k_star_formula_linear_n2,
    marginal_excluding,
    minmax,
    monte_carlo,
    profile_payoff,
    run_episode,
    solve_enforceability,
    table2_gamma_bar,
)
from hull_oracle import lp_extreme_profiles

from npdshare.decompose import _profile_table
from npdshare.errors import CapacityError, DomainError
from npdshare.geometry import point_in_hull
from npdshare.game import (
    all_profile_payoffs,
    deviation_payoffs,
    extreme_profiles,
    profile_array,
    validate_accuracy,
    validate_bits,
    validate_count,
    validate_discount,
    validate_firm,
    validate_positive,
    validate_probabilities,
    validate_profile,
    validate_vector,
)
from npdshare.rng import WORDS


def test_linear_gain_values():
    g = LinearGain(3.0)
    assert g.gain(0) == 0.0
    assert g.gain(2) == 6.0


def test_concave_gain_values():
    g = ConcaveGain(2.0, (0.0, 1.0, 1.8, 2.4))
    assert g.gain(0) == 0.0
    assert g.gain(1) == 2.0
    assert abs(g.gain(3) - 4.8) < 1e-15


def test_concave_gain_rejects_bad_shapes():
    with pytest.raises(DomainError):
        ConcaveGain(2.0, (0.1, 1.0))  # f(0) != 0
    with pytest.raises(DomainError):
        ConcaveGain(2.0, (0.0, 1.0, 0.9))  # decreasing
    with pytest.raises(DomainError):
        ConcaveGain(2.0, (0.0, 1.0, 2.5))  # convex increments


def test_payoffs_match_roles(spec2):
    # full disclosure: each gets gain(1) - L = 2
    assert np.allclose(profile_payoff(spec2, (1, 1)), [2.0, 2.0])
    # one-sided: discloser gets -L, free rider gets gain(1)
    assert np.allclose(profile_payoff(spec2, (1, 0)), [-1.0, 3.0])
    assert np.allclose(profile_payoff(spec2, (0, 0)), [0.0, 0.0])


def test_spec_validation():
    with pytest.raises(DomainError):
        GameSpec(1, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)  # need N >= 2
    with pytest.raises(DomainError):
        GameSpec(2, LinearGain(3.0), 0.0, 0.9, 0.1, 0.9)  # loss > 0
    with pytest.raises(DomainError):
        GameSpec(2, LinearGain(3.0), 1.0, 0.4, 0.1, 0.9)  # alpha <= 1/2
    with pytest.raises(DomainError):
        GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.6, 0.9)  # epsilon >= 1/2
    with pytest.raises(DomainError):
        GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, 1.0)  # delta < 1


def test_gains_and_losses_refuse_bools():
    # A bool is a number to numpy, but True is no gain or loss of 1.
    for make in (
        lambda: LinearGain(True),
        lambda: ConcaveGain(np.True_, (0.0, 1.0)),
        lambda: GameSpec(2, LinearGain(3.0), True, 0.9, 0.1, 0.9),
        lambda: table2_gamma_bar(True, 0.9, 0.1, (1.0, 1.0)),
        lambda: k_star_formula_linear_n2(3.0, np.True_, (1.0, 1.0)),
    ):
        with pytest.raises(DomainError, match="must be a finite number > 0, got True"):
            make()


@pytest.mark.parametrize("make, message", [
    (lambda: LinearGain("3"), "linear gain G must be a finite number > 0"),
    (lambda: LinearGain(None), "linear gain G must be a finite number > 0"),
    (lambda: GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, "0.5"), "delta must lie in"),
    (lambda: GameSpec(2, LinearGain(3.0), 1.0, "0.9", 0.1, 0.9), "alpha must be a finite"),
    (lambda: GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9, monitor_alpha="0.9"),
     "monitor_alpha must be a finite"),
    (lambda: validate_vector(["a", 1], 2, "v"), "v entries must be numbers, got 'a' at index 0"),
    (lambda: ConcaveGain(3.0, ("x", 1.0)), "concave gain table entries must be numbers"),
    (lambda: ConcaveGain(3.0, ("0", "1", "1.5")), "concave gain table entries must be numbers"),
    (lambda: LinearGain(10**400), "linear gain G must be a finite number > 0"),
    (lambda: GameSpec(2, LinearGain(3.0), 10**400, 0.9, 0.1, 0.9),
     "loss must be a finite number > 0"),
    (lambda: GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, -10**400), "delta must lie in"),
    (lambda: ConcaveGain(3.0, (0, 1, 10**400)), "concave gain table contains non-finite"),
    (lambda: validate_vector([10**400, 1], 2, "v"), r"v must be finite, got \[inf, 1.0\]"),
], ids=["G-str", "G-None", "delta-str", "alpha-str", "monitor_alpha-str", "vector-str",
        "f-word", "f-digits", "G-10**400", "loss-10**400", "delta--10**400", "f-10**400",
        "vector-10**400"])
def test_validators_refuse_what_is_not_a_real_number(make, message):
    # A string or None is refused with DomainError, not a numpy TypeError
    # or a bare ValueError, and a string of digits is not read as a number.
    # An integer too large for a float reads as infinite, not as an
    # OverflowError or a TypeError.
    with pytest.raises(DomainError, match=message):
        make()


def test_a_finite_integer_past_int64_is_a_number():
    # numpy cannot hold 2**70 as an integer; as a float it is finite.
    spec = GameSpec(2, LinearGain(2**70), 1.0, 0.9, 0.1, 0.9)
    assert spec.stage[0, 1] == 2.0**70
    assert ConcaveGain(3.0, (0, 2**70)).f == (0.0, 2.0**70)
    assert validate_vector([2**70, 1], 2, "v").tolist() == [2.0**70, 1.0]


_SPEC2 = GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)

# Every validator of game, fed one hostile value as a scalar or as the first
# entry of an array.  A bit may be True, so bits take no bool case.
_VALIDATORS = {
    "count": lambda x: validate_count(x, "seed", 0, WORDS),
    "firm": lambda x: validate_firm(_SPEC2, x),
    "positive": lambda x: validate_positive(x, "loss"),
    "accuracy-epsilon": lambda x: validate_accuracy("alpha", 0.9, "epsilon", x),
    "accuracy-alpha": lambda x: validate_accuracy("alpha", x, "epsilon", 0.1),
    "discount": lambda x: validate_discount(x),
    "vector": lambda x: validate_vector([x, 1.0], 2, "v"),
    "vector-array": lambda x: validate_vector(np.array([x, 1.0], dtype=object), 2, "v"),
    "probabilities": lambda x: validate_probabilities((x, 0.5), "p"),
    "bits": lambda x: validate_bits([x, 1], "b"),
    "profile": lambda x: validate_profile(_SPEC2, [x, 1]),
}
_HOSTILE = {"bool": True, "numpy-bool": np.True_, "digits": "1", "nan": float("nan"),
            "inf": float("inf"), "-inf": -float("inf"), "10**400": 10**400,
            "10**5000": 10**5000}


@pytest.mark.parametrize("validator, value", [
    (validator, value) for validator in _VALIDATORS for value in _HOSTILE
    if not (validator in ("bits", "profile") and "bool" in value)
])
def test_every_validator_refuses_every_hostile_entry(validator, value):
    # A DomainError, not a TypeError, an OverflowError or the ValueError of
    # an integer too long to print.
    with pytest.raises(DomainError):
        _VALIDATORS[validator](_HOSTILE[value])


def test_a_refused_value_that_cannot_be_printed_is_described():
    with pytest.raises(DomainError, match="got an integer of 16610 bits$"):
        validate_count(10**5000, "seed", 0, WORDS)
    with pytest.raises(DomainError, match="linear gain G must be a finite number > 0"):
        LinearGain(10**5000)
    with pytest.raises(DomainError, match="seed must lie in"):
        run_episode(_SPEC2, [AlwaysDisclose(), AlwaysDisclose()], 3, 10**5000)


_SPEC3 = GameSpec(3, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)


@pytest.mark.parametrize("call, message", [
    (lambda: validate_profile(_SPEC3, 5), "action profile must be a sequence of 3 bits, got 5"),
    (lambda: profile_payoff(_SPEC3, None),
     "action profile must be a sequence of 3 bits, got None"),
    (lambda: solve_enforceability(_SPEC3, 3, (1, 1, 1)),
     "action profile must be a sequence of 3 bits, got 3"),
    (lambda: marginal_excluding(_SPEC3, (1, 1, 1), 5),
     "excluded must be a sequence of firm indices, got 5"),
    (lambda: run_episode(_SPEC3, 5, 10, 0), "strategies must be a sequence of 3 strategies, got 5"),
    (lambda: monte_carlo(_SPEC3, None, 2, 10, 0),
     "strategies must be a sequence of 3 strategies, got None"),
], ids=["validate_profile", "profile_payoff", "solve_enforceability", "marginal_excluding",
        "run_episode", "monte_carlo"])
def test_arguments_that_cannot_be_iterated_are_refused(call, message):
    # Each raised a bare TypeError: '...' object is not iterable.
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_bits_and_probabilities_keep_their_accepted_sets():
    assert validate_bits([[True, 0.0], [1.0, np.int8(0)]], "b").tolist() == [[1, 0], [1, 0]]
    assert validate_bits(np.array([1, 0], dtype=np.uint8), "b").dtype == np.int64
    p = validate_probabilities((0, 1, 0.25, np.float32(0.5)), "p")
    assert p.dtype == float and p.tolist() == [0.0, 1.0, 0.25, 0.5]
    with pytest.raises(DomainError, match=r"^b entries must be 0 or 1, got 2 at index \(1, 0\)$"):
        validate_bits([[0, 1], [2, 0]], "b")
    with pytest.raises(DomainError, match=r"^p entries must be probabilities in \[0, 1\], "
                                          r"got -0.5 at index 1$"):
        validate_probabilities(np.array([0.5, -0.5]), "p")


@pytest.mark.parametrize("delta", [0, 1, 1.5, -0.5, float("nan"), float("inf"), True, "0.5",
                                   None, 10**400])
def test_validate_discount_refuses_what_is_not_in_0_1(delta):
    with pytest.raises(DomainError, match=r"^d must lie in \(0, 1\), got "):
        validate_discount(delta, "d")


def test_validate_discount_takes_every_real_in_0_1():
    for delta in (0.5, np.float32(0.25), np.float64(1 - 2**-53), 5e-324):
        validate_discount(delta)


def test_monitor_override_is_separate(spec2):
    spec = GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                    monitor_alpha=0.8, monitor_epsilon=0.2)
    assert spec.m_alpha == 0.8 and spec.m_epsilon == 0.2
    assert spec2.m_alpha == spec2.alpha and spec2.m_epsilon == spec2.epsilon


def test_assumptions_hold_when_gain_exceeds_loss(spec2):
    rep = check_assumptions(spec2)
    assert rep.a1_holds and rep.a2_holds and rep.a2prime_holds
    assert "a1_concealing_dominant: true" in rep.to_text()


def test_assumptions_fail_when_loss_dominates():
    # L > G(N-1): even full disclosure pays less than the minmax point
    spec = GameSpec(2, LinearGain(3.0), 4.0, 0.9, 0.1, 0.9)
    rep = check_assumptions(spec)
    assert rep.a1_holds
    assert not rep.a2_holds
    assert rep.witnesses["a2_full_disclosure_payoff"] == [-1.0]


def test_minmax_is_all_conceal_at_zero(spec2, spec3):
    for spec in (spec2, spec3):
        for i in range(spec.n_firms):
            mm = minmax(spec, i)
            assert mm.value == 0.0
            assert mm.profile == (0,) * spec.n_firms


@pytest.mark.parametrize("firm", [1.5, True])
def test_minmax_rejects_firms_that_are_not_indices(spec3, firm):
    with pytest.raises(DomainError, match="out of range"):
        minmax(spec3, firm)


def test_feasible_hull_square(spec2):
    hull = feasible_hull(spec2, clip_to_ir=True)
    poly = np.asarray(hull.vertices, dtype=float)
    verts = set(map(tuple, np.round(poly, 12)))
    assert (0.0, 0.0) in verts and (2.0, 2.0) in verts
    assert any(abs(v[0] - 8.0 / 3.0) < 1e-9 and abs(v[1]) < 1e-9 for v in verts)
    assert not hull.degenerate
    assert point_in_hull((1.0, 1.0), poly)
    assert not point_in_hull((3.0, 3.0), poly)


def test_collinear_two_firm_hull_is_a_segment_and_clips_to_a_point():
    # G = L puts every payoff on v_1 + v_2 = 0.  Clipped to v >= 0 the
    # segment leaves only the origin, which the clip emits once per axis
    # crossing; the hull keeps it once.
    spec = GameSpec(2, LinearGain(1.0), 1.0, 0.9, 0.1, 0.9)
    hull = feasible_hull(spec)
    assert hull.vertices == ((-1.0, 1.0), (1.0, -1.0)) and hull.degenerate
    clipped = feasible_hull(spec, clip_to_ir=True)
    assert clipped.vertices == ((0.0, 0.0),) and clipped.degenerate


def test_all_profiles_count():
    assert len(list(all_profiles(4))) == 16


@given(
    g=st.floats(min_value=0.5, max_value=10, allow_nan=False),
    loss=st.floats(min_value=0.01, max_value=5, allow_nan=False),
    n=st.integers(min_value=2, max_value=5),
)
def test_concealing_always_dominant_pointwise(g, loss, n):
    # with any positive loss, concealing strictly beats disclosing against
    # every configuration of the others (the gain term cancels)
    spec = GameSpec(n, LinearGain(g), loss, 0.9, 0.1, 0.9)
    for r in all_profiles(n):
        pay = profile_payoff(spec, r)
        for i in range(n):
            flipped = list(r)
            flipped[i] = 1 - flipped[i]
            other = profile_payoff(spec, flipped)
            if r[i] == 1:
                assert other[i] > pay[i]
            else:
                assert pay[i] > other[i]


@given(st.integers(min_value=2, max_value=6))
def test_full_disclosure_maximizes_welfare(n):
    spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
    welfare = {r: profile_payoff(spec, r).sum() for r in all_profiles(n)}
    assert max(welfare, key=welfare.get) == (1,) * n


# ---------------------------------------------------------------------------
# the stage table against the role-by-role oracle


def _oracle_payoff(spec, profile):
    """Firm i gets disclose_payoff(x) if it discloses, else conceal_payoff(x),
    with x the number of disclosers in the profile."""
    x = sum(profile)
    return np.array(
        [spec.disclose_payoff(x) if a else spec.conceal_payoff(x) for a in profile]
    )


def _stage_specs():
    for n in range(2, 9):
        yield GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
        f = tuple(2.0 * (1.0 - 2.0**-z) for z in range(n))
        yield GameSpec(n, ConcaveGain(1.7, f), 0.6, 0.8, 0.2, 0.95)


class _CountingStrategy(Strategy):
    """Plays bit ``firm`` of the period index, so 2^N periods visit every
    profile."""

    def next_action(self, public_history, private_history):
        return (len(public_history) >> self.firm) & 1


def test_stage_table_matches_role_oracle_bitwise():
    for spec in _stage_specs():
        n = spec.n_firms
        oracle = np.array([_oracle_payoff(spec, r) for r in all_profiles(n)])
        got = np.array([profile_payoff(spec, r) for r in all_profiles(n)])
        assert np.array_equal(got, oracle), n
        assert np.array_equal(all_profile_payoffs(spec), oracle), n
        for r in all_profiles(n):
            table = _profile_table(spec, r)
            assert np.array_equal(table.u_r, _oracle_payoff(spec, r)), (n, r)
            dev = [_oracle_payoff(spec, r[:i] + (1 - r[i],) + r[i + 1 :])[i] for i in range(n)]
            assert np.array_equal(table.u_dev, dev), (n, r)
        trace = run_episode(spec, [_CountingStrategy() for _ in range(n)], 2**n, seed=3)
        want = np.array([_oracle_payoff(spec, tuple(a)) for a in trace.actions])
        assert np.array_equal(trace.payoffs, want), n


def test_deviation_payoffs_match_role_payoffs_one_scalar_at_a_time():
    """Firm i deviating alone from r earns conceal_payoff(x - 1) if it
    discloses at r and disclose_payoff(x + 1) if it conceals, x = sum(r):
    for one profile and for all 2^N profiles at once."""
    for spec in _stage_specs():
        n = spec.n_firms
        batched = deviation_payoffs(spec, profile_array(n))
        for row, r in zip(batched.tolist(), all_profiles(n)):
            x = sum(r)
            want = [
                spec.conceal_payoff(x - 1) if a else spec.disclose_payoff(x + 1) for a in r
            ]
            assert deviation_payoffs(spec, np.array(r)).tolist() == want, (n, r)
            assert row == want, (n, r)


def test_profile_array_lists_every_profile_once_read_only():
    for n in range(2, 9):
        profiles = profile_array(n)
        assert profiles is profile_array(n)  # built once per N
        assert profiles.dtype == np.int64 and profiles.shape == (2**n, n)
        assert [tuple(r) for r in profiles.tolist()] == list(all_profiles(n))
        with pytest.raises(ValueError):
            profiles[0, 0] = 1


def test_stage_table_is_read_only_with_nan_roles():
    for spec in _stage_specs():
        n = spec.n_firms
        stage = spec.stage
        assert stage.shape == (2, n + 1)
        assert not stage.flags.writeable
        with pytest.raises(ValueError):
            stage[0, 0] = 1.0
        nan = np.zeros((2, n + 1), dtype=bool)
        nan[0, n] = nan[1, 0] = True
        assert np.array_equal(np.isnan(stage), nan)
        assert spec.max_abs_payoff() == max(
            abs(v) for r in all_profiles(n) for v in _oracle_payoff(spec, r)
        )


def test_stage_table_follows_the_parameters(spec3):
    assert spec3.stage is spec3.stage  # built once per spec
    before = spec3.stage.copy()
    heavier = replace(spec3, loss=2.5)
    assert heavier.stage is not spec3.stage
    assert np.array_equal(heavier.stage[1, 1:], before[1, 1:] - 1.5)
    assert np.array_equal(heavier.stage[0, :3], before[0, :3])
    assert np.array_equal(spec3.stage, before, equal_nan=True)
    # The table is not a field: equality and hashing see the parameters only.
    same = replace(spec3)
    assert same == spec3 and hash(same) == hash(spec3)
    assert heavier != spec3


def _oracle_assumptions(spec):
    """A1, A2 and A2' read off the role payoffs count by count."""
    n = spec.n_firms
    a1_bad = [
        x for x in range(1, n + 1)
        if not spec.conceal_payoff(x - 1) - spec.disclose_payoff(x) > 1e-12
    ]
    welfare = []
    for x in range(n + 1):
        total = 0.0
        if x > 0:
            total += x * spec.disclose_payoff(x)
        if x < n:
            total += (n - x) * spec.conceal_payoff(x)
        welfare.append(total)
    a2p_bad = [x for x in range(1, n + 1) if not welfare[x] - welfare[x - 1] > 1e-12]
    return a1_bad, spec.disclose_payoff(n) > 1e-12, a2p_bad


def test_assumptions_match_role_oracle():
    specs = list(_stage_specs()) + [
        GameSpec(3, LinearGain(1.0), 2.5, 0.9, 0.1, 0.9),  # A2 fails
        GameSpec(4, ConcaveGain(1.0, (0.0, 1.0, 1.0, 1.0)), 0.5, 0.9, 0.1, 0.9),  # A2' fails
    ]
    seen_a2p_failure = False
    for spec in specs:
        a1_bad, a2, a2p_bad = _oracle_assumptions(spec)
        rep = check_assumptions(spec)
        assert rep.a1_holds == (not a1_bad) and rep.witnesses.get("a1_failing_x", []) == a1_bad
        assert rep.a2_holds == a2
        assert rep.a2prime_holds == (not a2p_bad)
        assert rep.witnesses.get("a2prime_failing_x", []) == a2p_bad
        seen_a2p_failure |= bool(a2p_bad)
        assert minmax(spec, 0).value == max(spec.conceal_payoff(0), spec.disclose_payoff(1))
    assert seen_a2p_failure


def test_profiles_refuse_fractional_entries(spec2):
    for bad in ((0.5, 1), (1, 1.7), (1.0, -1.0), (float("nan"), 0), (2, 0)):
        with pytest.raises(DomainError, match="0 or 1"):
            validate_profile(spec2, bad)
    with pytest.raises(DomainError, match="0 or 1"):
        profile_payoff(spec2, [1.7, 0])
    for good in ((1.0, 0.0), (True, False), np.array([1, 0], dtype=np.int8)):
        r = validate_profile(spec2, good)
        assert r.dtype == np.int64 and r.tolist() == [1, 0]


def _hull_specs(n, gen):
    """Random linear and concave games, and tie-heavy ones: integer G and L,
    and concave f whose increments are each the last one times 0 or 1."""
    specs = []
    for _ in range(2):
        specs.append(GameSpec(n, LinearGain(float(gen.uniform(0.2, 4.0))),
                              float(gen.uniform(0.2, 4.0)), 0.9, 0.1, 0.9))
        specs.append(GameSpec(n, LinearGain(float(gen.integers(1, 5))),
                              float(gen.integers(1, 5)), 0.9, 0.1, 0.9))
        for ratios in (gen.uniform(0.4, 1.0, n), gen.integers(0, 2, n).astype(float)):
            f, step = [0.0], float(gen.integers(1, 4))
            for ratio in ratios[: n - 1]:
                f.append(f[-1] + step)
                step *= ratio
            specs.append(GameSpec(n, ConcaveGain(float(gen.integers(1, 5)), tuple(f)),
                                  float(gen.integers(1, 5)), 0.9, 0.1, 0.9))
    return specs


@pytest.mark.parametrize("n", range(2, 9))
def test_extreme_profiles_match_lp_oracle(n):
    gen = np.random.default_rng(n)
    interior = 0
    for spec in _hull_specs(n, gen):
        got = extreme_profiles(spec)
        want = lp_extreme_profiles(spec)
        assert got == want, spec
        interior += len(got) < 2**n
        if n > 2:
            # The hull's vertices are the distinct extreme payoffs, sorted.
            payoffs = np.unique([profile_payoff(spec, r) for r in want], axis=0)
            assert feasible_hull(spec).vertices == tuple(map(tuple, payoffs.tolist()))
    # Some discloser count is inside the hull, so the test is not vacuous.
    assert n == 2 or interior > 0


def test_extreme_profiles_cap_raises_before_enumerating(monkeypatch):
    # Every entry point that lists the 2^N profiles raises profile_array's
    # one message, before it lists or tests anything.
    monkeypatch.setattr("npdshare.game.all_profiles", None)
    monkeypatch.setattr("npdshare.geometry.in_convex_hull_2d_exact", None)
    spec = GameSpec(9, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
    with pytest.raises(CapacityError, match="capped at N <= 8"):
        extreme_profiles(spec)
    with pytest.raises(CapacityError, match="capped at N <= 8") as listing:
        profile_array(9)
    for call in (
        lambda: extreme_profiles(spec), lambda: feasible_hull(spec),
        lambda: feasible_hull(spec, clip_to_ir=True), lambda: all_profile_payoffs(spec),
    ):
        with pytest.raises(CapacityError) as exc:
            call()
        assert str(exc.value) == str(listing.value)


def test_extreme_profiles_class_filter_is_1e_12():
    # A class of payoffs within 1e-12 of p in every role it has is not
    # "other", so it cannot make p interior.  Here each count-2 payoff is
    # about 1e-11 from count 3's, which lies inside their hull with the
    # origin: a 1e-9 filter would drop them and call count 3 extreme.
    def counts(loss, f):
        spec = GameSpec(3, ConcaveGain(1.5, f), loss, 0.9, 0.1, 0.9)
        return {sum(r) for r in extreme_profiles(spec)}

    assert counts(1e-11, (0.0, 0.5, 0.5000000000001)) == {0, 1, 2}
    # Here each count-2 payoff is within 5e-13 of count 3's, so the filter
    # drops them and count 3 is a vertex: a filter of 0 would keep them.
    assert counts(5e-13, (0.0, 0.5, 0.5)) == {0, 1, 2, 3}


def test_feasible_hull_runs_no_lp(monkeypatch):
    from npdshare import geometry

    def fail(*args, **kwargs):
        raise AssertionError("feasible_hull ran an LP")

    monkeypatch.setattr(geometry, "linprog", fail)
    f = tuple(2.0 * (1.0 - 2.0**-z) for z in range(8))
    linear = feasible_hull(GameSpec(8, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9))
    concave = feasible_hull(GameSpec(8, ConcaveGain(3.0, f), 1.0, 0.9, 0.1, 0.9))
    assert (len(linear.vertices), len(concave.vertices)) == (256, 255)
    assert not linear.degenerate and not concave.degenerate


def test_feasible_hull_clips_only_two_firms(monkeypatch, spec3):
    # The exact clip is a polygon clip; above two firms it raises before any
    # profile is enumerated.
    monkeypatch.setattr("npdshare.game.extreme_profiles", None)
    with pytest.raises(DomainError, match="only for two firms"):
        feasible_hull(spec3, clip_to_ir=True)


def test_feasible_hull_leaves_scipy_unloaded():
    # The hull runs no LP at any N, so scipy, and scipy.spatial with it, is
    # never imported.
    code = (
        "import sys\n"
        "from npdshare import ConcaveGain, GameSpec, LinearGain, feasible_hull\n"
        "for n in range(2, 9):\n"
        "    f = tuple(2.0 * (1.0 - 2.0**-z) for z in range(n))\n"
        "    for gain in (LinearGain(3.0), ConcaveGain(1.7, f)):\n"
        "        feasible_hull(GameSpec(n, gain, 0.6, 0.8, 0.2, 0.95))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
