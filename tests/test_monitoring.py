"""Signal kernels, distributions, factored marginals, and the draw layout."""

from fractions import Fraction

import numpy as np
import pytest
from condition_oracle import scalar_displacement_moments
from hypothesis import given, settings, strategies as st

from npdshare import (
    AlwaysConceal,
    AlwaysDisclose,
    FactoredBernoulli,
    GameSpec,
    LinearGain,
    cross_observation_reduction,
    marginal_excluding,
    private_joint_distribution,
    public_signal_distribution,
    run_episode,
)
from npdshare import rng
from npdshare.errors import DomainError
from npdshare.monitoring import (
    displacement_moments,
    public_profile_distribution_raw,
    signal_kernel,
    signal_streams,
)

DIST_TOL = 1e-12


def test_signal_kernel_by_mode_and_action():
    spec = GameSpec(3, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                    monitor_alpha=0.8, monitor_epsilon=0.2)
    # index 0: the observed firm conceals, 1: it discloses
    assert signal_kernel(spec, "public").tolist() == [0.8, 0.2]
    assert signal_kernel(spec, "private").tolist() == [0.9, 0.1]


def test_signal_streams_layout():
    pub = signal_streams(3, "public")
    assert pub.domain == rng.DOMAIN_PUBLIC
    assert pub.slot.tolist() == [0, 1, 2]
    assert pub.observed.tolist() == [0, 1, 2]
    assert pub.observer.tolist() == [-1, -1, -1]
    priv = signal_streams(3, "private")
    assert priv.domain == rng.DOMAIN_PRIVATE
    assert priv.observer.tolist() == [0, 0, 1, 1, 2, 2]
    assert priv.observed.tolist() == [1, 2, 0, 2, 0, 1]
    assert priv.slot.tolist() == [1, 2, 3, 5, 6, 7]  # observer * 3 + observed
    with pytest.raises(DomainError):
        signal_streams(3, "broadcast")


def test_public_distribution_full_disclosure(spec2):
    d = public_signal_distribution(spec2, (1, 1))
    assert np.allclose(d.probs, [0.01, 0.09, 0.09, 0.81], atol=1e-15)
    assert d.full_support


def test_public_distribution_all_conceal(spec2):
    d = public_signal_distribution(spec2, (0, 0))
    assert np.allclose(d.probs, [0.81, 0.09, 0.09, 0.01], atol=1e-15)


def test_public_distribution_one_sided(spec2):
    # firm 1 discloses, firm 2 conceals: P(b1=1)=0.9, P(b2=0)=0.9
    d = public_signal_distribution(spec2, (1, 0))
    assert np.allclose(d.probs, [0.09, 0.81, 0.01, 0.09], atol=1e-15)


def test_distribution_normalization_tight(spec3):
    for r in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        probs = public_signal_distribution(spec3, r).probs
        assert abs(probs.sum() - 1.0) <= DIST_TOL


def test_raw_distribution_allows_degenerate_kernel():
    # alpha == epsilon makes the signal uninformative but is still a measure
    p = public_profile_distribution_raw((1, 0), 0.3, 0.3)
    assert abs(p.sum() - 1.0) <= DIST_TOL
    assert np.allclose(p, [0.09, 0.21, 0.21, 0.49])


@pytest.mark.parametrize("actions", [[-1, 0], [0.7, 1], [1, 2], [True, 0.5]])
def test_raw_distribution_refuses_actions_other_than_zero_and_one(actions):
    # -1 would index the disclosure row and 0.7 would truncate to 0.
    with pytest.raises(DomainError, match="must be 0 or 1"):
        public_profile_distribution_raw(actions, 0.9, 0.1)
    assert public_profile_distribution_raw([1.0, 0.0], 0.9, 0.1).tobytes() == (
        public_profile_distribution_raw([1, 0], 0.9, 0.1).tobytes()
    )


def _kron_chain(p_zero):
    probs = np.array([1.0])
    for p0 in reversed(p_zero):
        probs = np.kron(probs, np.array([p0, 1.0 - p0]))
    return probs


def test_expansions_match_kron_chain_bitwise():
    gen = np.random.default_rng(2024)
    for n in range(1, 9):
        for _ in range(25):
            alpha, epsilon = gen.uniform(0.0, 1.0, size=2)
            actions = gen.integers(0, 2, size=n)
            want = _kron_chain([epsilon if a == 1 else alpha for a in actions])
            got = public_profile_distribution_raw(actions, alpha, epsilon)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, actions)
            p_zero = gen.uniform(0.0, 1.0, size=n)
            fb = FactoredBernoulli(labels=tuple((0, k) for k in range(n)), p_zero=p_zero)
            dense = fb.dense()
            assert np.array_equal(dense.view(np.uint64), _kron_chain(p_zero).view(np.uint64))


def test_factored_dense_agrees_with_kron(spec3):
    fb = private_joint_distribution(spec3, (1, 0, 1))
    dense = fb.dense()
    assert dense.shape == (2 ** fb.n_bits,)
    assert abs(dense.sum() - 1.0) <= DIST_TOL
    # <P, P> of a product measure factors bit by bit
    assert abs(displacement_moments(fb.p_zero, fb.p_zero)[0] - float((dense**2).sum())) < 1e-14


def test_factored_l2_and_sup_consistent(spec3):
    p = marginal_excluding(spec3, (1, 1, 1), excluded=(0,))
    q = marginal_excluding(spec3, (0, 1, 1), excluded=(0,))
    dp, dq = p.dense(), q.dense()
    assert abs(p.l2_diff(q) - float(np.linalg.norm(dp - dq))) < 1e-12
    assert abs(p.sup_diff(q) - float(np.max(np.abs(dp - dq)))) < 1e-15


def test_l2_diff_keeps_small_displacements():
    # Bits moved by 1e-9 and by 0.3, in both directions, among unmoved ones:
    # the norm keeps its relative precision where the difference of
    # <P, P> - 2 <P, Q> + <Q, Q> would lose it to cancellation.
    gen = np.random.default_rng(5)
    for n in range(1, 9):
        for shift in (1e-9, 0.3):
            a = gen.uniform(0.35, 0.65, size=n)
            b = np.where(gen.integers(0, 3, size=n) == 0, a, a + gen.choice([-shift, shift], size=n))
            labels = tuple((0, k) for k in range(n))
            p, q = (FactoredBernoulli(labels=labels, p_zero=x) for x in (a, b))
            exact_p, exact_q = [Fraction(1)], [Fraction(1)]
            for x, y in zip(map(Fraction, a.tolist()), map(Fraction, b.tolist())):
                exact_p = [u * v for v in (x, 1 - x) for u in exact_p]
                exact_q = [u * v for v in (y, 1 - y) for u in exact_q]
            want = float(sum((u - v) ** 2 for u, v in zip(exact_q, exact_p)))
            assert p.l2_diff(q) == pytest.approx(want**0.5, rel=1e-13, abs=0.0), (n, shift)


def test_displacement_moments_rows_match_scalar_loop_bitwise():
    # Each row of a stacked block is the scalar recurrence over its own bits:
    # random rows, rows moved by 1e-12, equal rows (Q = P), and a one-bit
    # block, whose rows are single bits.
    gen = np.random.default_rng(11)
    for m, width in ((7, 12), (5, 42), (6, 1)):
        a = gen.uniform(0.0, 1.0, size=(m, width))
        b = gen.uniform(0.0, 1.0, size=(m, width))
        b[1] = a[1] + gen.choice([-1e-12, 1e-12], size=width)
        b[2] = a[2]
        b[3, ::2] = a[3, ::2]
        got = displacement_moments(a, b)
        assert all(x.shape == (m,) for x in got)
        for k in range(m):
            row = tuple(float(x[k]) for x in got)
            want = scalar_displacement_moments(a[k], b[k])
            assert row == want and repr(row) == repr(want), (width, k)
        assert got[2][2] == 0.0
        # More leading axes stack the same rows.
        stacked = displacement_moments(np.stack((a, b)), np.stack((b, a)))
        for x, y, z in zip(stacked, got, displacement_moments(b, a)):
            assert np.array_equal(x.view(np.uint64), np.stack((y, z)).view(np.uint64))
    with pytest.raises(DomainError):
        displacement_moments(np.zeros((2, 3)), np.zeros((3, 2)))


def test_marginal_excluding_drops_only_holdings(spec3):
    fb = marginal_excluding(spec3, (1, 1, 1), excluded=(2,))
    # firms 0 and 1 remain observers; each still observes firm 2
    assert fb.labels == ((0, 1), (0, 2), (1, 0), (1, 2))


def test_cross_observation_reduction_equals_kernel(spec3):
    d = cross_observation_reduction(spec3, (1, 1, 0), observed=2)
    assert np.allclose(d.probs, [0.9, 0.1])  # firm 2 conceals: P(0)=alpha
    d2 = cross_observation_reduction(spec3, (1, 1, 0), observed=0, exclude_observer=1)
    assert np.allclose(d2.probs, [0.1, 0.9])


def _played_signals(spec, profile, seed, periods, mode="public"):
    """The signals ``run_episode`` draws while ``profile`` is played."""
    strategies = [AlwaysDisclose() if a else AlwaysConceal() for a in profile]
    trace = run_episode(spec, strategies, periods, seed, mode=mode)
    return trace.public_signals if mode == "public" else trace.private_signals


def test_sampling_frequencies_within_3_sigma(spec2):
    n_draws = 100_000
    probs = public_signal_distribution(spec2, (1, 1)).probs
    idx = _played_signals(spec2, (1, 1), seed=2024, periods=n_draws)
    counts = np.bincount(idx, minlength=4)
    for b in range(4):
        expected = n_draws * probs[b]
        sigma = np.sqrt(n_draws * probs[b] * (1 - probs[b]))
        assert abs(counts[b] - expected) < 3 * sigma, (b, counts[b], expected)


def test_private_bits_match_kernel_rates(spec3):
    sig = _played_signals(spec3, (1, 0, 1), seed=9, periods=20_000, mode="private")
    # column j holds everyone's reading of firm j
    for j, action in enumerate((1, 0, 1)):
        p_one = 1.0 - signal_kernel(spec3, "private")[action]
        obs = [sig[:, i, j] for i in range(3) if i != j]
        for col in obs:
            rate = float(np.mean(col))
            sigma = np.sqrt(p_one * (1 - p_one) / len(col))
            assert abs(rate - p_one) < 4 * sigma


@settings(max_examples=25)
@given(
    alpha=st.floats(min_value=0.55, max_value=0.95),
    epsilon=st.floats(min_value=0.05, max_value=0.45),
    n=st.integers(min_value=2, max_value=5),
    bits=st.integers(min_value=0, max_value=31),
)
def test_distribution_always_normalized(alpha, epsilon, n, bits):
    spec = GameSpec(n, LinearGain(3.0), 1.0, alpha, epsilon, 0.9)
    r = tuple((bits >> j) & 1 for j in range(n))
    probs = public_signal_distribution(spec, r).probs
    assert abs(probs.sum() - 1.0) <= DIST_TOL
    assert np.all(probs > 0)
