"""Imperfect monitoring: signal kernels, distributions, marginals, draw layout.

Each firm's action is observed through a binary kernel: a disclosure is read
as "0" (looks like concealment) with probability epsilon < 1/2, a concealment
is read as "0" with probability alpha > 1/2.  Under public monitoring one
monitor draws one bit per firm and everyone sees the resulting N-bit vector;
under private monitoring every firm draws its own independent bit about every
other firm.  ``signal_kernel`` gives P(bit = 0) by action for either.

Signal indexing convention: an N-bit public signal b = (b_1, ..., b_N) maps
to index sum_j b_j * 2**(j-1), i.e. firm 1 occupies the least significant
bit, so the index order enumerates (0,...,0), (1,0,...,0), (0,1,0,...), ...
Dense expansions of private-signal spaces use the same convention over their
listed bit order.

Draw layout (``signal_streams``): each bit has its own rng counter stream
(seed, domain, slot, replica).  Public bit j, the monitor's reading of firm
j, is drawn in ``rng.DOMAIN_PUBLIC`` from slot j.  Private bits run over
(observer i, observed j), i != j, observer-major; firm i's bit about firm j
is drawn in ``rng.DOMAIN_PRIVATE`` from slot i * N + j.  A bit is 1 when its
uniform is at least its P(bit = 0).  The engine and the promise kernel,
which draw every bit the package plays, and the trace CSV read this layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import CapacityError, DomainError
from .game import GameSpec, validate_profile

DIST_TOL = 1e-12  # distributions must sum to 1 within this
DENSE_CAP_BITS = 20  # dense expansion capped at 2**20 outcomes

MODE_PUBLIC = "public"
MODE_PRIVATE = "private"


def _p_zero_by_action(alpha: float, epsilon: float) -> np.ndarray:
    """P(bit = 0) by the observed firm's action: concealment 0, disclosure 1."""
    return np.array([alpha, epsilon], dtype=float)


def signal_kernel(spec: GameSpec, mode: str) -> np.ndarray:
    """P(bit = 0) of ``mode``'s bits, indexed by the observed firm's action.

    Public bits use the monitor's kernel (m_alpha, m_epsilon), private
    cross-observations the firms' own (alpha, epsilon).
    """
    if mode == MODE_PUBLIC:
        return _p_zero_by_action(spec.m_alpha, spec.m_epsilon)
    return _p_zero_by_action(spec.alpha, spec.epsilon)


@dataclass(frozen=True)
class SignalStreams:
    """Where each monitoring bit of a period is drawn, one entry per bit.

    Bit k is ``observer[k]``'s reading of firm ``observed[k]`` (observer -1
    is the public monitor), drawn from the counter stream (seed, ``domain``,
    ``slot[k]``, replica).
    """

    domain: int
    slot: np.ndarray
    observer: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        for a in (self.slot, self.observer, self.observed):
            a.flags.writeable = False  # every caller shares the cached layout

    def uniforms(self, seed: int, start: int, count: int, replicas) -> np.ndarray:
        """Periods start ... start + count - 1 of every bit's stream for each
        of ``replicas``: float64 of shape (count, bits, len(replicas)).

        ``seed`` is a word of the rng key and each replica a word of the
        counter, so each must lie in [0, 2**64).  Every draw path checks
        them here.
        """
        replicas = np.atleast_1d(replicas)
        if not 0 <= int(seed) < 2**64:
            raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
        bad = replicas[(replicas < 0) | (replicas >= 2**64)]
        if bad.size:
            raise DomainError(f"replica must lie in [0, 2**64), got {bad[0]}")
        m = self.slot.size
        u = rng.uniforms(
            seed, self.domain, start, count,
            np.repeat(self.slot, replicas.size), np.tile(replicas, m),
        )
        return u.reshape(count, m, replicas.size)


@functools.lru_cache(maxsize=32)
def signal_streams(n: int, mode: str) -> SignalStreams:
    """The draw layout of one period's bits among ``n`` firms (module doc)."""
    if mode == MODE_PUBLIC:
        observed = np.arange(n)
        return SignalStreams(rng.DOMAIN_PUBLIC, observed, np.full(n, -1), observed)
    if mode == MODE_PRIVATE:
        observer, observed = np.nonzero(~np.eye(n, dtype=bool))
        return SignalStreams(rng.DOMAIN_PRIVATE, observer * n + observed, observer, observed)
    raise DomainError(f"mode must be '{MODE_PUBLIC}' or '{MODE_PRIVATE}', got {mode!r}")


@functools.lru_cache(maxsize=256)
def _held_private_bits(n: int, excluded: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(observer, observed) of the private bits held by the firms outside
    the sorted ``excluded`` among ``n`` firms, in layout order: read-only
    arrays cached per (n, excluded firms) and shared by every caller."""
    streams = signal_streams(n, MODE_PRIVATE)
    held = ~np.isin(streams.observer, excluded)
    out = streams.observer[held], streams.observed[held]
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class SignalDistribution:
    """Distribution over the 2**n_bits outcomes of an n-bit signal."""

    probs: np.ndarray
    n_bits: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.shape != (2**self.n_bits,):
            raise DomainError(
                f"distribution over {self.n_bits} bits needs {2**self.n_bits} "
                f"entries, got shape {p.shape}"
            )
        if abs(float(p.sum()) - 1.0) > DIST_TOL:
            raise DomainError(
                f"signal probabilities sum to {p.sum()!r}, off by more than {DIST_TOL}"
            )
        if np.any(p < 0):
            raise DomainError("signal probabilities must be nonnegative")

    @property
    def full_support(self) -> bool:
        return bool(np.all(self.probs > 0))


def _product_expansion(p_zero: np.ndarray) -> np.ndarray:
    """Outcome table of independent bits, bit 0 least significant.

    Equal bit for bit to the kron chain over (p0, 1 - p0) pairs from the
    last bit to the first: each outer-product entry is the same product,
    taken in the same order.
    """
    probs = np.array([1.0])
    for k in range(len(p_zero) - 1, -1, -1):
        probs = (probs[:, None] * np.array([p_zero[k], 1.0 - p_zero[k]])).ravel()
    return probs


def public_profile_distribution_raw(
    actions, alpha: float, epsilon: float
) -> np.ndarray:
    """Probability vector over public signals for raw kernel parameters.

    No range validation beyond [0, 1]: diagnostics and tests use this to
    probe degenerate kernels (e.g. alpha == epsilon).  Spec-level callers go
    through :func:`public_signal_distribution`.  Entries other than 0 and 1
    are refused before the cast, as in ``validate_profile``.
    """
    raw = np.asarray(actions)
    if not set(raw.ravel().tolist()) <= {0, 1}:
        raise DomainError(f"action profile entries must be 0 or 1, got {raw.tolist()}")
    actions = raw.astype(np.int64, copy=False)
    if not (0 <= epsilon <= 1 and 0 <= alpha <= 1):
        raise DomainError("kernel probabilities must lie in [0, 1]")
    # firm 1 varies fastest (least significant bit)
    return _product_expansion(_p_zero_by_action(alpha, epsilon)[actions])


def public_signal_distribution(spec: GameSpec, profile) -> SignalDistribution:
    """Distribution of the public monitor's N-bit signal given a pure profile."""
    r = validate_profile(spec, profile)
    probs = public_profile_distribution_raw(r, spec.m_alpha, spec.m_epsilon)
    return SignalDistribution(probs=probs, n_bits=spec.n_firms)


# ---------------------------------------------------------------------------
# private monitoring: factorized product-Bernoulli representations


def displacement_moments(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<P, P>, <Q - P, P>, ||Q - P||^2) over the joint outcomes of the
    product measures P and Q whose bits have P(bit = 0) ``a`` and ``b``.

    ``a`` and ``b`` hold one measure per row, bits along the last axis; the
    moments come back as arrays of the leading shape (0-d for one row).
    They are accumulated one bit (column) at a time for every row at once.
    A bit with laws x = (a_k, 1 - a_k) under P and y = (b_k, 1 - b_k) under
    Q extends Q - P to (Q - P) (x) y + P (x) (y - x), and with
    d = b_k - a_k the new terms are <y - x, x> = d (2 a_k - 1),
    <y, y - x> = d (2 b_k - 1) and ||y - x||^2 = 2 d^2.  No difference of
    two nearly equal products is formed, so a small displacement keeps its
    relative precision.  Each row is the same sequence of elementwise
    operations, in the same order, as the scalar loop over that row's bits,
    so it is equal to it bit for bit.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DomainError(f"bit arrays must have one equal shape, got {a.shape} and {b.shape}")
    rows = a.shape[:-1]
    # After the transpose bit k is row k of a, b and d, and pp[k], dp[k] are
    # the moments before it.  The scalar loop's update at bit k is
    #   dd = dd * (b b + (1 - b)(1 - b)) + 2 dp d (2 b - 1) + 2 pp d d
    #   dp = dp * (a b + (1 - a)(1 - b)) + pp d (2 a - 1)
    #   pp = pp * (a a + (1 - a)(1 - a))
    # <P, P> is a running product (multiply.accumulate multiplies in the
    # same order), so every term but the two running sums is formed for all
    # bits at once; each is the loop's own subexpression, and no rounding
    # changes.
    a = np.ascontiguousarray(a.reshape(math.prod(rows), a.shape[-1]).T)
    b = np.ascontiguousarray(b.reshape(math.prod(rows), b.shape[-1]).T)
    d = b - a
    pp = np.multiply.accumulate(
        np.concatenate((np.ones((1, a.shape[1])), a * a + (1 - a) * (1 - a)))
    )
    dp = np.zeros_like(pp)
    dp_keep, dp_add = a * b + (1 - a) * (1 - b), pp[:-1] * d * (2 * a - 1)
    for k in range(len(a)):
        dp[k + 1] = dp[k] * dp_keep[k] + dp_add[k]
    dd_keep = b * b + (1 - b) * (1 - b)
    dd_add, dd_add2 = 2 * dp[:-1] * d * (2 * b - 1), 2 * pp[:-1] * d * d
    dd = np.zeros(a.shape[1])
    for k in range(len(a)):
        dd = dd * dd_keep[k] + dd_add[k] + dd_add2[k]
    return pp[-1].reshape(rows), dp[-1].reshape(rows), dd.reshape(rows)


@dataclass(frozen=True)
class FactoredBernoulli:
    """Product distribution of labelled independent bits.

    ``labels`` lists (observer, observed) pairs in a fixed order; ``p_zero``
    gives P(bit = 0) for each.  Two such measures on the same labels are
    equal exactly when their ``p_zero`` vectors are, and ``l2_diff`` is
    accumulated from the per-bit differences (``displacement_moments``), so
    comparisons and geometry tests stay exact without enumerating the joint
    space.  ``dense`` and ``sup_diff`` expand all 2**n_bits outcomes, with
    labels[0] as the least significant bit of the signal index; no check
    calls them.  They are test oracles, kept while the benchmark tracer
    binds them.
    """

    labels: tuple[tuple[int, int], ...]
    p_zero: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_zero, dtype=float)
        object.__setattr__(self, "p_zero", p)
        if p.shape != (len(self.labels),):
            raise DomainError("one P(bit=0) entry per label required")
        if np.any((p < 0) | (p > 1)):
            raise DomainError("bit probabilities must lie in [0, 1]")

    @property
    def n_bits(self) -> int:
        return len(self.labels)

    def _check_same_space(self, other: "FactoredBernoulli") -> None:
        if self.labels != other.labels:
            raise DomainError("distributions live on different bit spaces")

    def dense(self) -> np.ndarray:
        if self.n_bits > DENSE_CAP_BITS:
            raise CapacityError(
                f"dense expansion of {self.n_bits} bits exceeds the "
                f"2**{DENSE_CAP_BITS} outcome cap"
            )
        return _product_expansion(self.p_zero)

    def l2_diff(self, other: "FactoredBernoulli") -> float:
        """||Q - P|| over the joint outcomes, for P = self and Q = other."""
        self._check_same_space(other)
        return math.sqrt(displacement_moments(self.p_zero, other.p_zero)[2])

    def sup_diff(self, other: "FactoredBernoulli") -> float:
        self._check_same_space(other)
        return float(np.max(np.abs(self.dense() - other.dense())))


def private_joint_distribution(spec: GameSpec, profile) -> FactoredBernoulli:
    """Joint distribution of all N(N-1) private cross-observation bits."""
    return marginal_excluding(spec, profile, excluded=())


def marginal_excluding(spec: GameSpec, profile, excluded) -> FactoredBernoulli:
    """Joint signal distribution of the firms outside ``excluded``.

    The surviving bits are every observation *held by* a non-excluded firm,
    including its observations of excluded firms; only the excluded firms'
    own signal holdings drop out.
    """
    r = validate_profile(spec, profile)
    out = set()
    for i in excluded:
        if not 0 <= int(i) < spec.n_firms:
            raise DomainError(f"excluded firm index {i} out of range")
        out.add(int(i))
    if len(out) == spec.n_firms:
        raise DomainError("at least one observer must remain outside the excluded firms")
    observer, observed = _held_private_bits(spec.n_firms, tuple(sorted(out)))
    labels = tuple(zip(observer.tolist(), observed.tolist()))
    p0 = signal_kernel(spec, MODE_PRIVATE)[r[observed]]
    return FactoredBernoulli(labels=labels, p_zero=p0)


def cross_observation_reduction(
    spec: GameSpec, profile, observed: int, exclude_observer: int | None = None
) -> SignalDistribution:
    """Distribution of one uniformly chosen cross-observation about a firm.

    Every available observer's bit about ``observed`` has the same kernel,
    so the uniform mixture equals that kernel; communication can therefore
    reproduce public-monitoring statistics from private signals.
    """
    r = validate_profile(spec, profile)
    if not 0 <= observed < spec.n_firms:
        raise DomainError(f"observed firm index {observed} out of range")
    testers = [
        k
        for k in range(spec.n_firms)
        if k != observed and k != exclude_observer
    ]
    if not testers:
        raise DomainError(
            f"no cross-observation about firm {observed} is available "
            f"(N = {spec.n_firms}, excluded observer {exclude_observer})"
        )
    p0 = signal_kernel(spec, MODE_PRIVATE)[r[observed]]
    return SignalDistribution(probs=np.array([p0, 1.0 - p0]), n_bits=1)
