"""Imperfect monitoring: signal kernels, distributions, marginals, sampling.

Each firm's action is observed through a binary kernel: a disclosure is read
as "0" (looks like concealment) with probability epsilon < 1/2, a concealment
is read as "0" with probability alpha > 1/2.  Under public monitoring one
monitor draws one bit per firm and everyone sees the resulting N-bit vector;
under private monitoring every firm draws its own independent bit about every
other firm.

Signal indexing convention: an N-bit public signal b = (b_1, ..., b_N) maps
to index sum_j b_j * 2**(j-1), i.e. firm 1 occupies the least significant
bit, so the index order enumerates (0,...,0), (1,0,...,0), (0,1,0,...), ...
Dense expansions of private-signal spaces use the same convention over their
listed bit order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import CapacityError, DomainError
from .game import GameSpec, validate_profile

DIST_TOL = 1e-12  # distributions must sum to 1 within this
DENSE_CAP_BITS = 20  # dense expansion capped at 2**20 outcomes


def belief_kernel(action: int, alpha: float, epsilon: float) -> tuple[float, float]:
    """(P(bit=0), P(bit=1)) for one observed firm playing ``action``.

    Perfect monitoring (epsilon = 0 or alpha = 1) is outside the model and
    rejected here; the raw sampling helpers accept it for simulation only.
    """
    if not (0 < epsilon < 0.5):
        raise DomainError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if not (0.5 < alpha < 1):
        raise DomainError(f"alpha must lie in (1/2, 1), got {alpha}")
    if action not in (0, 1):
        raise DomainError(f"action must be 0 or 1, got {action}")
    p0 = epsilon if action == 1 else alpha
    return p0, 1.0 - p0


def signal_bits(index: int, n_bits: int) -> tuple[int, ...]:
    """Bits (b_1, ..., b_n) of a signal index; b_1 is the least significant."""
    return tuple((index >> j) & 1 for j in range(n_bits))


def signal_index(bits) -> int:
    return int(sum(int(b) << j for j, b in enumerate(bits)))


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


def _kernel_p0(actions: np.ndarray, alpha: float, epsilon: float) -> np.ndarray:
    return np.where(actions == 1, epsilon, alpha)


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
    through :func:`public_signal_distribution`.
    """
    actions = np.asarray(actions, dtype=np.int64)
    if not (0 <= epsilon <= 1 and 0 <= alpha <= 1):
        raise DomainError("kernel probabilities must lie in [0, 1]")
    # firm 1 varies fastest (least significant bit)
    return _product_expansion(_kernel_p0(actions, alpha, epsilon))


def public_signal_distribution(spec: GameSpec, profile) -> SignalDistribution:
    """Distribution of the public monitor's N-bit signal given a pure profile."""
    r = validate_profile(spec, profile)
    probs = public_profile_distribution_raw(r, spec.m_alpha, spec.m_epsilon)
    return SignalDistribution(probs=probs, n_bits=spec.n_firms)


# ---------------------------------------------------------------------------
# private monitoring: factorized product-Bernoulli representations


@dataclass(frozen=True)
class FactoredBernoulli:
    """Product distribution of labelled independent bits.

    ``labels`` lists (observer, observed) pairs in a fixed order; ``p_zero``
    gives P(bit = 0) for each.  Two such measures on the same labels are
    equal exactly when their ``p_zero`` vectors are, and inner products
    factor across bits, so comparisons and geometry tests stay exact without
    enumerating the joint space.  ``dense`` (with ``sup_diff`` on top of it)
    is a small-N oracle for tests: it expands all 2**n_bits outcomes, with
    labels[0] as the least significant bit of the signal index.
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

    def dot(self, other: "FactoredBernoulli") -> float:
        """<P, Q> = prod_k (p0 q0 + p1 q1), exact for product measures."""
        self._check_same_space(other)
        p, q = self.p_zero, other.p_zero
        return float(np.prod(p * q + (1 - p) * (1 - q)))

    def l2_diff(self, other: "FactoredBernoulli") -> float:
        val = self.dot(self) - 2.0 * self.dot(other) + other.dot(other)
        return math.sqrt(max(val, 0.0))

    def sup_diff(self, other: "FactoredBernoulli") -> float:
        self._check_same_space(other)
        return float(np.max(np.abs(self.dense() - other.dense())))

    @property
    def full_support(self) -> bool:
        return bool(np.all((self.p_zero > 0) & (self.p_zero < 1)))


def _private_labels(n: int, observers) -> tuple[tuple[int, int], ...]:
    return tuple(
        (k, l) for k in sorted(observers) for l in range(n) if l != k
    )


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
    excluded = tuple(sorted(set(int(i) for i in excluded)))
    for i in excluded:
        if not 0 <= i < spec.n_firms:
            raise DomainError(f"excluded firm index {i} out of range")
    observers = [k for k in range(spec.n_firms) if k not in excluded]
    if not observers:
        raise DomainError("marginal_excluding: at least one observer must remain")
    labels = _private_labels(spec.n_firms, observers)
    observed = np.array([l for (_, l) in labels], dtype=np.int64)
    p0 = _kernel_p0(r[observed], spec.alpha, spec.epsilon)
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
    p0, p1 = belief_kernel(int(r[observed]), spec.alpha, spec.epsilon)
    return SignalDistribution(probs=np.array([p0, p1]), n_bits=1)


# ---------------------------------------------------------------------------
# sampling


def _warn_on_boundary(p0: np.ndarray) -> None:
    if np.any((p0 == 0.0) | (p0 == 1.0)):
        warnings.warn(
            "boundary monitoring accuracy (deterministic bit); outside the "
            "model, sampled anyway",
            stacklevel=3,
        )


def sample_bits_raw(
    p_zero: np.ndarray,
    seed: int,
    domain: int,
    periods: int,
    replicas: int,
    slot_offset: int = 0,
) -> np.ndarray:
    """Sample bits for ``len(p_zero)`` slots over a periods x replicas grid.

    Returns int8 array of shape (periods, replicas, n_slots).  Slot s of
    period t, replica c uses the counter (t, slot_offset + s, c), so any
    sub-grid of draws is reproducible independently of the others.
    """
    p_zero = np.asarray(p_zero, dtype=float)
    _warn_on_boundary(p_zero)
    n_slots = len(p_zero)
    u = rng.uniforms(
        seed, domain, 0, periods,
        np.tile(np.arange(n_slots) + slot_offset, replicas),
        np.repeat(np.arange(replicas), n_slots),
    ).reshape(periods, replicas, n_slots)
    return (u >= p_zero).astype(np.int8)


def sample_public(
    spec: GameSpec, profile, seed: int, periods: int = 1, replicas: int = 1
) -> np.ndarray:
    """Public monitor bit vectors, int8 (periods, replicas, N)."""
    r = validate_profile(spec, profile)
    p0 = _kernel_p0(r, spec.m_alpha, spec.m_epsilon)
    return sample_bits_raw(p0, seed, rng.DOMAIN_PUBLIC, periods, replicas)


def sample_public_indices(
    spec: GameSpec, profile, seed: int, periods: int = 1, replicas: int = 1
) -> np.ndarray:
    bits = sample_public(spec, profile, seed, periods, replicas)
    weights = (1 << np.arange(spec.n_firms, dtype=np.int64))[None, None, :]
    return (bits.astype(np.int64) * weights).sum(axis=2)


def sample_private(
    spec: GameSpec, profile, seed: int, periods: int = 1, replicas: int = 1
) -> np.ndarray:
    """Private cross-observation matrices, int8 (periods, replicas, N, N).

    Entry [t, c, i, j] is firm i's bit about firm j; the diagonal is -1.
    Slot i * N + j addresses the (i, j) draw, so each ordered pair has its
    own substream.
    """
    r = validate_profile(spec, profile)
    n = spec.n_firms
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    p0 = np.array([_kernel_p0(r[j], spec.alpha, spec.epsilon) for (_, j) in pairs])
    slots = np.array([i * n + j for (i, j) in pairs])
    u = rng.uniforms(
        seed, rng.DOMAIN_PRIVATE, 0, periods,
        np.tile(slots, replicas), np.repeat(np.arange(replicas), len(pairs)),
    ).reshape(periods, replicas, len(pairs))
    bits = (u >= p0).astype(np.int8)
    out = np.full((periods, replicas, n, n), -1, dtype=np.int8)
    for idx, (i, j) in enumerate(pairs):
        out[:, :, i, j] = bits[:, :, idx]
    return out
