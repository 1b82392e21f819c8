"""Counter-based random streams (Philox4x64-10).

Every draw is addressed by coordinates (seed, domain, period, slot, replica)
rather than by position in a consumed stream.  This makes traces reproducible
bit for bit regardless of evaluation order, and gives each Monte Carlo replica
an independent substream by construction.  A draw made as part of a block
(many periods, slots or replicas in one call) is bit-identical to the same
draw made alone, so callers may prefetch and vectorize freely.

The generator is the standard Philox4x64 block cipher with 10 rounds.  The
counter lanes carry (period, slot, replica, 0) and the key carries
(seed, domain).  ``slot`` identifies the consumer within a period: the firm
index for public-signal draws, ``observer * n + observed`` for private
cross-observation draws.

Uniforms use the common 53-bit mapping u = (x >> 11) * 2**-53 on lane 0 of
the block, so u lies in [0, 1).
"""

from __future__ import annotations

import numpy as np

# Philox4x64 round constants (Salmon et al., SC'11), identical to the ones
# used by numpy's Philox bit generator.
M0 = np.uint64(0xD2E7470EE14C6C93)
M1 = np.uint64(0xCA5A826395121157)
W0 = np.uint64(0x9E3779B97F4A7C15)
W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
ROUNDS = 10

U53_INV = 1.0 / 9007199254740992.0  # 2**-53

# Domain separators keep draw families disjoint even at equal coordinates.
DOMAIN_PUBLIC = 0x5055424C
DOMAIN_PRIVATE = 0x50524956


def _mulhilo(a, b):
    """128-bit product of uint64 operands, returned as (high, low) words."""
    lo = a * b
    ah = a >> _SH32
    al = a & _MASK32
    bh = b >> _SH32
    bl = b & _MASK32
    t = ah * bl + ((al * bl) >> _SH32)
    t2 = al * bh + (t & _MASK32)
    hi = ah * bh + (t >> _SH32) + (t2 >> _SH32)
    return hi, lo


def philox4x64(counter, key):
    """Run the Philox4x64-10 block function.

    counter: array-like of shape (4,) or (4, n), uint64 lanes.
    key: array-like of shape (2,) or (2, n).
    Returns an ndarray of the same shape as ``counter``.
    """
    ctr = np.asarray(counter, dtype=np.uint64)
    k = np.asarray(key, dtype=np.uint64)
    x0, x1, x2, x3 = ctr[0].copy(), ctr[1].copy(), ctr[2].copy(), ctr[3].copy()
    k0 = k[0].copy()
    k1 = k[1].copy()
    with np.errstate(over="ignore"):
        for _ in range(ROUNDS):
            hi0, lo0 = _mulhilo(M0, x0)
            hi1, lo1 = _mulhilo(M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
            k0 = k0 + W0
            k1 = k1 + W1
    return np.stack([x0, x1, x2, x3])


def raw_lane0(seed, domain, period, slot, replica):
    """Lane 0 of the block addressed by the given coordinates.

    The integer arguments broadcast against each other; the result has the
    broadcast shape, dtype uint64.
    """
    period, slot, replica = np.broadcast_arrays(
        np.asarray(period, dtype=np.uint64),
        np.asarray(slot, dtype=np.uint64),
        np.asarray(replica, dtype=np.uint64),
    )
    shape = period.shape
    n = period.size
    ctr = np.zeros((4, n), dtype=np.uint64)
    ctr[0] = period.ravel()
    ctr[1] = slot.ravel()
    ctr[2] = replica.ravel()
    key = np.empty((2, n), dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = np.uint64(domain)
    out = philox4x64(ctr, key)[0]
    return out.reshape(shape)


def uniforms(seed, domain, period, slot, replica):
    """Uniform [0, 1) draws addressed by (seed, domain, period, slot, replica)."""
    raw = raw_lane0(seed, domain, period, slot, replica)
    return (raw >> np.uint64(11)).astype(np.float64) * U53_INV


def uniform_scalar(seed: int, domain: int, period: int, slot: int, replica: int) -> float:
    """Scalar convenience wrapper around :func:`uniforms`."""
    return float(uniforms(seed, domain, period, slot, replica))
