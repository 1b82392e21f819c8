"""Counter-based random streams (Philox4x64-10).

Draws come from numpy's Philox bit generator (``np.random.Philox``, the
Philox4x64-10 block cipher of Salmon et al., SC'11, in C).  Each coordinate
(seed, domain, slot, replica) names one counter stream, and the stream steps
through periods: the block of period t has counter (t, slot, replica, 0) and
key (seed, domain).  A draw is therefore addressed by its coordinates rather
than by position in a consumed stream.  This makes traces reproducible bit
for bit regardless of evaluation order, and gives each Monte Carlo replica an
independent substream by construction.  A draw made as part of a longer or
wider call (more periods, slots or replicas) is bit-identical to the same
draw made alone, so callers may prefetch and vectorize freely.

``slot`` identifies the consumer within a period.  Which domain and slot
carry each monitoring bit is the layout of ``monitoring.signal_streams``.

Uniforms use the common 53-bit mapping u = (x >> 11) * 2**-53 on lane 0 of
the block, so u lies in [0, 1).
"""

from __future__ import annotations

import numpy as np

U53_INV = 1.0 / 9007199254740992.0  # 2**-53

# Domain separators keep draw families disjoint even at equal coordinates.
DOMAIN_PUBLIC = 0x5055424C
DOMAIN_PRIVATE = 0x50524956

_WORD = (1 << 64) - 1


def _seek(bg, state, counter: int) -> None:
    """Make the next block of Philox generator ``bg`` the one at ``counter``.

    ``state`` is ``bg.state`` (the key included); ``counter`` is the 256-bit
    counter as an integer, lane 0 in the low word.  numpy steps the counter
    before it makes a block, so the generator is set one below it, with its
    stored block spent (``buffer_pos`` 4).  At counter 0 the borrow runs
    through all four words.
    """
    ctr = (counter - 1) % (1 << 256)
    state["state"]["counter"] = [(ctr >> shift) & _WORD for shift in (0, 64, 128, 192)]
    state["buffer_pos"] = 4
    bg.state = state


def uniforms(seed, domain, start, count, slot, replica):
    """Uniform [0, 1) draws of ``count`` periods from each of m streams.

    ``slot`` and ``replica`` broadcast to one dimension of length m.  Returns
    float64 of shape (count, m); column j holds periods start ... start +
    count - 1 of the stream (seed, domain, slot[j], replica[j]).
    """
    start, count = int(start), int(count)
    slot, replica = np.broadcast_arrays(
        np.atleast_1d(np.asarray(slot, dtype=np.uint64)),
        np.atleast_1d(np.asarray(replica, dtype=np.uint64)),
    )
    bg = np.random.Philox(key=np.array([seed, domain], dtype=np.uint64))
    state = bg.state
    raw = np.empty((count, slot.size), dtype=np.uint64)
    for j, (s, r) in enumerate(zip(slot.tolist(), replica.tolist())):
        _seek(bg, state, start | s << 64 | r << 128)
        raw[:, j] = bg.random_raw(4 * count)[::4]  # lane 0 of each block
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u *= U53_INV
    return u
