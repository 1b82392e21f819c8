"""Counter-based random streams (Philox4x64-10).

Draws come from numpy's Philox bit generator (``np.random.Philox``, the
Philox4x64-10 block cipher of Salmon et al., SC'11, in C).  Each coordinate
(seed, domain, slot, replica) names one counter stream, and the stream steps
through periods four at a time: period t is word (lane) t % 4 of the block
with counter (t // 4, slot, replica, 0) and key (seed, domain), so one
cipher block gives four consecutive periods.  Seeds, replicas and periods
each lie in [0, WORDS), the values of one 64-bit key or counter word; the
package states that range here and nowhere else.  A draw is therefore
addressed by its coordinates rather than by position in a consumed stream.
This makes traces reproducible bit for bit regardless of evaluation order,
and gives each Monte Carlo replica an independent substream by
construction.  A draw made as part of a longer or wider call
(more periods, slots or replicas) is bit-identical to the same draw made
alone, so callers may prefetch and vectorize freely.

``slot`` identifies the consumer within a period.  Which domain and slot
carry each monitoring bit is the layout of ``monitoring.signal_streams``.

A call seeks each of its streams in turn.  It makes one generator and one
state dict (``_state``) whose key and counter are lists of plain ints.  Per
stream it writes the counter one below (start // 4, slot, replica, 0) into
that list, sets the generator's state, and reads the ``start % 4 + count``
words from lane 0 of that block on into the stream's own contiguous row,
dropping the first ``start % 4``.  Below block 0 (start < 4) the
borrow takes one from the slot word, or, where that is 0, from the
replica word, or, where both are 0, wraps every word to WORDS - 1; a branch
writes each case, so no 256-bit integer is formed.

Uniforms use the common 53-bit mapping u = (x >> 11) * 2**-53 on the
period's word x, so u lies in [0, 1).  A call returns each uniform as its
exact 53-bit numerator k = x >> 11, a uint64, and never forms the float:
every consumer asks whether u < p, and ``threshold`` turns that question
into k < threshold(p) with the same answer for every k.
"""

from __future__ import annotations

import numpy as np

# 2**53: a uniform is its numerator k over this, k in [0, 2**53).
U53 = 9007199254740992.0

# Domain separators keep draw families disjoint even at equal coordinates.
DOMAIN_PUBLIC = 0x5055424C
DOMAIN_PRIVATE = 0x50524956

# The values of one key or counter word, the range of seeds and replicas.
WORDS = 1 << 64
_WORD = WORDS - 1


def _state(key: list, ctr: list) -> dict:
    """A Philox state over plain ints whose next block is at ``ctr`` + 1.

    ``key`` and ``ctr`` are lists of words, word 0 first.  numpy steps the
    counter before it makes a block, and the buffered block is marked spent,
    so setting ``bg.state`` to this dict makes the next block the one at
    counter ``ctr`` + 1.  The lists are held, not copied: rewriting ``ctr``
    and setting the state again seeks the generator.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": ctr, "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def threshold(p):
    """The integer K = ceil(p * 2**53) with k < K exactly when k * 2**-53 < p.

    For every 53-bit numerator k (0 <= k < 2**53) and every float64 p in
    [0, 1], the uniform u = k * 2**-53 is below p exactly when k < K, and
    at least p exactly when k >= K.  Both scalings by 2**53 are exact (a
    power of two, with no overflow for p <= 1), so u < p is k < p * 2**53
    in real numbers, and an integer k is below a real x exactly when it is
    below ceil(x).  ``p`` is a float or an array of them; returns uint64 of
    the same shape.
    """
    return np.ceil(np.asarray(p, dtype=np.float64) * U53).astype(np.uint64)


def uniforms(seed, domain, start, count, slot, replica):
    """Uniform [0, 1) draws of ``count`` periods from each of m streams, as
    their 53-bit numerators: uint64 k, the uniform being k * 2**-53.

    ``slot`` and ``replica`` broadcast to one dimension of length m.  Returns
    uint64 of shape (count, m); column j holds periods start ... start +
    count - 1 of the stream (seed, domain, slot[j], replica[j]).  The array
    is the transpose of a (m, count) one, so each column is contiguous.
    Compare it with ``threshold(p)`` to ask whether a uniform is below p.
    """
    start, count = int(start), int(count)
    slot, replica = np.broadcast_arrays(
        np.atleast_1d(np.asarray(slot, dtype=np.uint64)),
        np.atleast_1d(np.asarray(replica, dtype=np.uint64)),
    )
    bg = np.random.Philox(key=np.array([seed, domain], dtype=np.uint64))
    # Period start is word skip of block first; every stream reads from
    # lane 0 of that block and drops the skip words before start.
    first, skip = divmod(start, 4)
    # One state for every stream of the call: a seek rewrites its counter.
    ctr = [(first - 1) & _WORD, 0, 0, 0]
    state = _state([int(seed), int(domain)], ctr)
    raw = np.empty((slot.size, count), dtype=np.uint64)
    for j, (s, r) in enumerate(zip(slot.tolist(), replica.tolist())):
        # Counter (first, s, r, 0) less one; at block 0 the borrow runs on.
        if first:
            ctr[1:] = s, r, 0
        elif s:
            ctr[1:] = s - 1, r, 0
        elif r:
            ctr[1:] = _WORD, r - 1, 0
        else:
            ctr[1:] = _WORD, _WORD, _WORD
        bg.state = state
        raw[j] = bg.random_raw(skip + count)[skip:]
    raw >>= np.uint64(11)
    return raw.T
