"""Counter-based RNG: known answers, stream structure, block/single parity.

A pure-numpy Philox4x64-10 block function serves as the oracle: the
production draws come from numpy's C generator, and every test here checks
them against this independent implementation of the cipher.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from npdshare import rng

# Philox4x64 round constants (Salmon et al., SC'11).
M0 = np.uint64(0xD2E7470EE14C6C93)
M1 = np.uint64(0xCA5A826395121157)
W0 = np.uint64(0x9E3779B97F4A7C15)
W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
ROUNDS = 10
WORD = 2**64 - 1


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
    """Oracle Philox4x64-10 block function.

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


def oracle_uniforms(seed, domain, periods, slot, replica):
    """The 53-bit numerators of the uniforms of ``periods``, one per period:
    period t is lane t % 4 of the block at counter (t // 4, slot, replica,
    0), shifted right by 11."""
    periods = np.asarray(periods, dtype=np.uint64)
    ctr = np.zeros((4, periods.size), dtype=np.uint64)
    ctr[0] = periods >> np.uint64(2)
    ctr[1] = np.uint64(slot)
    ctr[2] = np.uint64(replica)
    key = np.empty((2, periods.size), dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = np.uint64(domain)
    blocks = philox4x64(ctr, key)
    lanes = (periods & np.uint64(3)).astype(np.intp)
    return blocks[lanes, np.arange(periods.size)] >> np.uint64(11)


def _words(text):
    return np.array([int(w, 16) for w in text.split()], dtype=np.uint64)


# Random123's known-answer vectors for Philox4x64-10: counter, key, block.
KNOWN_ANSWERS = {
    "zeros": (
        "0 0 0 0",
        "0 0",
        "16554d9eca36314c db20fe9d672d0fdc d7e772cee186176b 7e68b68aec7ba23b",
    ),
    "ones": (
        " ".join(["ffffffffffffffff"] * 4),
        " ".join(["ffffffffffffffff"] * 2),
        "87b092c3013fe90b 438c3c67be8d0224 9cc7d7c69cd777b6 a09caebf594f0ba0",
    ),
    "pi": (
        "243f6a8885a308d3 13198a2e03707344 a4093822299f31d0 082efa98ec4e6c89",
        "452821e638d01377 be5466cf34e90c6c",
        "a528f45403e61d95 38c72dbd566e9788 a5a1610e72fd18b5 57bd43b5e52b7fe6",
    ),
}


@pytest.mark.parametrize("name", sorted(KNOWN_ANSWERS))
def test_known_answer_vectors(name):
    counter, key, block = (_words(x) for x in KNOWN_ANSWERS[name])
    assert tuple(philox4x64(counter, key)) == tuple(block)
    # The production path: numpy's generator set to rng's state one below
    # the counter, so its next block is the one at the counter.
    bg = np.random.Philox(key=key)
    below = (sum(int(w) << (64 * i) for i, w in enumerate(counter)) - 1) % (1 << 256)
    bg.state = rng._state([int(k) for k in key], [(below >> (64 * i)) & WORD for i in range(4)])
    assert tuple(bg.random_raw(4)) == tuple(block)


def test_zero_counter_reaches_uniforms():
    # Counter (0, 0, 0, 0) under key (0, 0) is the first known answer; the
    # generator starts one below it, so the borrow crosses all four words.
    block = _words(KNOWN_ANSWERS["zeros"][2])
    u = rng.uniforms(0, 0, 0, 1, 0, 0)
    assert u.shape == (1, 1) and u.dtype == np.uint64
    assert u[0, 0] == block[0] >> np.uint64(11)


def test_one_block_gives_four_periods():
    # Periods 0-3 of stream (0, 0, 0, 0) are the four words of the "zeros"
    # known answer, lane 0 first; period 4 is the next block's lane 0.
    block = _words(KNOWN_ANSWERS["zeros"][2])
    u = rng.uniforms(0, 0, 0, 4, 0, 0)
    assert u.shape == (4, 1)
    assert u[:, 0].tolist() == (block >> np.uint64(11)).tolist()
    nxt = philox4x64(np.array([1, 0, 0, 0], dtype=np.uint64), np.zeros(2, dtype=np.uint64))
    assert rng.uniforms(0, 0, 4, 1, 0, 0)[0, 0] == nxt[0] >> np.uint64(11)


def test_matches_numpy_philox_block():
    # numpy's Philox(key=(seed, domain)) generates block n from counter
    # (n+1, 0, 0, 0); the oracle must agree lane for lane.
    seed, domain = 1234, 77
    bg = np.random.Philox(key=np.array([seed, domain], dtype=np.uint64))
    state = bg.state["state"]
    assert tuple(state["counter"]) == (0, 0, 0, 0)
    raw = bg.random_raw(12)  # blocks 0..2, 4 lanes each
    for n in range(3):
        mine = philox4x64(
            np.array([n + 1, 0, 0, 0], dtype=np.uint64),
            np.array([seed, domain], dtype=np.uint64),
        )
        assert tuple(mine) == tuple(raw[4 * n : 4 * n + 4])


@pytest.mark.parametrize(
    "start, count, slot, replica",
    [
        (0, 5, 0, 0),  # the full borrow
        (0, 5, 3, 0),
        (0, 5, 0, 7),
        (9, 1, 2, 4),
        (0, 1, 0, 0),
        (2**64 - 6, 5, 1, 1),  # the last periods of a stream
        (3, 4, 2**64 - 1, 2**64 - 1),
        (100, 3, 5, 2**63 + 12345),
    ],
)
def test_stream_draws_match_oracle_at_counter_edges(start, count, slot, replica):
    seed, domain = 2**64 - 3, rng.DOMAIN_PRIVATE
    u = rng.uniforms(seed, domain, start, count, slot, replica)
    assert u.shape == (count, 1)
    want = oracle_uniforms(seed, domain, np.arange(count, dtype=np.uint64) + np.uint64(start),
                           slot, replica)
    assert u[:, 0].tobytes() == want.tobytes()


def test_wide_call_matches_oracle_per_column():
    slots = np.array([0, 1, 2, 0, 1, 2])
    replicas = np.array([0, 0, 0, 999, 999, 2**40])
    u = rng.uniforms(17, rng.DOMAIN_PUBLIC, 30, 7, slots, replicas)
    assert u.shape == (7, 6) and u.dtype == np.uint64
    for j in range(6):
        want = oracle_uniforms(17, rng.DOMAIN_PUBLIC, np.arange(30, 37), slots[j], replicas[j])
        assert u[:, j].tobytes() == want.tobytes(), j


def _assert_columns_match_oracle(u, seed, domain, start, slots, replicas):
    periods = np.arange(u.shape[0], dtype=np.uint64) + np.uint64(start)
    for j in range(len(slots)):
        want = oracle_uniforms(seed, domain, periods, slots[j], replicas[j])
        assert u[:, j].tobytes() == want.tobytes(), j


# Streams whose seek at block 0 borrows through counter words 0-3 (slot 0,
# replica 0), words 0-2 (a replica only) and words 0-1 (a slot), the last
# two each right after a full borrow, which leaves word 3 at 2**64 - 1.
BORROW_SLOTS = np.array([0, 0, 0, 3, WORD, 0, 1, 0], dtype=np.uint64)
BORROW_REPLICAS = np.array([0, 7, 0, 0, WORD, 2**63, 2**63, 0], dtype=np.uint64)


def test_wide_call_at_start_zero_mixes_every_borrow():
    # One call seeks every stream through one reused state; a branch that
    # left a counter word of the previous stream in place would show in a
    # column.
    seed, domain = 2**64 - 3, rng.DOMAIN_PRIVATE
    u = rng.uniforms(seed, domain, 0, 6, BORROW_SLOTS, BORROW_REPLICAS)
    assert u.shape == (6, len(BORROW_SLOTS))
    _assert_columns_match_oracle(u, seed, domain, 0, BORROW_SLOTS, BORROW_REPLICAS)


@pytest.mark.parametrize(
    "start, count",
    [
        (1, 1), (2, 1), (3, 1),  # inside block 0: the borrow, then a skip
        (1, 3), (2, 2), (3, 5),  # to and across the edge of block 0
        (5, 2), (6, 7), (7, 1), (7, 2), (41, 11), (1022, 3),
        (2**64 - 3, 3), (2**64 - 2, 2), (2**64 - 1, 1),  # the last periods
        (2**64 - 7, 6),
    ],
)
def test_unaligned_start_is_a_slice_of_an_aligned_call(start, count):
    # A call from start % 4 in {1, 2, 3} equals the same periods of a wider
    # call from the block edge below it, column for column.
    seed, domain = 2**64 - 3, rng.DOMAIN_PRIVATE
    skip = start % 4
    assert skip
    u = rng.uniforms(seed, domain, start, count, BORROW_SLOTS, BORROW_REPLICAS)
    aligned = start - skip
    wide = rng.uniforms(seed, domain, aligned, min(skip + count + 3, 2**64 - aligned),
                        BORROW_SLOTS, BORROW_REPLICAS)
    assert u.tobytes() == np.ascontiguousarray(wide[skip : skip + count]).tobytes()
    _assert_columns_match_oracle(u, seed, domain, start, BORROW_SLOTS, BORROW_REPLICAS)


def test_back_to_back_calls_under_different_seeds():
    # Each call builds its own generator and state: nothing of the first
    # call's key or counter may reach the second.
    first = rng.uniforms(41, rng.DOMAIN_PUBLIC, 0, 5, BORROW_SLOTS, BORROW_REPLICAS)
    second = rng.uniforms(2**64 - 1, rng.DOMAIN_PUBLIC, 0, 5, BORROW_SLOTS, BORROW_REPLICAS)
    third = rng.uniforms(41, rng.DOMAIN_PUBLIC, 9, 5, BORROW_SLOTS, BORROW_REPLICAS)
    for u, seed, start in ((first, 41, 0), (second, 2**64 - 1, 0), (third, 41, 9)):
        _assert_columns_match_oracle(u, seed, rng.DOMAIN_PUBLIC, start,
                                     BORROW_SLOTS, BORROW_REPLICAS)
    assert first.tobytes() != second.tobytes()


def test_known_uniform_reproduces():
    u1 = rng.uniforms(3, rng.DOMAIN_PUBLIC, 5, 1, 2, 9)
    u2 = rng.uniforms(3, rng.DOMAIN_PUBLIC, 5, 1, 2, 9)
    assert u1.shape == (1, 1)
    assert u1[0, 0] == u2[0, 0]
    assert 0 <= int(u1[0, 0]) < 2**53


def test_uniform_batch_matches_scalar():
    slots = np.arange(3)
    batch = rng.uniforms(11, rng.DOMAIN_PRIVATE, 0, 4, slots, 2)
    assert batch.shape == (4, 3)
    for t in range(4):
        for s in slots:
            single = rng.uniforms(11, rng.DOMAIN_PRIVATE, t, 1, int(s), 2)
            assert batch[t, s] == single[0, 0]


def test_streams_differ_across_coordinates():
    def draw(seed, domain, period, slot, replica):
        return rng.uniforms(seed, domain, period, 1, slot, replica)[0, 0]

    base = draw(1, rng.DOMAIN_PUBLIC, 0, 0, 0)
    assert base != draw(2, rng.DOMAIN_PUBLIC, 0, 0, 0)  # seed
    assert base != draw(1, rng.DOMAIN_PRIVATE, 0, 0, 0)  # domain
    assert base != draw(1, rng.DOMAIN_PUBLIC, 1, 0, 0)  # period
    assert base != draw(1, rng.DOMAIN_PUBLIC, 0, 1, 0)  # slot
    assert base != draw(1, rng.DOMAIN_PUBLIC, 0, 0, 1)  # replica


def test_uniforms_cover_unit_interval_evenly():
    u = rng.uniforms(5, rng.DOMAIN_PUBLIC, 0, 20000, 0, 0)[:, 0] * 2.0**-53
    assert u.min() >= 0.0 and u.max() < 1.0
    # crude uniformity check, 10 bins, 3-sigma on each count
    counts, _ = np.histogram(u, bins=10, range=(0, 1))
    expected = 2000.0
    sigma = np.sqrt(expected * 0.9)
    assert np.all(np.abs(counts - expected) < 3 * sigma)


# ---------------------------------------------------------------------------
# thresholds: a bit compares its draw's numerator k with threshold(p)

K_MAX = 2**53 - 1


def _assert_threshold_exact(p):
    """k >= threshold(p) exactly when the uniform k * 2**-53 is >= p, for
    the numerators on either side of the threshold and the extremes."""
    big = int(rng.threshold(p))
    assert rng.threshold(p).dtype == np.uint64 and 0 <= big <= 2**53
    for k in {0, 1, big - 2, big - 1, big, big + 1, K_MAX - 1, K_MAX}:
        if 0 <= k <= K_MAX:
            assert (k >= big) == (k * 2.0**-53 >= p), (p, k)
            assert (np.uint64(k) >= rng.threshold(p)) == (k >= big), (p, k)


def _grid_cases():
    """p on the 2**-53 grid, the floats either side of it, 0.5, the ends,
    the smallest floats and the accuracies the specs and tests use."""
    cases = [0.0, 1.0, 0.5, 5e-324, 2.0**-1074 * 3, 2.0**-60, 1.0 - 2.0**-53]
    for j in (1, 2, 3, 2**20 + 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1):
        on = j * 2.0**-53
        cases += [on, np.nextafter(on, 0.0), np.nextafter(on, 1.0)]
    cases += [0.9, 0.1, 0.85, 0.12, 0.8, 0.2, 0.15, 0.95, 0.05, 0.55, 0.45, 0.75, 0.25]
    return cases


@pytest.mark.parametrize("p", _grid_cases())
def test_threshold_is_exact_on_and_beside_the_grid(p):
    _assert_threshold_exact(float(p))


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, K_MAX))
def test_threshold_is_exact_for_any_probability(p, k):
    _assert_threshold_exact(p)
    assert (k >= int(rng.threshold(p))) == (k * 2.0**-53 >= p)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_threshold_of_an_array_is_each_entrys(ps):
    got = rng.threshold(np.array(ps))
    assert got.dtype == np.uint64 and got.shape == (len(ps),)
    assert got.tolist() == [int(rng.threshold(p)) for p in ps]
