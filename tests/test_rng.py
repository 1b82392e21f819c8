"""Counter-based RNG: reference vectors, stream structure, scalar/batch parity."""

import numpy as np

from npdshare import rng


def test_matches_numpy_philox_block():
    # numpy's Philox(key=(seed, domain)) generates block n from counter
    # (n+1, 0, 0, 0); our raw_lane0 at counter (period, slot, replica, 0)
    # must agree lane for lane.
    seed, domain = 1234, 77
    bg = np.random.Philox(key=np.array([seed, domain], dtype=np.uint64))
    state = bg.state["state"]
    assert tuple(state["counter"]) == (0, 0, 0, 0)
    raw = bg.random_raw(12)  # blocks 0..2, 4 lanes each
    for n in range(3):
        mine = rng.philox4x64(
            np.array([n + 1, 0, 0, 0], dtype=np.uint64),
            np.array([seed, domain], dtype=np.uint64),
        )
        assert tuple(mine) == tuple(raw[4 * n : 4 * n + 4])


def test_known_uniform_reproduces():
    u1 = rng.uniform_scalar(3, rng.DOMAIN_PUBLIC, period=5, slot=2, replica=9)
    u2 = rng.uniform_scalar(3, rng.DOMAIN_PUBLIC, period=5, slot=2, replica=9)
    assert u1 == u2
    assert 0.0 <= u1 < 1.0


def test_uniform_batch_matches_scalar():
    periods = np.arange(4)
    slots = np.arange(3)
    batch = rng.uniforms(11, rng.DOMAIN_PRIVATE, periods[:, None], slots[None, :], 2)
    for t in periods:
        for s in slots:
            assert batch[t, s] == rng.uniform_scalar(
                11, rng.DOMAIN_PRIVATE, int(t), int(s), 2
            )


def test_streams_differ_across_coordinates():
    base = rng.uniform_scalar(1, rng.DOMAIN_PUBLIC, 0, 0, 0)
    assert base != rng.uniform_scalar(2, rng.DOMAIN_PUBLIC, 0, 0, 0)  # seed
    assert base != rng.uniform_scalar(1, rng.DOMAIN_PRIVATE, 0, 0, 0)  # domain
    assert base != rng.uniform_scalar(1, rng.DOMAIN_PUBLIC, 1, 0, 0)  # period
    assert base != rng.uniform_scalar(1, rng.DOMAIN_PUBLIC, 0, 1, 0)  # slot
    assert base != rng.uniform_scalar(1, rng.DOMAIN_PUBLIC, 0, 0, 1)  # replica


def test_uniforms_cover_unit_interval_evenly():
    u = rng.uniforms(5, rng.DOMAIN_PUBLIC, np.arange(20000), 0, 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    # crude uniformity check, 10 bins, 3-sigma on each count
    counts, _ = np.histogram(u, bins=10, range=(0, 1))
    expected = 2000.0
    sigma = np.sqrt(expected * 0.9)
    assert np.all(np.abs(counts - expected) < 3 * sigma)
