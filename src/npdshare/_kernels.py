"""Hot Monte Carlo kernels, vectorized over replicas: one driver, two walks.

The driver ``_drive`` only schedules replicas; a walk holds their state and
does a period's arithmetic.  It has two walks:

* The promise walk (``promise_mc``).  Its arithmetic, the region test
  ``outside`` and the step on a public signal ``step``, is defined once by
  ``decompose.PromiseDecomposition``: ``PromiseAutomaton`` calls it on one
  promise, a tuple of Python floats, the walk on a block of them with the
  same operations in the same order.  The block is firm-major, an (N, R)
  array whose row k holds firm k's promise in each live replica, so every
  numpy op of the walk reads and writes contiguous rows.  Replicas that
  leave the region stop accruing payoff (the halt period is recorded),
  which matches reverting to the all-conceal static equilibrium; they
  leave the live set.
* The count walk (``count_mc``).  Every firm plays one count automaton, so
  all firms play the state's action and earn its stage payoff.  Each
  period it runs ``acc = acc + w * payoff[a]``, ``z = next_state[z, c]``
  and ``w = w * delta``, where c is the period's number of zero bits under
  the replica's action a.  No replica leaves.

Replicas are stepped in groups of GROUP_REPLICAS, one group after another;
each numpy op of the period loop works on a group's live replicas.  A group
draws its signals a stream run of STREAM_PERIODS periods ahead: every bit's
stream (``monitoring.signal_streams``) of every live replica is read for the
run with one seek, which spreads the generator's per-stream setup over many
draws.  The draws of a run are made in batches of CHUNK_DRAWS // (bits *
periods) replicas, at least one, so a batch's float64 uniforms stay within
CHUNK_DRAWS values (1 MB) unless one replica's run alone holds more.  The
walk turns each batch at once into what it reads (uint8 signal indices for
the promise walk, each action's zero-bit count for the count walk) and
writes it into the batch's columns of the run's buffer, 2 MB (promise) or
4 MB (count, up to 255 bits) at the default sizes.  A column map into the
buffer is compacted together with the live replicas.  Draws are addressed
by their (period, slot, replica) counter, and every sum runs in period
order, so neither the grouping nor the runs nor the batches nor dropping
halted replicas changes any replica's trajectory: each is bit for bit as if
it ran alone.
"""

from __future__ import annotations

import numpy as np

from .monitoring import MODE_PUBLIC, signal_streams

# Replicas stepped together by each numpy op of the period loop.
GROUP_REPLICAS = 8192
# Periods drawn per stream seek: the length of a stream run.
STREAM_PERIODS = 256
# Uniforms per draw batch: 2**17 float64 values, 1 MB.
CHUNK_DRAWS = 2**17


def backend_name() -> str:
    return "numpy"


def _drive(seed, replicas: int, horizon: int, streams, walk) -> None:
    """Step ``replicas`` replicas of ``walk`` for ``horizon`` periods.

    The walk's ``start(size)`` sets up a group of ``size`` replicas;
    ``leave(live, t)`` returns None or the mask of replicas that stay for
    period t; ``buffer(count, size)`` makes a stream run's buffer with
    replicas on axis 1, ``encode(u, part)`` fills a batch's columns from its
    uniforms, and ``step(signals, col)`` plays a period on its buffer row,
    each live replica reading column ``col``; ``finish(live)`` stores a
    group's results.
    """
    # The seed reaches the draws as given: ``SignalStreams.uniforms`` checks it.
    bits = streams.slot.size
    for first in range(0, replicas, GROUP_REPLICAS):
        live = np.arange(first, min(first + GROUP_REPLICAS, replicas))
        walk.start(live.size)
        col = np.arange(live.size)  # each live replica's column in signals
        for t in range(horizon):
            keep = walk.leave(live, t)
            if keep is not None:
                live, col = live[keep], col[keep]
                if live.size == 0:
                    break
            row = t % STREAM_PERIODS
            if row == 0:
                count = min(STREAM_PERIODS, horizon - t)
                batch = max(1, CHUNK_DRAWS // (bits * count))
                signals = walk.buffer(count, live.size)
                for b in range(0, live.size, batch):
                    u = streams.uniforms(seed, t, count, live[b : b + batch])
                    walk.encode(u, signals[:, b : b + batch])
                col = np.arange(live.size)
            walk.step(signals[row], col)
        walk.finish(live)


class _PromiseWalk:
    """Promises of the live replicas, firm-major, along a decomposition."""

    def __init__(self, decomp, v0, p_zero, delta, totals, halt):
        self.decomp, self.v0, self.p_zero, self.delta = decomp, v0, p_zero, delta
        self.totals, self.halt = totals, halt
        self.c = (1.0 - delta) / delta

    def start(self, size):
        # Every live replica has accrued the same sum, so one running sum
        # stands for all of them and is copied out when a replica halts.
        self.accrued = np.zeros(self.v0.shape[0])
        self.v = np.repeat(self.v0[:, None], size, axis=1)
        self.w = 1.0

    def leave(self, live, t):
        viol = self.decomp.outside(self.v)
        if not viol.any():
            return None
        self.halt[live[viol]] = t
        self.totals[live[viol]] = self.accrued
        keep = ~viol
        self.v = self.v[:, keep]
        return keep

    @staticmethod
    def buffer(count, size):
        return np.zeros((count, size), dtype=np.uint8)

    def encode(self, u, part):
        for k, p in enumerate(self.p_zero):
            part |= (u[:, k] >= p).view(np.uint8) << k

    def step(self, signals, col):
        self.accrued = self.accrued + self.w * self.decomp.u_r
        self.v = self.decomp.step(self.v, signals.take(col), self.c)
        self.w = self.w * self.delta

    def finish(self, live):
        self.totals[live] = self.accrued


class _CountWalk:
    """States of the live replicas on one count automaton table."""

    def __init__(self, p_zero, payoff, action, next_state, initial, delta, totals):
        self.p_zero, self.delta, self.totals = p_zero, delta, totals
        self.action, self.next_state, self.initial = action, next_state, initial
        self.state_payoff = payoff[action]  # each firm's stage payoff, by state
        self.dtype = np.min_scalar_type(next_state.shape[1] - 1)

    def start(self, size):
        self.z = np.full(size, self.initial, dtype=np.intp)
        self.acc = np.zeros(size)
        self.w = 1.0

    @staticmethod
    def leave(live, t):
        return None

    def buffer(self, count, size):
        # [t, r, a]: replica r's zero bits in period t under action a.
        return np.empty((count, size, 2), dtype=self.dtype)

    def encode(self, u, part):
        for a, p in enumerate(self.p_zero):
            part[:, :, a] = (u < p).sum(axis=1)

    def step(self, signals, col):
        z = self.z
        self.acc = self.acc + self.w * self.state_payoff[z]
        self.z = self.next_state[z, signals[col, self.action[z]]]
        self.w = self.w * self.delta

    def finish(self, live):
        self.totals[live] = self.acc


def promise_mc(
    seed: int,
    replicas: int,
    horizon: int,
    delta: float,
    v0: np.ndarray,
    p_zero: np.ndarray,
    walk,
):
    """Run the promise-automaton Monte Carlo along ``walk``, its decomposition.

    Returns (totals, halt_periods): totals[r] is the delta^t-weighted sum
    sum_t delta^t u(r) over the periods t that replica r spent in the
    admissible region; halt_periods[r] is the first period whose promise
    left the region, or -1.
    """
    replicas, horizon, delta = int(replicas), int(horizon), float(delta)
    v0, p_zero = (np.asarray(x, dtype=np.float64) for x in (v0, p_zero))
    n = v0.shape[0]
    totals = np.zeros((replicas, n))
    halt = np.full(replicas, -1, dtype=np.int64)
    _drive(seed, replicas, horizon, signal_streams(n, MODE_PUBLIC),
           _PromiseWalk(walk, v0, p_zero, delta, totals, halt))
    return totals, halt


def count_mc(
    seed: int,
    replicas: int,
    horizon: int,
    delta: float,
    streams,
    p_zero: np.ndarray,
    payoff: np.ndarray,
    action: np.ndarray,
    next_state: np.ndarray,
    initial: int,
) -> np.ndarray:
    """Run the Monte Carlo of a count automaton that every firm plays.

    ``streams`` is the period's bit layout; a bit is 0 when its uniform is
    below ``p_zero[a]``, a the common action.  ``payoff[a]`` is each firm's
    stage payoff when all play a.  Returns totals: totals[r] is replica r's
    sum_t delta^t payoff[a_t], accrued in period order.
    """
    totals = np.zeros(replicas)
    _drive(seed, replicas, horizon, streams,
           _CountWalk(p_zero, payoff, action, next_state, initial, delta, totals))
    return totals
