"""Hot Monte Carlo kernel of the promise automaton, vectorized over replicas.

The kernel only schedules replicas.  The walk's arithmetic, the region test
``outside`` and the step on a public signal ``step``, is defined once by
``decompose.PromiseDecomposition``: ``PromiseAutomaton`` calls it on one
promise, a tuple of Python floats, the kernel on a block of them with the
same operations in the same order.  The block is firm-major, an (N, R)
array whose row k holds firm k's promise in each live replica, so every
numpy op of the walk reads and writes contiguous rows.  Replicas that leave
the region stop accruing payoff (the halt period is recorded), which
matches reverting to the all-conceal static equilibrium.

Replicas are stepped in groups of GROUP_REPLICAS, one group after another;
each numpy op of the period loop works on a group's replicas still inside.
A group draws its signals a stream run of STREAM_PERIODS periods ahead:
every public bit's stream (``monitoring.signal_streams``) of every replica
still inside is read for the run with one seek, which spreads the
generator's per-stream setup over many draws.  The draws of a run are made
in batches of replicas, CHUNK_DRAWS // (N * periods) at a time, so a
batch's float64 uniforms stay within CHUNK_DRAWS values (1 MB); each batch
is turned into uint8 signal indices at once and written into its columns
of the run's (periods, replicas) buffer, 2 MB at the default sizes.  Only
replicas still inside the region are carried from period to period; a
column map into the buffer is compacted together with them.  Draws are
addressed by their (period, slot, replica) counter, and the running payoff
sum is the same sequence in every group, so neither the grouping nor the
runs nor the batches nor dropping halted replicas changes any replica's
trajectory: each is bit for bit as if it ran alone.
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
    seed, replicas, horizon, delta = int(seed), int(replicas), int(horizon), float(delta)
    v0, p_zero = (np.asarray(x, dtype=np.float64) for x in (v0, p_zero))
    n = v0.shape[0]
    totals = np.zeros((replicas, n))
    halt = np.full(replicas, -1, dtype=np.int64)
    streams = signal_streams(n, MODE_PUBLIC)
    c = (1.0 - delta) / delta
    for first in range(0, replicas, GROUP_REPLICAS):
        # Every live replica has accrued the same sum, so one running sum
        # stands for all of them and is copied out when a replica halts.
        accrued = np.zeros(n)
        live = np.arange(first, min(first + GROUP_REPLICAS, replicas))
        # Promises, firm-major: row k is firm k's promise in each live replica.
        v = np.repeat(v0[:, None], live.size, axis=1)
        col = np.arange(live.size)  # each live replica's column in signals
        w = 1.0
        for t in range(horizon):
            viol = walk.outside(v)
            if viol.any():
                halt[live[viol]] = t
                totals[live[viol]] = accrued
                keep = ~viol
                live, v, col = live[keep], v[:, keep], col[keep]
                if live.size == 0:
                    break
            row = t % STREAM_PERIODS
            if row == 0:
                count = min(STREAM_PERIODS, horizon - t)
                batch = max(1, CHUNK_DRAWS // (n * count))
                signals = np.zeros((count, live.size), dtype=np.uint8)
                for b in range(0, live.size, batch):
                    u = streams.uniforms(seed, t, count, live[b : b + batch])
                    part = signals[:, b : b + batch]
                    for k in range(n):
                        part |= (u[:, k] >= p_zero[k]).view(np.uint8) << k
                col = np.arange(live.size)
            accrued = accrued + w * walk.u_r
            v = walk.step(v, signals[row].take(col), c)
            w = w * delta
        totals[live] = accrued
    return totals, halt
