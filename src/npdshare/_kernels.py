"""Hot Monte Carlo kernels, vectorized over replicas: one driver, two walks.

``_accrual`` is the package's running discounted sum, a trace's
``discounted_average`` included.  STREAM_PERIODS, read at call time, is how
far ahead every draw path, ``engine.run_episode`` included, reads a stream.

The driver ``_drive`` only schedules replicas; a walk holds their state and
does a period's arithmetic.  ``engine.monte_carlo`` picks the walk from the
profile it is given, and each entry reads what its walk needs (delta, the
signal kernel, the stage payoffs) from the spec and the automaton it runs.
It has two walks:

* The promise walk (``promise_mc``).  Its arithmetic, the region test
  ``outside`` and the step on a public signal ``step``, is defined once by
  ``decompose.PromiseDecomposition``: ``PromiseAutomaton`` calls it on one
  promise, a tuple of Python floats, the walk on a block of them with the
  same operations in the same order.  The block is firm-major, an (N, R)
  array whose row k holds firm k's promise in each live replica, so every
  numpy op of the walk reads and writes contiguous rows.  Each step writes
  its promises into a preallocated (N, HALT_BLOCK, group) buffer, and the
  region is tested once per block of up to HALT_BLOCK periods, on the
  whole buffer: each replica halts at its first promise outside, the same
  period a test every period finds.  v0 is tested before the first step;
  the promise after the last step is never tested.  Replicas that leave
  the region stop accruing payoff (the halt period is recorded), which
  matches reverting to the all-conceal static equilibrium; they leave the
  live set.  Every live replica has accrued the same sum, so the walk keeps
  one table per stream run, row k the sum before the run's period k (built
  by ``_accrual`` in period order), and a replica halting at period t takes
  row t.
* The count walk (``count_mc``).  Every firm plays one count automaton, so
  all firms play the state's action and earn its stage payoff.  Each
  period it runs ``acc = acc + w * payoff[a]``, ``z = next_state[z, c]``
  and ``w = w * delta``, where c is the period's number of zero bits under
  the replica's action a: ``_accrual``'s sum, a period at a time, as the
  state picks the payoff.  No replica leaves.  A table whose start state no
  count moves plays one action forever: ``count_mc`` then draws nothing and
  gives every replica the one ``_accrual`` total.

Replicas are stepped in groups of GROUP_REPLICAS, one group after another;
each numpy op of the period loop works on a group's live replicas.  A group
draws its signals a stream run of STREAM_PERIODS periods ahead: every bit's
stream (``monitoring.signal_streams``) of every live replica is read for the
run with one seek, which spreads the generator's per-stream setup over many
draws; each Philox block of a stream gives four of its periods.  A walk is
asked which replicas leave at the start of every run and every HALT_BLOCK
periods into it, so a run draws for exactly the replicas still inside.  The
draws of a run are made in batches of CHUNK_DRAWS // (bits * periods)
replicas, at least one, so a batch's uint64 draws stay within CHUNK_DRAWS
values (1 MB) unless one replica's run alone holds more.
A draw is the 53-bit numerator k of its uniform (``rng.uniforms``), and a
bit is 0 when k < ``rng.threshold(P(bit = 0))``, the same test as the
uniform below P(bit = 0).  The walk turns each batch at once into what it
reads (uint8 signal indices for the promise walk, each action's zero-bit
count for the count walk), working stream-major, each stream's periods
contiguous, and writes it, transposed once, into the batch's columns of the
run's buffer, 2 MB (promise) or 4 MB (count, up to 255 bits) at the default
sizes.  A column map into the buffer is compacted together with the live
replicas.  Draws are addressed by their (period, slot, replica), not by
their place in a call, and every sum runs in period order, so neither the
grouping nor the runs nor the batches nor the blocks nor dropping halted
replicas changes any replica's trajectory: each is bit for bit as if it
ran alone.
"""

from __future__ import annotations

import numpy as np

from .game import validate_count
from .monitoring import MODE_PRIVATE, MODE_PUBLIC, signal_kernel, signal_streams
from .rng import WORDS, threshold

# Replicas stepped together by each numpy op of the period loop.
GROUP_REPLICAS = 8192
# Periods drawn per stream seek: the length of a stream run.
STREAM_PERIODS = 256
# Uniforms per draw batch: 2**17 uint64 values, 1 MB.
CHUNK_DRAWS = 2**17
# Periods of promises the promise walk tests for leaving at once.
HALT_BLOCK = 8


def backend_name() -> str:
    return "numpy"


def _drive(seed, replicas: int, horizon: int, streams, walk) -> None:
    """Step ``replicas`` replicas of ``walk`` for ``horizon`` periods.

    The walk's ``start(size)`` sets up a group of ``size`` replicas;
    ``leave(live)``, called before the period that starts a stream run or
    is a multiple of HALT_BLOCK periods into one, returns None or the mask
    of replicas that stay; ``run(count, size)`` starts a stream run of
    ``count`` periods and returns its buffer, with replicas on axis 1;
    ``encode(u, part)`` fills a batch's columns from its draws, and
    ``step(signals, col)`` plays a period on its buffer row, each live
    replica reading column ``col``; ``finish(live)`` stores a group's
    results.
    """
    # The seed reaches the draws as given: ``SignalStreams.uniforms`` checks it.
    bits = streams.slot.size
    for first in range(0, replicas, GROUP_REPLICAS):
        live = np.arange(first, min(first + GROUP_REPLICAS, replicas))
        walk.start(live.size)
        col = np.arange(live.size)  # each live replica's column in signals
        for t in range(horizon):
            row = t % STREAM_PERIODS
            if row % HALT_BLOCK == 0:
                keep = walk.leave(live)
                if keep is not None:
                    live, col = live[keep], col[keep]
                    if live.size == 0:
                        break
            if row == 0:
                count = min(STREAM_PERIODS, horizon - t)
                batch = max(1, CHUNK_DRAWS // (bits * count))
                signals = walk.run(count, live.size)
                for b in range(0, live.size, batch):
                    u = streams.uniforms(seed, t, count, live[b : b + batch])
                    walk.encode(u, signals[:, b : b + batch])
                col = np.arange(live.size)
            walk.step(signals[row], col)
        walk.finish(live)


def _accrual(carry, w, delta: float, u, count: int):
    """The running sums of ``count`` periods of payoff ``u`` at weights w,
    w delta, w delta^2, ...: row k is carry plus the first k terms, added
    in period order (row 0 is carry), as a running ``acc = acc + w * u``,
    ``w = w * delta`` makes them.  ``carry`` is a row of any shape, and ``u``
    broadcasts to (count,) + its shape.  Returns (rows, the weight after them)."""
    weights = np.empty(count + 1)
    weights[0] = w
    weights[1:] = delta
    weights = np.multiply.accumulate(weights)
    shape = np.shape(carry)
    terms = np.empty((count + 1,) + shape)
    terms[0] = carry
    np.multiply(weights[:count].reshape((count,) + (1,) * len(shape)), u, out=terms[1:])
    return np.add.accumulate(terms, axis=0), weights[count]


class _PromiseWalk:
    """Promises of the live replicas, firm-major, along a decomposition."""

    def __init__(self, decomp, v0, k_zero, delta, totals, halt):
        self.decomp, self.v0, self.k_zero, self.delta = decomp, v0, k_zero, delta
        self.totals, self.halt = totals, halt
        self.c = (1.0 - delta) / delta

    def start(self, size):
        n = self.v0.shape[0]
        self.v = np.repeat(self.v0[:, None], size, axis=1)
        # promises[:, j, :live] holds the untested promise of period
        # t - filled + 1 + j, t being the periods stepped.
        self.promises = np.empty((n, HALT_BLOCK, size))
        self.promises[:, 0] = self.v
        self.t, self.filled = 0, 1
        # The shared sum: row k of accrued is the sum before period
        # run_first + k.
        self.run_first, self.accrued, self.w = 0, np.zeros((1, n)), 1.0

    def leave(self, live):
        return self._test(live, self.filled)

    def _test(self, live, tested):
        """Test the first ``tested`` untested promises; halt each replica at
        its first one outside.  Returns None or the mask of those that stay."""
        first = self.t - self.filled + 1
        self.filled = 0
        if tested <= 0:
            return None
        viol = self.decomp.outside(self.promises[:, :tested, : live.size])
        out = viol.any(axis=0)
        if not out.any():
            return None
        at = first + viol[:, out].argmax(axis=0)
        self.halt[live[out]] = at
        self.totals[live[out]] = self.accrued[at - self.run_first]
        keep = ~out
        self.v = self.v[:, keep]
        return keep

    def run(self, count, size):
        self.run_first = self.t
        self.accrued, self.w = _accrual(
            self.accrued[-1], self.w, self.delta, self.decomp.u_r, count
        )
        return np.empty((count, size), dtype=np.uint8)

    def encode(self, u, part):
        # Stream-major (bits, replicas, periods): each comparison reads and
        # writes contiguous rows, and one transpose fills the batch.
        s = u.transpose(1, 2, 0)
        index = (s[0] >= self.k_zero[0]).view(np.uint8)
        for k in range(1, len(self.k_zero)):
            index |= (s[k] >= self.k_zero[k]).view(np.uint8) << k
        part[...] = index.T

    def step(self, signals, col):
        v = self.decomp.step(self.v, signals.take(col), self.c)
        self.promises[:, self.filled, : v.shape[1]] = v
        self.v = v
        self.t += 1
        self.filled += 1

    def finish(self, live):
        # The promise after the last step is never tested.
        keep = self._test(live, self.filled - 1)
        if keep is not None:
            live = live[keep]
        self.totals[live] = self.accrued[-1]


class _CountWalk:
    """States of the live replicas on one count automaton table."""

    def __init__(self, k_zero, payoff, action, next_state, initial, delta, totals):
        self.k_zero, self.delta, self.totals = k_zero, delta, totals
        self.action, self.next_state, self.initial = action, next_state, initial
        self.state_payoff = payoff[action]  # each firm's stage payoff, by state
        self.dtype = np.min_scalar_type(next_state.shape[1] - 1)

    def start(self, size):
        self.z = np.full(size, self.initial, dtype=np.intp)
        self.acc = np.zeros(size)
        self.w = 1.0

    @staticmethod
    def leave(live):
        return None

    def run(self, count, size):
        # [t, r, a]: replica r's zero bits in period t under action a.
        return np.empty((count, size, 2), dtype=self.dtype)

    def encode(self, u, part):
        s = u.transpose(1, 2, 0)  # stream-major, as in the promise walk
        for a, k in enumerate(self.k_zero):
            part[:, :, a] = (s < k).sum(axis=0, dtype=self.dtype).T

    def step(self, signals, col):
        z = self.z
        self.acc = self.acc + self.w * self.state_payoff[z]
        self.z = self.next_state[z, signals[col, self.action[z]]]
        self.w = self.w * self.delta

    def finish(self, live):
        self.totals[live] = self.acc


def promise_mc(seed: int, replicas: int, horizon: int, v0, walk):
    """Run the promise-automaton Monte Carlo along ``walk``, its decomposition.

    The walk's spec gives delta and the monitor's kernel; each firm's bit
    is 0 with its chance under the firm's action in ``walk.action``.
    Returns (totals, halt_periods): totals[r] is the delta^t-weighted sum
    sum_t delta^t u(r) over the periods t that replica r spent in the
    admissible region; halt_periods[r] is the first period whose promise
    left the region, or -1.
    """
    spec = walk.spec
    replicas, horizon, delta = int(replicas), int(horizon), float(spec.delta)
    v0 = np.asarray(v0, dtype=np.float64)
    p_zero = signal_kernel(spec, MODE_PUBLIC)[np.asarray(walk.action)]
    n = v0.shape[0]
    totals = np.zeros((replicas, n))
    halt = np.full(replicas, -1, dtype=np.int64)
    # Steps after a replica leaves, up to the end of its block, may overflow
    # at a tiny delta; the region test reads any non-finite promise as outside.
    with np.errstate(over="ignore", invalid="ignore"):
        _drive(seed, replicas, horizon, signal_streams(n, MODE_PUBLIC),
               _PromiseWalk(walk, v0, threshold(p_zero), delta, totals, halt))
    return totals, halt


def count_mc(seed: int, replicas: int, horizon: int, spec, mode: str, table) -> np.ndarray:
    """Run the Monte Carlo of count automaton ``table`` played by every firm.

    Every firm of ``spec`` plays the table's action, on truthful messages in
    private mode, so each earns the stage payoff of the common action a and
    each of ``mode``'s bits is 0 with its chance under a.  In private mode
    period 0's message round is empty, and the firms count it as no zeros
    before they act.  Returns totals: totals[r] is replica r's
    sum_t delta^t payoff[a_t], accrued in period order.  When no count
    moves the start state, nothing is drawn and every replica gets the
    start action's sum.
    """
    n, delta = spec.n_firms, spec.delta
    payoff = spec.stage[[0, 1], [0, n]]
    action, next_state, initial = table.action, table.next_state, table.initial
    if mode == MODE_PRIVATE:
        initial = int(next_state[initial, 0])
    totals = np.zeros(replicas)
    if table.absorbing[initial]:
        validate_count(seed, "seed", 0, WORDS)  # as the first draw would
        acc, w = 0.0, 1.0
        for t in range(0, horizon, STREAM_PERIODS):
            rows, w = _accrual(acc, w, delta, payoff[action[initial]],
                               min(STREAM_PERIODS, horizon - t))
            acc = rows[-1]
        totals[:] = acc
        return totals
    _drive(seed, replicas, horizon, signal_streams(n, mode),
           _CountWalk(threshold(signal_kernel(spec, mode)), payoff, action, next_state,
                      initial, delta, totals))
    return totals
