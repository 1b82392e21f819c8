"""Repeated-play engine: strategies, episodes, Monte Carlo, promise automaton.

An episode runs the stage game for a finite horizon.  Under public
monitoring the public history is the sequence of realized signal indices;
under private monitoring with communication each period opens with a
simultaneous message round (messages are delivered verbatim and become the
public history), then actions are chosen, stage payoffs accrue, and the
private cross-observation matrix is drawn.  Stage payoff is the ex-ante
u_i(r) of the action profile, read from the spec's stage table
(``GameSpec.stage``); the monitor affects continuation behavior, not the
realized flow.  Every discounted quantity here uses the spec's delta: the
automaton's step, the Monte Carlo averages and truncation bounds, and a
trace's ``delta``, which is the delta of the spec that generated it.

All draws are addressed by (seed, period, slot, replica) counters in the
layout of ``monitoring.signal_streams``, so a trace is reproducible bit for
bit and every Monte Carlo replica has an independent substream by
construction.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._kernels import backend_name, promise_mc
from .decompose import REGION_TOL, PromiseDecomposition
from .errors import CapacityError, DiscountTooSmallError, DomainError, ProtocolError
from .game import GameSpec, validate_vector
from .monitoring import MODE_PRIVATE, MODE_PUBLIC, signal_kernel, signal_streams

# run_episode draws its uniforms in blocks of this many periods, one rng call
# per block, so the block holds at most DRAW_CHUNK_PERIODS * N * (N - 1)
# draws whatever the horizon.
DRAW_CHUNK_PERIODS = 1024

# A public signal index of N bits is stored as int64, so public play stops here.
PUBLIC_MAX_FIRMS = 63

# Trace arrays are read into Python lists this many rows at a time, so a long
# trace is never held whole as Python objects.
_ROWS_PER_READ = 256


def _row_lists(a: np.ndarray):
    """The rows of ``a`` as Python lists (or scalars, for a 1-D array)."""
    for start in range(0, len(a), _ROWS_PER_READ):
        yield from a[start:start + _ROWS_PER_READ].tolist()


# ---------------------------------------------------------------------------
# strategies


class Strategy:
    """Per-firm decision rule over histories.

    ``next_action`` receives the public history (signal indices in public
    mode, per-firm message tuples in private mode) and the firm's private
    history (own past cross-observation rows), and returns 0 (conceal) or 1
    (disclose).  Strategies with ``is_public = True`` must ignore the
    private history; the engine's tests replay every public strategy of
    the package beside flipped private rows.

    ``next_message`` implements the truthful-communication default: announce
    the previous period's own signal vector verbatim, and an empty token in
    the first period before anything was observed.  Override it to model
    strategic misreporting.
    """

    is_public = True

    def bind(self, spec: GameSpec, mode: str, firm: int) -> None:
        """Called once at episode start; resets any internal state."""
        self.spec = spec
        self.mode = mode
        self.firm = firm

    def next_action(self, public_history, private_history) -> int:
        raise NotImplementedError

    def next_message(self, own_actions, own_signals, message_history):
        if not own_signals:
            return ()
        last = own_signals[-1].tolist()
        del last[self.firm]
        return tuple(last)

    def clone(self) -> "Strategy":
        return copy.deepcopy(self)


class AlwaysDisclose(Strategy):
    def next_action(self, public_history, private_history) -> int:
        return 1


class AlwaysConceal(Strategy):
    def next_action(self, public_history, private_history) -> int:
        return 0


class SignalTrigger(Strategy):
    """Disclose until ``threshold`` cumulative zero bits have been observed
    in the public history, then conceal forever.

    Under imperfect monitoring zero bits occur on path even when everyone
    discloses.  In public play a period's signal holds one with probability
    1 - (1 - m_epsilon)^N, m_epsilon the monitor's; in private play a
    truthful round carries N(N - 1) message bits at the firms' epsilon (none
    in period 0), so it holds one with probability
    1 - (1 - epsilon)^(N(N - 1)).  Any finite trigger therefore fires
    eventually; ``threshold=math.inf`` never triggers and coincides with
    AlwaysDisclose.
    """

    def __init__(self, threshold):
        if threshold != math.inf and (
            isinstance(threshold, (bool, np.bool_))
            or not isinstance(threshold, (int, np.integer)) or threshold < 1
        ):
            raise DomainError(
                f"trigger threshold must be a positive integer or math.inf, got {threshold}"
            )
        self.threshold = threshold
        self._seen = 0
        self._zeros = 0

    def bind(self, spec, mode, firm):
        super().bind(spec, mode, firm)
        self._seen = 0
        self._zeros = 0

    # The last message round counted and its zeros.  In private mode every
    # firm's public history holds the same round tuple, so the round is
    # counted once a period, not once per firm.
    _last_round: tuple = ((), 0)

    def _count_zero_bits(self, entry) -> int:
        if isinstance(entry, (int, np.integer)):
            return self.spec.n_firms - int(entry).bit_count()
        last, zeros = SignalTrigger._last_round
        if last is not entry or type(entry) is not tuple:
            zeros = sum([msg.count(0) for msg in entry])
            SignalTrigger._last_round = (entry, zeros)
        return zeros

    def next_action(self, public_history, private_history) -> int:
        while self._seen < len(public_history):
            self._zeros += self._count_zero_bits(public_history[self._seen])
            self._seen += 1
        return 0 if self._zeros >= self.threshold else 1


class PromiseAutomaton(Strategy):
    """Public strategy that recursively decomposes a promised payoff.

    Construction fixes a direction, finds the best supported level k* and
    its action profile, and builds the affine continuation family.  Each
    period the automaton plays its component of that profile; on observing
    public signal b the promise moves to v + ((1-delta)/delta) gamma_bar(b),
    with delta the discount factor of ``spec``, the spec it was built from.
    Orthogonal enforcement keeps lam . v constant, so the promise walks the
    supporting hyperplane.  The decomposition's ``outside`` and ``step``,
    the Monte Carlo kernel's own, test and move the promise.

    If an update leaves the admissible region {lam . v <= k* + tol,
    v_i >= -tol}, the automaton either raises DiscountTooSmallError with a
    replay diagnostic (``on_exit="raise"``) or concedes to all-conceal for
    the rest of the episode (``on_exit="concede"``).  v0 must be finite.

    The promise is a tuple of floats and walks on the decomposition's
    Python-float path; ``promise`` returns it as an ndarray.  Clones share
    the decomposition, whose tables never change, and copy only the walk's
    state, so the N firms of a period pay for one step.  Share one instance
    across firms or pass per-firm clones; the promise walk is a
    deterministic function of the public history either way.  An episode
    must run on the spec the automaton was built from (an equal one), so
    the walk and the trace discount at the same delta.
    """

    is_public = True

    def __init__(self, spec: GameSpec, v0, direction, on_exit: str = "raise"):
        if on_exit not in ("raise", "concede"):
            raise DomainError(f"on_exit must be 'raise' or 'concede', got {on_exit!r}")
        self.decomp = PromiseDecomposition(spec, direction)
        self.on_exit = on_exit
        self.v0 = tuple(validate_vector(v0, spec.n_firms, "v0").tolist())
        if self.decomp.outside(self.v0):
            raise DomainError(
                "v0 lies outside the admissible region "
                f"{{lam.v <= {self.decomp.k_star:.6g}, v_i >= 0}} (tol {REGION_TOL})"
            )
        delta = spec.delta
        self._c = (1.0 - delta) / delta
        self._reset_state()

    def _reset_state(self) -> None:
        self._v = self.v0
        self._consumed = 0
        self._halted = False

    def bind(self, spec, mode, firm):
        if mode != MODE_PUBLIC:
            raise ProtocolError("the promise automaton is a public-monitoring strategy")
        if spec != self.decomp.spec:
            raise DomainError("the promise automaton runs only on the spec it was built from")
        super().bind(spec, mode, firm)
        self._reset_state()

    def clone(self) -> "PromiseAutomaton":
        return copy.copy(self)

    @property
    def promise(self) -> np.ndarray:
        return np.array(self._v)

    @property
    def halted(self) -> bool:
        return self._halted

    def next_action(self, public_history, private_history) -> int:
        self._advance(public_history)
        if self._halted:
            return 0
        return int(self.decomp.action[self.firm])

    def _advance(self, public_history) -> None:
        step, outside = self.decomp.step, self.decomp.outside
        while self._consumed < len(public_history):
            b = int(public_history[self._consumed])
            self._consumed += 1
            if self._halted:
                continue
            v_next = step(self._v, b, self._c)
            if outside(v_next):
                if self.on_exit == "raise":
                    raise DiscountTooSmallError(
                        period=self._consumed,
                        delta=self.decomp.spec.delta,
                        delta_suggested=self._suggest_delta(
                            public_history[:self._consumed]
                        ),
                    )
                self._halted = True
                continue
            self._v = v_next

    def _suggest_delta(self, signals) -> float | None:
        """Smallest delta keeping the replayed ``signals`` admissible.

        Bisection over the public history walked so far: the raise path
        raises before any halt, so the automaton stepped on every signal of
        it.  A diagnostic only, since other signal realizations could still
        escape at the suggested value.
        """
        step, outside = self.decomp.step, self.decomp.outside

        def stays_inside(d: float) -> bool:
            c = (1.0 - d) / d
            v = self.v0
            for b in signals:
                v = step(v, b, c)
                if outside(v):
                    return False
            return True

        hi = 1.0 - 1e-9
        if not stays_inside(hi):
            return None
        lo = self.decomp.spec.delta
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if stays_inside(mid):
                hi = mid
            else:
                lo = mid
        return hi


# ---------------------------------------------------------------------------
# episodes


@dataclass(frozen=True)
class EpisodeTrace:
    """One played episode.  ``delta`` and ``u_scale`` are the discount factor
    and the max |stage payoff| of the spec that generated it, so
    ``discounted_average`` and ``truncation_bias_bound`` need no spec and
    read the same from a trace file as from the run."""

    mode: str
    delta: float
    seed: int
    replica: int
    u_scale: float  # max |stage payoff| of the generating spec
    actions: np.ndarray  # (T, N) int8
    payoffs: np.ndarray  # (T, N) float
    # (T,) int64 in public mode, exact: the engine builds each index from
    # per-block bit masks and plays public mode at N <= PUBLIC_MAX_FIRMS.
    public_signals: np.ndarray | None
    private_signals: np.ndarray | None  # (T, N, N) int8, diagonal -1
    messages: tuple | None  # per period: tuple over firms of bit tuples
    promises: np.ndarray | None  # (T, N) promise path when tracked

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def n_firms(self) -> int:
        return self.actions.shape[1]

    def discounted_average(self) -> np.ndarray:
        """(1 - delta) sum_t delta^t u(t), the truncated discounted average.

        Accumulated in period order with a running discount product, the
        same scheme the Monte Carlo kernels use, so recomputation from a
        trace reproduces kernel output bit for bit.
        """
        d = self.delta
        acc = [0.0] * self.n_firms
        w = 1.0
        for row in _row_lists(self.payoffs):
            acc = [a + w * x for a, x in zip(acc, row)]
            w = w * d
        return (1.0 - d) * np.array(acc)

    def truncation_bias_bound(self) -> float:
        """Upper bound on |infinite-horizon average - truncated average|."""
        return self.delta**self.horizon * self.u_scale


_INT = {int}
_BITS = {0, 1}


def _validate_action(a, firm: int, period: int) -> int:
    if isinstance(a, (bool, np.bool_)) or not isinstance(a, (int, np.integer)):
        raise ProtocolError(
            f"firm {firm + 1} emitted a non-integer action {a!r} at period {period}"
        )
    a = int(a)
    if a not in (0, 1):
        raise ProtocolError(
            f"firm {firm + 1} emitted invalid action {a} at period {period}"
        )
    return a


def _validate_message(m, firm: int, period: int, n_firms: int):
    expected = 0 if period == 0 else n_firms - 1
    # A tuple of plain int bits, as the truthful default sends, passes as is.
    if (type(m) is tuple and len(m) == expected
            and set(map(type, m)) <= _INT and set(m) <= _BITS):
        return m
    if not isinstance(m, tuple) or len(m) != expected:
        raise ProtocolError(
            f"firm {firm + 1} emitted an invalid message {m!r} at period {period}: "
            f"expected a tuple of {expected} bits"
        )
    for b in m:
        if not isinstance(b, (int, np.integer)) or int(b) not in (0, 1):
            raise ProtocolError(
                f"firm {firm + 1} emitted a non-bit message entry {b!r} at period {period}"
            )
    return tuple(int(b) for b in m)


def run_episode(
    spec: GameSpec,
    strategies,
    horizon: int,
    seed: int,
    mode: str = MODE_PUBLIC,
    replica: int = 0,
) -> EpisodeTrace:
    """Play the repeated game once and return the full trace.

    Deterministic in (spec, strategies, horizon, seed, mode, replica).  In
    private mode each period opens with the message round; messages become
    the public history that strategies condition on.

    The signal uniforms are drawn DRAW_CHUNK_PERIODS periods at a time, ahead
    of play: one call reads that many periods from the stream of every bit
    of ``monitoring.signal_streams``.  Being addressed by (period, slot,
    replica) they are the same bits a per-period draw would give.  Its
    seeds are every draw path's, [0, 2**64), checked by the first draw.

    A period is played on Python ints.  In public mode each block is read
    into two signal indices per period, ``m0`` with every firm concealing
    and ``m1`` with every firm disclosing (firm j's bit is 1 when its
    uniform is at least P(bit = 0) under that action), so a period whose
    disclosers form the bit mask A has index (m1 & A) | (m0 & ~A).  The
    index is stored in the trace's int64 column, so public play refuses
    more than PUBLIC_MAX_FIRMS firms with CapacityError before any draw.
    Private mode compares each period's uniforms with P(bit = 0) of the
    observed firms' actions.
    """
    if mode not in (MODE_PUBLIC, MODE_PRIVATE):
        raise DomainError(f"mode must be '{MODE_PUBLIC}' or '{MODE_PRIVATE}', got {mode!r}")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    n = spec.n_firms
    supplied = list(strategies)
    if len(supplied) != n:
        raise DomainError(f"need {n} strategies, got {len(supplied)}")
    public = mode == MODE_PUBLIC
    if public and n > PUBLIC_MAX_FIRMS:
        raise CapacityError(
            f"public play is capped at N <= {PUBLIC_MAX_FIRMS}: the trace stores "
            f"an N-bit signal index as int64; got N = {n}"
        )
    # A repeated instance would have its bound firm index overwritten, so
    # clone duplicates; each firm then runs its own copy of the rule.
    strategies = []
    seen: set[int] = set()
    for i, s in enumerate(supplied):
        if id(s) in seen:
            s = s.clone()
        seen.add(id(s))
        s.bind(spec, mode, i)
        strategies.append(s)
    players = list(enumerate(strategies))

    played: list[int] = []  # actions, period-major
    signals: list[int] = []
    private_signals = (
        None if public else np.full((horizon, n, n), -1, dtype=np.int8)
    )
    messages: list[tuple] = []
    # The first firm's promise, one tuple per period, when it walks one.
    track = isinstance(strategies[0], PromiseAutomaton)
    promises: list[tuple] = []

    public_history: list = []
    own_actions: list[list[int]] = [[] for _ in range(n)]
    own_signals: list[list[np.ndarray]] = [[] for _ in range(n)]

    streams = signal_streams(n, mode)
    observer, observed = streams.observer, streams.observed
    p_zero_by_action = signal_kernel(spec, mode)
    bit_weights = np.int64(1) << observed
    # Private mode: P(bit = 0) of every bit, by the mask of disclosers.
    p_zero_by_mask: dict[int, np.ndarray] = {}
    observed_list = observed.tolist()

    for start in range(0, horizon, DRAW_CHUNK_PERIODS):
        count = min(DRAW_CHUNK_PERIODS, horizon - start)
        block = streams.uniforms(seed, start, count, replica)[:, :, 0]
        if public:
            m0 = ((block >= p_zero_by_action[0]) @ bit_weights).tolist()
            m1 = ((block >= p_zero_by_action[1]) @ bit_weights).tolist()

        for k in range(count):
            t = start + k
            if not public:
                round_msgs = tuple(
                    _validate_message(
                        s.next_message(own_actions[i], own_signals[i], messages), i, t, n
                    )
                    for i, s in players
                )
                messages.append(round_msgs)
                public_history.append(round_msgs)

            disclosers = 0
            for i, s in players:
                a = s.next_action(public_history, own_signals[i])
                if type(a) is not int or not 0 <= a <= 1:
                    a = _validate_action(a, i, t)
                played.append(a)
                if a:
                    disclosers |= 1 << i
                if not public:
                    own_actions[i].append(a)
            if track:
                promises.append(strategies[0]._v)

            if public:
                index = (m1[k] & disclosers) | (m0[k] & ~disclosers)
                signals.append(index)
                public_history.append(index)
            else:
                p_zero = p_zero_by_mask.get(disclosers)
                if p_zero is None:
                    p_zero = p_zero_by_action[[(disclosers >> j) & 1 for j in observed_list]]
                    p_zero_by_mask[disclosers] = p_zero
                private_signals[t, observer, observed] = block[k] >= p_zero
                # One copy of the period's matrix; each firm holds its row.
                rows = private_signals[t].copy()
                for i in range(n):
                    own_signals[i].append(rows[i])

    actions = np.array(played, dtype=np.int8).reshape(horizon, n)
    payoffs = spec.stage[actions, actions.sum(axis=1, keepdims=True)]

    return EpisodeTrace(
        mode=mode,
        delta=spec.delta,
        seed=int(seed),
        replica=int(replica),
        u_scale=spec.max_abs_payoff(),
        actions=actions,
        payoffs=payoffs,
        public_signals=np.array(signals, dtype=np.int64) if public else None,
        private_signals=private_signals,
        messages=None if public else tuple(messages),
        promises=np.array(promises) if track else None,
    )


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class MonteCarloResult:
    mean: np.ndarray  # (N,) mean discounted average payoff
    stderr: np.ndarray  # (N,) standard error of the mean
    per_replica: np.ndarray  # (R, N)
    replicas: int
    horizon: int
    base_seed: int
    truncation_bias_bound: float
    backend: str
    halt_periods: np.ndarray | None = None  # (R,) int64, -1 = stayed inside

    @property
    def n_halted(self) -> int:
        if self.halt_periods is None:
            return 0
        return int(np.sum(self.halt_periods >= 0))


def _result(spec: GameSpec, per_replica: np.ndarray, horizon: int, base_seed: int,
            backend: str, halt_periods=None) -> MonteCarloResult:
    """Aggregate per-replica discounted averages in replica order; the
    truncation bound is delta^T times the spec's max |stage payoff|."""
    mean = per_replica.mean(axis=0)
    if per_replica.shape[0] > 1:
        stderr = per_replica.std(axis=0, ddof=1) / math.sqrt(per_replica.shape[0])
    else:
        stderr = np.zeros_like(mean)
    return MonteCarloResult(
        mean=mean,
        stderr=stderr,
        per_replica=per_replica,
        replicas=per_replica.shape[0],
        horizon=horizon,
        base_seed=int(base_seed),
        truncation_bias_bound=spec.delta**horizon * spec.max_abs_payoff(),
        backend=backend,
        halt_periods=halt_periods,
    )


def monte_carlo(
    spec: GameSpec,
    strategies,
    replicas: int,
    horizon: int,
    base_seed: int,
    mode: str = MODE_PUBLIC,
) -> MonteCarloResult:
    """Replicate run_episode over independent substreams (replica = counter
    coordinate, so streams never overlap) and aggregate in replica order."""
    if replicas < 1:
        raise DomainError(f"replicas must be >= 1, got {replicas}")
    per = np.zeros((replicas, spec.n_firms))
    for r in range(replicas):
        clones = [s.clone() for s in strategies]
        trace = run_episode(spec, clones, horizon, base_seed, mode=mode, replica=r)
        per[r] = trace.discounted_average()
    return _result(spec, per, horizon, base_seed, "python")


def monte_carlo_promise(
    spec: GameSpec,
    v0,
    direction,
    replicas: int,
    horizon: int,
    base_seed: int,
) -> MonteCarloResult:
    """Vectorized Monte Carlo of the promise automaton.

    The automaton's constructor checks v0 (finite, inside the region), and
    its ``PromiseDecomposition`` moves the promises: the numpy kernel in
    ``_kernels`` calls its ``outside`` and ``step`` on the replicas still
    inside, together, one period at a time, in groups of
    ``_kernels.GROUP_REPLICAS``, with the group's promises held firm-major
    as an (N, R) array.  A group draws its signals a stream run of
    ``_kernels.STREAM_PERIODS`` periods ahead, in batches of replicas whose
    float64 draws stay within ``_kernels.CHUNK_DRAWS`` values (1 MB), and
    keeps the run as uint8 signal indices (2 MB at the default sizes).  None
    of the three sizes changes a result: replica trajectories are
    bit-identical to running PromiseAutomaton (``on_exit="concede"``)
    through run_episode with the same spec, seed and replica index, and
    each row equals that trace's ``discounted_average()``.  The walk, the
    discounting and the truncation bound all use ``spec.delta``; to run at
    another delta, pass ``dataclasses.replace(spec, delta=d)``.  Replicas
    whose promise leaves the admissible region stop accruing payoff from
    the halt period on (all-conceal continuation); their partial
    discounted sums still enter the aggregate.
    """
    if replicas < 1:
        raise DomainError(f"replicas must be >= 1, got {replicas}")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    auto = PromiseAutomaton(spec, v0, direction, on_exit="concede")
    walk = auto.decomp
    totals, halts = promise_mc(
        seed=int(base_seed),
        replicas=replicas,
        horizon=horizon,
        delta=spec.delta,
        v0=auto.v0,
        p_zero=signal_kernel(spec, MODE_PUBLIC)[np.asarray(walk.action)],
        walk=walk,
    )
    per = (1.0 - spec.delta) * totals
    return _result(spec, per, horizon, base_seed, backend_name(), halts)


# ---------------------------------------------------------------------------
# trace serialization


def write_trace_csv(trace: EpisodeTrace, path) -> None:
    """Serialize a trace to CSV, one row per period.

    A leading comment line carries the episode metadata; floats are written
    with full precision so the file round-trips exactly.
    """
    with open(path, "w", newline="") as fh:
        _write_trace(trace, fh)


def _bit_columns(n: int):
    """Private-mode trace columns ``b_i_j`` in the private bit order, with
    each column's (observer, observed) firm."""
    s = signal_streams(n, MODE_PRIVATE)
    names = [f"b_{i + 1}_{j + 1}" for i, j in zip(s.observer.tolist(), s.observed.tolist())]
    return names, s.observer, s.observed


def _write_trace(trace: EpisodeTrace, fh) -> None:
    """Write the trace CSV of write_trace_csv to an open text stream."""
    n = trace.n_firms
    fh.write(
        f"# mode={trace.mode} delta={trace.delta!r} seed={trace.seed} "
        f"replica={trace.replica} u_scale={trace.u_scale!r} n_firms={n}\n"
    )
    writer = csv.writer(fh, lineterminator="\n")
    bit_names, observer, observed = _bit_columns(n)
    header = ["period"]
    header += [f"action_{i + 1}" for i in range(n)]
    if trace.mode == MODE_PUBLIC:
        header.append("signal_index")
    else:
        header += bit_names
        header += [f"message_{i + 1}" for i in range(n)]
    header += [f"payoff_{i + 1}" for i in range(n)]
    if trace.promises is not None:
        header += [f"promise_{i + 1}" for i in range(n)]
    writer.writerow(header)
    writer.writerows(_trace_rows(trace, observer, observed))


def _trace_rows(trace: EpisodeTrace, observer, observed):
    """The trace's CSV rows, one per period, built as they are written from
    each array's rows.  csv writes a float with ``repr``, so floats keep full
    precision."""
    promises = repeat(()) if trace.promises is None else _row_lists(trace.promises)
    if trace.mode == MODE_PUBLIC:
        signals = ([x] for x in _row_lists(trace.public_signals))
    else:
        bits = _row_lists(trace.private_signals[:, observer, observed])
        signals = (
            b + ["".join(map(str, m)) for m in msgs] for b, msgs in zip(bits, trace.messages)
        )
    rows = zip(_row_lists(trace.actions), signals, _row_lists(trace.payoffs), promises)
    for t, (a, b, u, v) in enumerate(rows):
        yield [t, *a, *b, *u, *v]


_TRACE_META = ("mode", "delta", "seed", "replica", "u_scale", "n_firms")


def read_trace_csv(path) -> EpisodeTrace:
    """Inverse of write_trace_csv; numeric fields round-trip bit for bit.

    A file that write_trace_csv could not have written raises DomainError:
    a metadata key or a column missing, a row whose length is not the
    header's, periods other than 0, 1, ..., T-1 in order, an action,
    private bit or message character other than 0 or 1, a message of the
    wrong length, a public signal index outside [0, 2^N), or a field that
    does not parse.
    """
    try:
        return _read_trace(path)
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(f"malformed trace file: {exc}") from None


def _read_trace(path) -> EpisodeTrace:
    with open(path, newline="") as fh:
        meta_line = fh.readline()
        if not meta_line.startswith("#"):
            raise DomainError("trace file lacks the metadata comment line")
        meta = dict(item.partition("=")[::2] for item in meta_line[1:].split())
        missing = [key for key in _TRACE_META if key not in meta]
        if missing:
            raise DomainError(f"trace metadata lacks {', '.join(missing)}")
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError("trace file lacks the header row")
        rows = [row for row in reader if row]
    n = int(meta["n_firms"])
    mode = meta["mode"]
    if mode not in (MODE_PUBLIC, MODE_PRIVATE):
        raise DomainError(
            f"trace mode must be '{MODE_PUBLIC}' or '{MODE_PRIVATE}', got {mode!r}"
        )
    # Every firm has an action column, so a larger n cannot fit the header.
    if not 1 <= n <= len(header):
        raise DomainError(f"trace n_firms={n} does not fit its {len(header)} columns")
    public = mode == MODE_PUBLIC
    col = {name: k for k, name in enumerate(header)}
    track = "promise_1" in col
    firms = range(1, n + 1)
    bit_names, observer, observed = _bit_columns(n) if not public else ([], None, None)
    names = ["period", *(f"action_{i}" for i in firms), *(f"payoff_{i}" for i in firms)]
    names += ["signal_index"] if public else bit_names + [f"message_{i}" for i in firms]
    names += [f"promise_{i}" for i in firms] if track else []
    missing = [name for name in names if name not in col]
    if missing:
        raise DomainError(f"trace file lacks the columns {', '.join(missing)}")

    def columns(prefix):
        return [col[f"{prefix}_{i}"] for i in firms]

    horizon = len(rows)
    actions = np.zeros((horizon, n), dtype=np.int8)
    payoffs = np.zeros((horizon, n))
    public_signals = np.zeros(horizon, dtype=np.int64) if public else None
    private_signals = None if public else np.full((horizon, n, n), -1, dtype=np.int8)
    messages: list[tuple] = []
    promises = np.zeros((horizon, n)) if track else None
    for t, row in enumerate(rows):
        if len(row) != len(header):
            raise DomainError(f"trace row {t} has {len(row)} fields, the header {len(header)}")
        if int(row[col["period"]]) != t:
            raise DomainError(
                f"trace row {t} is period {row[col['period']]}: periods must run "
                "0, 1, ..., T-1 in order"
            )
        actions[t] = _trace_bits([row[c] for c in columns("action")], t, "an action")
        payoffs[t] = [float(row[c]) for c in columns("payoff")]
        if track:
            promises[t] = [float(row[c]) for c in columns("promise")]
        if public:
            index = int(row[col["signal_index"]])
            if not 0 <= index < 1 << n:
                raise DomainError(
                    f"trace period {t}: signal index {index} is not in [0, 2^{n})"
                )
            public_signals[t] = index
        else:
            bits = _trace_bits([row[col[name]] for name in bit_names], t, "a private bit")
            private_signals[t, observer, observed] = bits
            width = 0 if t == 0 else n - 1
            round_msgs = []
            for c in columns("message"):
                if len(row[c]) != width:
                    raise DomainError(f"trace period {t}: a message is not {width} bits")
                round_msgs.append(tuple(_trace_bits(row[c], t, "a message bit")))
            messages.append(tuple(round_msgs))
    return EpisodeTrace(
        mode=mode,
        delta=float(meta["delta"]),
        seed=int(meta["seed"]),
        replica=int(meta["replica"]),
        u_scale=float(meta["u_scale"]),
        actions=actions,
        payoffs=payoffs,
        public_signals=public_signals,
        private_signals=private_signals,
        messages=None if public else tuple(messages),
        promises=promises,
    )


def _trace_bits(fields, t: int, what: str) -> list[int]:
    """The fields of period t as ints, each 0 or 1, or DomainError."""
    bits = [int(x) for x in fields]
    if not set(bits) <= _BITS:
        raise DomainError(f"trace period {t}: {what} is not 0 or 1")
    return bits
