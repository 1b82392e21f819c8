"""Repeated-play engine: strategies, episodes, Monte Carlo, count and promise automata.

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

All draws are addressed by (seed, period, slot, replica) in the layout of
``monitoring.signal_streams``; period t is word t % 4 of the Philox block
at counter (t // 4, slot, replica, 0) (``rng``).  So a trace is
reproducible bit for bit and every Monte Carlo replica has an independent
substream by construction.

``monte_carlo`` is the one Monte Carlo entry.  When every firm plays one
count automaton table on truthful messages, or one conceding promise
automaton (``monte_carlo_promise`` builds such a profile), it hands all
replicas to the numpy driver of ``_kernels``, which steps them in groups
along the count table or the promise walk; every other profile runs
``run_episode`` once per replica.  Either way each row is that replica's
``discounted_average()`` bit for bit: every sum runs in period order, and a
trace's is ``_kernels._accrual``, the kernels' own.
"""

from __future__ import annotations

import copy
import csv
import functools
import io
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import _kernels
from ._kernels import backend_name, count_mc, promise_mc
from .decompose import REGION_TOL, PromiseDecomposition
from .errors import CapacityError, DiscountTooSmallError, DomainError, ProtocolError
from .game import (GameSpec, _as_array, _listed, _shown, validate_bits, validate_count,
                   validate_discount, validate_positive, validate_vector)
from .monitoring import MODE_PRIVATE, MODE_PUBLIC, signal_kernel, signal_streams, validate_mode
from .rng import WORDS, threshold

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
        return _copy(self, deep=True)


def _copy(strategy, deep: bool = False):
    """A copy of ``strategy``, shallow or deep, its attributes set one at a
    time as ``__init__`` sets them.  ``copy.copy`` and ``copy.deepcopy``
    fill a new ``__dict__`` instead, and CPython then reads each attribute
    of the copy on a slower path, in every firm's step of every period."""
    attrs = copy.deepcopy(vars(strategy)) if deep else vars(strategy)
    new = type(strategy).__new__(type(strategy))
    for name, value in attrs.items():
        setattr(new, name, value)
    return new


# A count automaton's transition table holds at most this many entries
# (states times counts), 2 MB of intp.
COUNT_TABLE_MAX_ENTRIES = 2**18


@dataclass(frozen=True, eq=False)
class CountTable:
    """The rule of a count automaton, checked once and never changed.

    ``action[s]`` (0 or 1) is played in state s, ``next_state[s, c]`` is the
    state after a history entry with c zero bits, for c = 0 .. max_count,
    and ``initial`` is the state before any entry.  The arrays are stored
    read-only, as int8 and intp, so clones of a strategy share the table.
    """

    action: np.ndarray
    next_state: np.ndarray
    initial: int
    # Tuples for the per-firm step: the actions, and whether each state is
    # one that every count leaves alone, so it needs no counting.
    actions: tuple = field(init=False, repr=False)
    absorbing: tuple = field(init=False, repr=False)

    def __post_init__(self):
        action = validate_bits(self.action, "count table action")
        if action.ndim != 1 or not action.size:
            raise DomainError(
                f"count table action must hold one bit per state, got shape {action.shape}"
            )
        states = action.size
        next_state = _as_array(self.next_state, "count table next_state")
        if not (
            next_state.ndim == 2 and next_state.shape[0] == states
            and next_state.dtype.kind in "iu"
            and ((next_state >= 0) & (next_state < states)).all()
        ):
            raise DomainError(
                f"count table next_state must be an ({states}, max_count + 1) integer "
                f"array of states in [0, {states})"
            )
        validate_count(self.initial, "count table initial state", 0, states)
        action, next_state = action.astype(np.int8), next_state.astype(np.intp)
        action.flags.writeable = next_state.flags.writeable = False
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "next_state", next_state)
        object.__setattr__(self, "initial", int(self.initial))
        object.__setattr__(self, "actions", tuple(action.tolist()))
        object.__setattr__(
            self, "absorbing",
            tuple((next_state == np.arange(states)[:, None]).all(axis=1).tolist()),
        )

    def same(self, other: "CountTable") -> bool:
        """Whether ``other`` is the same rule, entry for entry."""
        return self is other or (
            self.initial == other.initial
            and np.array_equal(self.action, other.action)
            and np.array_equal(self.next_state, other.next_state)
        )


class CountAutomaton(Strategy):
    """Public strategy whose state moves on the zero bits of each history entry.

    An entry is a public signal index (N bits) in public mode and a message
    round in private mode (N(N - 1) bits when reports are truthful, none in
    period 0), so an entry holds at most max_count = N or N(N - 1) zero
    bits.  ``bind`` asks ``table(max_count)`` for the rule, a CountTable
    with max_count + 1 count columns; a subclass defines ``table``.  Copies
    share the table and hold the state as plain ints, so ``clone`` is a
    shallow copy.

    When every firm plays one table and none overrides ``next_action`` or
    ``next_message``, ``monte_carlo`` steps all replicas at once on it.
    """

    def table(self, max_count: int) -> CountTable:
        raise NotImplementedError

    def bind(self, spec, mode, firm):
        super().bind(spec, mode, firm)
        n = spec.n_firms
        max_count = n if mode == MODE_PUBLIC else n * (n - 1)
        table = self.table(max_count)
        if not (isinstance(table, CountTable) and table.next_state.shape[1] == max_count + 1):
            raise DomainError(
                f"{type(self).__name__}.table({max_count}) must return a CountTable "
                f"with {max_count + 1} count columns"
            )
        self.count_table = table
        self._actions, self._absorbing = table.actions, table.absorbing
        self._zeros = _public_zeros if mode == MODE_PUBLIC else _round_zeros
        self._state = table.initial
        self._seen = 0

    def clone(self) -> "CountAutomaton":
        return _copy(self)

    def next_action(self, public_history, private_history) -> int:
        z = self._state
        if self._absorbing[z]:
            return self._actions[z]
        n, zeros, step = self.spec.n_firms, self._zeros, self.count_table.next_state.item
        for entry in public_history[self._seen:]:
            z = step(z, zeros(entry, n))
        self._state = z
        self._seen = len(public_history)
        return self._actions[z]


def _public_zeros(index, n: int) -> int:
    """Zero bits of an N-bit public signal index."""
    return n - int(index).bit_count()


def _round_zeros(messages, n: int) -> int:
    """Zero bits of a message round, one bit tuple per firm."""
    return sum([m.count(0) for m in messages])


@functools.lru_cache(maxsize=64)
def _constant_table(action: int, max_count: int) -> CountTable:
    """One state that plays ``action`` whatever it sees."""
    return CountTable([action], np.zeros((1, max_count + 1), dtype=np.intp), 0)


@functools.lru_cache(maxsize=16)
def _trigger_table(threshold: int, max_count: int) -> CountTable:
    """States 0 .. K - 1 count the zeros seen and disclose; state K conceals
    for good."""
    if (threshold + 1) * (max_count + 1) > COUNT_TABLE_MAX_ENTRIES:
        raise CapacityError(
            f"trigger threshold {threshold} needs a count table of {threshold + 1} states by "
            f"{max_count + 1} counts, over the cap of {COUNT_TABLE_MAX_ENTRIES} entries "
            "(math.inf never fires)"
        )
    s = np.arange(threshold + 1)
    return CountTable(s < threshold, np.minimum(s[:, None] + np.arange(max_count + 1), threshold), 0)


class AlwaysDisclose(CountAutomaton):
    def table(self, max_count: int) -> CountTable:
        return _constant_table(1, max_count)


class AlwaysConceal(CountAutomaton):
    def table(self, max_count: int) -> CountTable:
        return _constant_table(0, max_count)


class SignalTrigger(CountAutomaton):
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

    The table has K + 1 states, K the threshold, or one for ``math.inf``.
    A table past COUNT_TABLE_MAX_ENTRIES entries raises CapacityError at
    bind.
    """

    def __init__(self, threshold):
        if threshold != math.inf:
            validate_count(threshold, "trigger threshold (a positive integer or math.inf)")
        self.threshold = threshold

    def table(self, max_count: int) -> CountTable:
        if self.threshold == math.inf:
            return _constant_table(1, max_count)
        return _trigger_table(int(self.threshold), max_count)


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
    the walk and the trace discount at the same delta.  When every firm
    plays a conceding clone of one automaton, ``monte_carlo`` steps all
    replicas at once on the decomposition.
    """

    is_public = True

    def __init__(self, spec: GameSpec, v0, direction, on_exit: str = "raise"):
        if on_exit not in ("raise", "concede"):
            raise DomainError(f"on_exit must be 'raise' or 'concede', got {_shown(on_exit)}")
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
        return _copy(self)

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

        The sum is ``_kernels._accrual``, the kernels' running sum in period
        order, so a trace recomputes its replica's Monte Carlo row bit for
        bit.
        """
        d = self.delta
        rows, _ = _kernels._accrual(np.zeros(self.n_firms), 1.0, d, self.payoffs, self.horizon)
        return (1.0 - d) * rows[-1]

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


def _bind_strategies(spec: GameSpec, strategies, horizon: int, mode: str) -> list:
    """Check an episode's arguments, as run_episode does before any draw, and
    return its strategies bound to firms 0 .. N - 1."""
    validate_mode(mode)
    validate_count(horizon, "horizon")
    n = spec.n_firms
    supplied = _listed(strategies, "strategies", f"a sequence of {n} strategies")
    if len(supplied) != n:
        raise DomainError(f"need {n} strategies, got {len(supplied)}")
    if mode == MODE_PUBLIC and n > PUBLIC_MAX_FIRMS:
        raise CapacityError(
            f"public play is capped at N <= {PUBLIC_MAX_FIRMS}: the trace stores "
            f"an N-bit signal index as int64; got N = {n}"
        )
    # A repeated instance would have its bound firm index overwritten, so
    # each firm it is passed for runs its own clone, and the instance itself
    # stays unbound.  Copying it puts its attributes on CPython's slower
    # path, so playing it beside its clones would slow every period.
    uses: dict[int, int] = {}
    for s in supplied:
        uses[id(s)] = uses.get(id(s), 0) + 1
    bound = [s.clone() if uses[id(s)] > 1 else s for s in supplied]
    for i, s in enumerate(bound):
        s.bind(spec, mode, i)
    return bound


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

    The signal uniforms are drawn ahead of play in the kernels' stream runs
    of ``_kernels.STREAM_PERIODS`` periods, read at call time: one call
    reads a run from the stream of every bit of
    ``monitoring.signal_streams``.  Being addressed by (period, slot,
    replica) they are the same bits a per-period draw would give.  Its
    seeds and replicas are every draw path's, [0, ``rng.WORDS``), checked
    by the first draw.

    A period is played on Python ints.  In public mode each block is read
    into two signal indices per period, ``m0`` with every firm concealing
    and ``m1`` with every firm disclosing (firm j's bit is 1 when its
    uniform is at least P(bit = 0) under that action, compared as 53-bit
    integers through ``rng.threshold``), so a period whose
    disclosers form the bit mask A has index (m1 & A) | (m0 & ~A).  The
    index is stored in the trace's int64 column, so public play refuses
    more than PUBLIC_MAX_FIRMS firms with CapacityError before any draw.
    Private mode compares each period's uniforms with P(bit = 0) of the
    observed firms' actions, likewise as integers.
    """
    strategies = _bind_strategies(spec, strategies, horizon, mode)
    n = spec.n_firms
    public = mode == MODE_PUBLIC
    players = list(enumerate(strategies))

    played: list[int] = []  # actions, period-major
    private_signals = (
        None if public else np.full((horizon, n, n), -1, dtype=np.int8)
    )
    # The first firm's promise, one tuple per period, when it walks one.
    track = isinstance(strategies[0], PromiseAutomaton)
    promises: list[tuple] = []

    # Signal indices in public mode, message rounds in private mode.
    public_history: list = []
    own_actions: list[list[int]] = [[] for _ in range(n)]
    own_signals: list[list[np.ndarray]] = [[] for _ in range(n)]

    streams = signal_streams(n, mode)
    observer, observed = streams.observer, streams.observed
    # threshold(P(bit = 0)) by action: a bit is 1 when its draw reaches it.
    k_zero_by_action = threshold(signal_kernel(spec, mode))
    bit_weights = np.int64(1) << observed
    # Private mode: every bit's threshold, by the mask of disclosers.
    k_zero_by_mask: dict[int, np.ndarray] = {}
    observed_list = observed.tolist()

    run = _kernels.STREAM_PERIODS
    for start in range(0, horizon, run):
        count = min(run, horizon - start)
        block = streams.uniforms(seed, start, count, replica)[:, :, 0]
        if public:
            m0 = ((block >= k_zero_by_action[0]) @ bit_weights).tolist()
            m1 = ((block >= k_zero_by_action[1]) @ bit_weights).tolist()

        for k in range(count):
            t = start + k
            if not public:
                round_msgs = tuple(
                    _validate_message(
                        s.next_message(own_actions[i], own_signals[i], public_history),
                        i, t, n,
                    )
                    for i, s in players
                )
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
                public_history.append((m1[k] & disclosers) | (m0[k] & ~disclosers))
            else:
                k_zero = k_zero_by_mask.get(disclosers)
                if k_zero is None:
                    k_zero = k_zero_by_action[[(disclosers >> j) & 1 for j in observed_list]]
                    k_zero_by_mask[disclosers] = k_zero
                private_signals[t, observer, observed] = block[k] >= k_zero
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
        public_signals=np.array(public_history, dtype=np.int64) if public else None,
        private_signals=private_signals,
        messages=None if public else tuple(public_history),
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
    coordinate, so streams never overlap) and aggregate in replica order.

    Two kinds of profile step all replicas at once in ``_kernels`` (backend
    "numpy"):

    * every firm plays the same count automaton table and none overrides
      ``next_action`` or ``next_message`` (so reports are truthful): every
      firm plays the same action in every period (``_kernels.count_mc``);
    * every firm plays a PromiseAutomaton with ``on_exit="concede"`` whose
      class keeps ``next_action``, all on one decomposition and one v0, as
      clones of one automaton are: the promise walk
      (``_kernels.promise_mc``), which also returns each replica's halt
      period.

    Each row equals run_episode's ``discounted_average()`` bit for bit.
    Any other strategy list runs run_episode once per replica (backend
    "python").
    """
    validate_count(replicas, "replicas")
    strategies = _listed(strategies, "strategies", f"a sequence of {spec.n_firms} strategies")
    # Bound clones raise what the first replica's run_episode would.
    bound = _bind_strategies(spec, [s.clone() for s in strategies], horizon, mode)
    n = spec.n_firms
    table = _shared_count_table(bound)
    if table is not None:
        totals = count_mc(seed=base_seed, replicas=replicas, horizon=horizon, spec=spec,
                          mode=mode, table=table)
        per = np.repeat(((1.0 - spec.delta) * totals)[:, None], n, axis=1)
        return _result(spec, per, horizon, base_seed, backend_name())
    auto = _shared_promise(bound)
    if auto is not None:
        totals, halts = promise_mc(seed=base_seed, replicas=replicas, horizon=horizon,
                                   v0=auto.v0, walk=auto.decomp)
        return _result(spec, (1.0 - spec.delta) * totals, horizon, base_seed,
                       backend_name(), halts)
    per = np.zeros((replicas, n))
    for r in range(replicas):
        clones = [s.clone() for s in strategies]
        trace = run_episode(spec, clones, horizon, base_seed, mode=mode, replica=r)
        per[r] = trace.discounted_average()
    return _result(spec, per, horizon, base_seed, "python")


def _shared_count_table(strategies) -> CountTable | None:
    """The table every bound strategy plays, when all are count automata
    on the package's step and truthful messages; else None."""
    for s in strategies:
        cls = type(s)
        if not (
            isinstance(s, CountAutomaton)
            and cls.next_action is CountAutomaton.next_action
            and cls.next_message is Strategy.next_message
            and s.count_table.same(strategies[0].count_table)
        ):
            return None
    return strategies[0].count_table


def _shared_promise(strategies) -> PromiseAutomaton | None:
    """The first bound strategy, when all are conceding promise automata on
    the package's step that share its decomposition and v0; else None."""
    first = strategies[0]
    for s in strategies:
        if not (
            isinstance(s, PromiseAutomaton)
            and type(s).next_action is PromiseAutomaton.next_action
            and s.on_exit == "concede"
            and s.decomp is first.decomp
            and s.v0 == first.v0
        ):
            return None
    return first


def monte_carlo_promise(
    spec: GameSpec,
    v0,
    direction,
    replicas: int,
    horizon: int,
    base_seed: int,
) -> MonteCarloResult:
    """Monte Carlo of the promise automaton from v0 along ``direction``.

    Checks replicas, then horizon, then builds
    ``PromiseAutomaton(spec, v0, direction, on_exit="concede")``, which
    checks v0 (finite, inside the region), and runs ``monte_carlo`` with
    that automaton for every firm, so all replicas walk together in
    ``_kernels.promise_mc``.  Each row is bit for bit that replica's
    run_episode ``discounted_average()``, and ``halt_periods`` holds the
    first period each replica's promise left the admissible region, or -1.
    From the halt period on, a replica plays all-conceal and accrues
    nothing; its partial discounted sum still enters the aggregate.  The
    walk, the discounting and the truncation bound all use ``spec.delta``;
    to run at another delta, pass ``dataclasses.replace(spec, delta=d)``.
    """
    validate_count(replicas, "replicas")
    validate_count(horizon, "horizon")
    auto = PromiseAutomaton(spec, v0, direction, on_exit="concede")
    return monte_carlo(spec, [auto] * spec.n_firms, replicas, horizon, base_seed)


# ---------------------------------------------------------------------------
# trace serialization


def write_trace_csv(trace: EpisodeTrace, path) -> None:
    """Serialize a trace to CSV, one row per period.

    A leading comment line carries the episode metadata; floats are written
    with full precision so the file round-trips exactly.
    """
    with open(path, "w", newline="") as fh:
        _write_trace(trace, fh)


def _header(n: int, mode: str, track: bool) -> list[str]:
    """The trace CSV's column names for ``n`` firms; private bits ``b_i_j``
    come in the private bit order, and promises only when ``track``."""
    firms = range(1, n + 1)
    header = ["period", *(f"action_{i}" for i in firms)]
    if mode == MODE_PUBLIC:
        header.append("signal_index")
    else:
        s = signal_streams(n, MODE_PRIVATE)
        header += [f"b_{i + 1}_{j + 1}" for i, j in zip(s.observer.tolist(), s.observed.tolist())]
        header += [f"message_{i}" for i in firms]
    header += [f"payoff_{i}" for i in firms]
    if track:
        header += [f"promise_{i}" for i in firms]
    return header


def _write_trace(trace: EpisodeTrace, fh) -> None:
    """Write the trace CSV of write_trace_csv to an open text stream."""
    n = trace.n_firms
    fh.write(
        f"# mode={trace.mode} delta={float(trace.delta)!r} seed={trace.seed} "
        f"replica={trace.replica} u_scale={float(trace.u_scale)!r} n_firms={n}\n"
    )
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_header(n, trace.mode, trace.promises is not None))
    writer.writerows(_trace_rows(trace))


def _trace_rows(trace: EpisodeTrace):
    """The trace's CSV rows, one per period, built as they are written from
    each array's rows.  csv writes a float with ``repr``, so floats keep full
    precision."""
    promises = repeat(()) if trace.promises is None else _row_lists(trace.promises)
    if trace.mode == MODE_PUBLIC:
        signals = ([x] for x in _row_lists(trace.public_signals))
    else:
        s = signal_streams(trace.n_firms, MODE_PRIVATE)
        bits = _row_lists(trace.private_signals[:, s.observer, s.observed])
        signals = (
            b + ["".join(map(str, m)) for m in msgs] for b, msgs in zip(bits, trace.messages)
        )
    rows = zip(_row_lists(trace.actions), signals, _row_lists(trace.payoffs), promises)
    for t, (a, b, u, v) in enumerate(rows):
        yield [t, *a, *b, *u, *v]


def read_trace_csv(path) -> EpisodeTrace:
    """Inverse of write_trace_csv; numeric fields round-trip bit for bit.

    The file reads only if it is the exact text write_trace_csv writes for
    the trace it holds: the reader parses it, writes the parsed trace back
    and compares.  The rewrite cannot see a value it writes as read, so
    these are checked as well: the metadata line passes the checks of a
    run (the mode ``validate_mode``'s, N >= 2 and delta in (0, 1) GameSpec's,
    a finite u_scale > 0, and seed and replica in [0, ``rng.WORDS``), the
    draws'), actions, private bits and message characters are 0 or 1, a
    message is 0 bits wide at period 0 and N - 1 after, and a public signal
    index lies in [0, 2^N).  Any other file, a CRLF one included, raises
    DomainError.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
        trace = _parse_trace(text)
    except DomainError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        raise DomainError(f"malformed trace file: {type(exc).__name__}: {exc}") from None
    out = io.StringIO()
    _write_trace(trace, out)
    if out.getvalue() != text:
        raise DomainError("trace file is not the text write_trace_csv writes for its trace")
    return trace


def _parse_trace(text: str) -> EpisodeTrace:
    """The trace a trace file's text holds, its body read by position."""
    # Every line the writer writes ends in "\n"; a file that does not end so
    # loses its last line here and fails the rewrite.
    meta_line, header_line, *lines = text.split("\n")[:-1]
    if not meta_line.startswith("#"):
        raise DomainError("trace file lacks the metadata comment line")
    meta = dict(item.split("=", 1) for item in meta_line[1:].split())
    # A file no run could have written is refused by the rules a run obeys.
    mode, n = meta["mode"], int(meta["n_firms"])
    delta, u_scale = float(meta["delta"]), float(meta["u_scale"])
    seed, replica = int(meta["seed"]), int(meta["replica"])
    validate_mode(mode, "trace mode")
    validate_count(n, "trace n_firms", lo=2)
    validate_discount(delta, "trace delta")
    validate_positive(u_scale, "trace u_scale")
    validate_count(seed, "trace seed", 0, WORDS)
    validate_count(replica, "trace replica", 0, WORDS)
    header = header_line.split(",")
    # The writer's column count for n, without promises: the header's length
    # rules out every other n before any column name or layout is built.
    columns = 2 * n + 2 if mode == MODE_PUBLIC else (n + 1) ** 2
    track = len(header) == columns + n
    if not (track or len(header) == columns) or header != _header(n, mode, track):
        raise DomainError(f"trace header is not the one of {n} firms in {mode} mode")
    horizon = len(lines)
    body = np.array([line.split(",") for line in lines], dtype=str).reshape(horizon, len(header))

    def bits(first, count, what):
        return validate_bits(body[:, first:first + count].astype(np.int64), f"trace {what}")

    actions = bits(1, n, "action").astype(np.int8)
    pay = header.index("payoff_1")
    payoffs = body[:, pay:pay + n].astype(np.float64)
    promises = body[:, pay + n:].astype(np.float64) if track else None
    if mode == MODE_PUBLIC:
        public_signals = body[:, n + 1].astype(np.int64)
        if ((public_signals < 0) | (public_signals >= 1 << n)).any():
            raise DomainError(f"trace signal index is not in [0, 2^{n})")
        private_signals = messages = None
    else:
        public_signals = None
        s = signal_streams(n, MODE_PRIVATE)
        private_signals = np.full((horizon, n, n), -1, dtype=np.int8)
        private_signals[:, s.observer, s.observed] = bits(n + 1, n * (n - 1), "private bit")
        words = body[:, pay - n:pay].tolist()
        for t, row in enumerate(words):
            width = 0 if t == 0 else n - 1
            if any(len(m) != width or m.strip("01") for m in row):
                raise DomainError(f"trace period {t}: a message is not {width} bits of 0 or 1")
        messages = tuple(tuple(tuple(map(int, m)) for m in row) for row in words)
    return EpisodeTrace(
        mode=mode,
        delta=delta,
        seed=seed,
        replica=replica,
        u_scale=u_scale,
        actions=actions,
        payoffs=payoffs,
        public_signals=public_signals,
        private_signals=private_signals,
        messages=messages,
        promises=promises,
    )
