"""Episodes, strategies, the promise automaton, and trace serialization."""

import math
import statistics
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from count_oracle import truncated_value

from npdshare import (
    AlwaysConceal,
    AlwaysDisclose,
    CountAutomaton,
    CountTable,
    EpisodeTrace,
    GameSpec,
    LinearGain,
    PromiseAutomaton,
    SignalTrigger,
    Strategy,
    monte_carlo,
    monte_carlo_promise,
    profile_payoff,
    public_signal_distribution,
    read_trace_csv,
    run_episode,
    write_trace_csv,
)
from npdshare import _kernels, engine, rng
from npdshare.engine import PUBLIC_MAX_FIRMS
from npdshare.monitoring import signal_streams
from npdshare.errors import CapacityError, DiscountTooSmallError, DomainError, ProtocolError

SURVIVOR_SEED = 11  # stays inside the admissible region for 2000 periods
HALTING_SEED = 0  # leaves the region at period 276 under delta = 0.99


# ---------------------------------------------------------------------------
# baseline strategies and episode mechanics


def test_episode_is_deterministic(spec2):
    t1 = run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 50, seed=3)
    t2 = run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 50, seed=3)
    assert np.array_equal(t1.public_signals, t2.public_signals)
    assert np.array_equal(t1.payoffs, t2.payoffs)
    t3 = run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 50, seed=4)
    assert not np.array_equal(t1.public_signals, t3.public_signals)


def test_payoffs_follow_profile(spec2):
    trace = run_episode(spec2, [AlwaysDisclose(), AlwaysConceal()], 10, seed=0)
    assert np.all(trace.actions[:, 0] == 1)
    assert np.all(trace.actions[:, 1] == 0)
    assert np.allclose(trace.payoffs, np.tile([-1.0, 3.0], (10, 1)))


def test_shared_instance_is_cloned_per_firm(spec3):
    shared = SignalTrigger(3)
    trace = run_episode(spec3, [shared, shared, shared], 30, seed=12)
    # all three run the same public rule, so their actions coincide
    assert np.all(trace.actions.min(axis=1) == trace.actions.max(axis=1))


def test_signal_trigger_fires_and_latches(spec2):
    trace = run_episode(spec2, [SignalTrigger(2), SignalTrigger(2)], 200, seed=7)
    zeros = np.cumsum([2 - int(b).bit_count() for b in trace.public_signals])
    fired = np.where(zeros >= 2)[0]
    assert len(fired) > 0
    first = int(fired[0])
    assert np.all(trace.actions[: first + 1] == 1)
    assert np.all(trace.actions[first + 1 :] == 0)


def test_signal_trigger_infinite_never_fires(spec2):
    t1 = run_episode(spec2, [SignalTrigger(math.inf), SignalTrigger(math.inf)], 60, seed=5)
    t2 = run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 60, seed=5)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.public_signals, t2.public_signals)


@pytest.mark.parametrize("replica", [-1, 2**64, 1.5, True])
def test_run_episode_rejects_replicas_outside_64_bits(spec2, replica):
    with pytest.raises(DomainError, match="replica must lie in"):
        run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 5, seed=1, replica=replica)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_run_episode_rejects_seeds_outside_64_bits(spec2, seed):
    for mode in ("public", "private"):
        with pytest.raises(DomainError, match="seed must lie in"):
            run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 5, seed=seed, mode=mode)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_monte_carlo_promise_rejects_seeds_outside_64_bits(spec2_patient, seed):
    with pytest.raises(DomainError, match="seed must lie in"):
        monte_carlo_promise(
            spec2_patient, (2.0, 2.0), (1.0, 1.0), replicas=2, horizon=5, base_seed=seed
        )


@pytest.mark.parametrize("seed", [-1, 2**64, 2.5, True])
def test_monte_carlo_rejects_seeds_outside_64_bits(spec2, seed):
    with pytest.raises(DomainError, match="seed must lie in"):
        monte_carlo(spec2, [AlwaysDisclose(), AlwaysDisclose()], replicas=2, horizon=5,
                    base_seed=seed)


@pytest.mark.parametrize("run, name, value", [
    pytest.param(run, name, value, id=f"{run}-{name}-{value!r}")
    for run in ("run_episode", "monte_carlo", "monte_carlo_promise")
    for name, value in [("replicas", 2.0), ("replicas", True), ("horizon", 5.0),
                        ("horizon", True), ("horizon", np.True_)]
    if (run, name) != ("run_episode", "replicas")
])
def test_engine_rejects_counts_that_are_not_integers(spec2_patient, run, name, value):
    # A float or a bool is no count: each was truncated or raised TypeError.
    kw = {"horizon": 5} if run == "run_episode" else {"replicas": 2, "horizon": 5}
    kw[name] = value
    pair = [AlwaysDisclose(), AlwaysDisclose()]
    with pytest.raises(DomainError, match=f"{name} must be an integer >= 1"):
        if run == "run_episode":
            run_episode(spec2_patient, pair, seed=1, **kw)
        elif run == "monte_carlo":
            monte_carlo(spec2_patient, pair, base_seed=1, **kw)
        else:
            monte_carlo_promise(spec2_patient, (2.0, 2.0), (1.0, 1.0), base_seed=1, **kw)


def test_signal_trigger_validates_threshold():
    # A bool is an int, but True is no threshold of 1.
    for bad in (0, 2.5, True, np.True_):
        with pytest.raises(DomainError, match="positive integer"):
            SignalTrigger(bad)
    assert SignalTrigger(np.int64(1)).threshold == 1


def test_discounted_average_geometric(spec2):
    trace = run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 40, seed=1)
    # constant payoff stream of 2: truncated average is 2 (1 - delta^T)
    expect = 2.0 * (1.0 - 0.9**40)
    assert np.allclose(trace.discounted_average(), expect, atol=1e-12)
    assert trace.truncation_bias_bound() == pytest.approx(0.9**40 * 3.0)


def _running_sum(payoffs, delta):
    """The numpy running sum that discounted_average replaced: the oracle."""
    acc = np.zeros(payoffs.shape[1])
    w = 1.0
    for t in range(payoffs.shape[0]):
        acc += w * payoffs[t]
        w = w * delta
    return (1.0 - delta) * acc


def _payoff_trace(payoffs, delta):
    horizon, n = payoffs.shape
    return EpisodeTrace(
        mode="public", delta=delta, seed=0, replica=0, u_scale=1.0,
        actions=np.zeros((horizon, n), dtype=np.int8), payoffs=payoffs,
        public_signals=np.zeros(horizon, dtype=np.int64), private_signals=None,
        messages=None, promises=None,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_discounted_average_matches_numpy_running_sum_bitwise(n):
    gen = np.random.default_rng(100 + n)
    for horizon in (1, 2, 17, 1500):
        # Payoffs across twelve decades, with exact zeros, negative zeros
        # and repeated values as a stage table gives them.
        payoffs = gen.normal(size=(horizon, n)) * 10.0 ** gen.integers(-6, 6, (horizon, n))
        payoffs[gen.random((horizon, n)) < 0.1] = 0.0
        payoffs[gen.random((horizon, n)) < 0.1] = -0.0
        payoffs[gen.random(horizon) < 0.3] = payoffs[0]
        for delta in (0.5, float(gen.uniform(0.9, 0.9999)), 0.999):
            got = _payoff_trace(payoffs, delta).discounted_average()
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.tobytes() == _running_sum(payoffs, delta).tobytes(), (horizon, delta)


def _loop_average(payoffs, delta):
    """A Python loop over the periods, in period order, on Python floats:
    the oracle of discounted_average."""
    acc = [0.0] * payoffs.shape[1]
    w = 1.0
    for row in payoffs.tolist():
        acc = [a + w * x for a, x in zip(acc, row)]
        w = w * delta
    return (1.0 - delta) * np.array(acc)


def test_discounted_average_is_the_loop_bitwise_on_random_traces():
    # 1000 traces with T from 1 to 3000 (log-uniform, both ends included),
    # N from 1 to 6 and delta across (0, 1), many near 1.  Payoffs mix
    # magnitudes near 1e-300 (weighted terms can go subnormal), near 1 and
    # near 1e300 (no sum overflows), with exact zeros, negative zeros and
    # repeated rows.
    gen = np.random.default_rng(2024)
    bands = np.array([-300, 0, 290])
    for k in range(1000):
        horizon = (1, 3000)[k] if k < 2 else int(round(3000.0 ** gen.random()))
        n = int(gen.integers(1, 7))
        if gen.random() < 0.5:
            delta = float(gen.uniform(1e-9, 1.0))
        else:
            delta = 1.0 - 10.0 ** -gen.uniform(1.0, 9.0)
        exponent = gen.choice(bands, (horizon, n)) + gen.integers(0, 11, (horizon, n))
        payoffs = gen.normal(size=(horizon, n)) * 10.0 ** exponent.astype(float)
        payoffs[gen.random((horizon, n)) < 0.1] = 0.0
        payoffs[gen.random((horizon, n)) < 0.1] = -0.0
        payoffs[gen.random(horizon) < 0.2] = payoffs[0]
        got = _payoff_trace(payoffs, delta).discounted_average()
        assert got.tobytes() == _loop_average(payoffs, delta).tobytes(), (k, horizon, n, delta)


def test_discounted_average_of_a_header_only_trace_file(tmp_path):
    # A trace file with no period rows reads as a zero-row trace, whose
    # average is the loop's zero vector.
    path = tmp_path / "empty.csv"
    path.write_text(
        "# mode=public delta=0.99 seed=0 replica=0 u_scale=3.0 n_firms=2\n"
        "period,action_1,action_2,signal_index,payoff_1,payoff_2\n"
    )
    trace = read_trace_csv(path)
    assert trace.horizon == 0
    got = trace.discounted_average()
    assert got.tobytes() == _loop_average(trace.payoffs, 0.99).tobytes()


def test_monte_carlo_replica_zero_matches_episode(spec2):
    mc = monte_carlo(spec2, [AlwaysDisclose(), AlwaysConceal()], 4, 30, base_seed=9)
    trace = run_episode(
        spec2, [AlwaysDisclose(), AlwaysConceal()], 30, seed=9, replica=0
    )
    assert np.array_equal(mc.per_replica[0], trace.discounted_average())
    assert mc.replicas == 4 and mc.backend == "python"


def test_a_repeated_instance_plays_one_clone_per_firm(spec3, spec2_patient):
    # Each firm a repeated instance is passed for runs its own clone, and
    # the instance itself stays unbound: the trace is the one of separate
    # instances.
    cases = [(spec3, mode, make) for mode in ("public", "private")
             for make in (AlwaysDisclose, lambda: SignalTrigger(2))]
    cases.append((spec2_patient, "public",
                  lambda: PromiseAutomaton(spec2_patient, (1.5, 1.5), (1.0, 1.0))))
    for spec, mode, make in cases:
        shared = make()
        trace = run_episode(spec, [shared] * spec.n_firms, 60, seed=3, mode=mode)
        want = run_episode(spec, [make() for _ in range(spec.n_firms)], 60, seed=3, mode=mode)
        assert not hasattr(shared, "firm"), (mode, type(shared))
        for got, ref in zip(astuple(trace), astuple(want)):
            assert np.array_equal(got, ref) if isinstance(got, np.ndarray) else got == ref


class _Logger(Strategy):
    """Discloses until it has seen three bad public signals; logs them."""

    def __init__(self):
        self.seen = []

    def next_action(self, public_history, private_history):
        if public_history and public_history[-1] != 3:
            self.seen.append(public_history[-1])
        return int(len(self.seen) < 3)


def test_a_plain_strategy_clone_is_a_deep_copy(spec2):
    # A strategy outside the package's automata is deep-copied: each clone
    # logs into its own list, and the original's list stays empty.
    shared = _Logger()
    twin = shared.clone()
    assert type(twin) is _Logger and twin.seen == [] and twin.seen is not shared.seen
    trace = run_episode(spec2, [shared] * 2, 80, seed=9)
    want = run_episode(spec2, [_Logger(), _Logger()], 80, seed=9)
    assert np.array_equal(trace.actions, want.actions) and shared.seen == []
    assert trace.actions[:, 0].sum() < 80  # the logs filled up


def test_public_signal_frequencies_match_distribution(spec2):
    trace = run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 20_000, seed=21)
    probs = public_signal_distribution(spec2, (1, 1)).probs
    counts = np.bincount(trace.public_signals, minlength=4)
    for b in range(4):
        expected = 20_000 * probs[b]
        sigma = np.sqrt(20_000 * probs[b] * (1 - probs[b]))
        assert abs(counts[b] - expected) < 4 * sigma


# ---------------------------------------------------------------------------
# protocol validation


class _BadAction(Strategy):
    def next_action(self, public_history, private_history):
        return 2


class _FloatAction(Strategy):
    def next_action(self, public_history, private_history):
        return 1.0


class _BadMessage(AlwaysDisclose):
    def next_message(self, own_actions, own_signals, message_history):
        return (7,) if own_signals else ()


class _NumpyMessages(AlwaysDisclose):
    """Truthful messages sent as numpy ints of the type the override picks."""

    def __init__(self, kind):
        self.kind = kind

    def next_message(self, own_actions, own_signals, message_history):
        return tuple(self.kind(b) for b in super().next_message(
            own_actions, own_signals, message_history))


@pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint8, bool, int])
def test_message_override_with_numpy_or_bool_bits_is_accepted_as_ints(spec3, kind):
    # Integer bits of any integer type are validated as before and become
    # plain ints, so the messages equal the truthful default's.
    want = run_episode(spec3, [AlwaysDisclose() for _ in range(3)], 12, seed=4, mode="private")
    got = run_episode(spec3, [_NumpyMessages(kind) for _ in range(3)], 12, seed=4,
                      mode="private")
    assert got.messages == want.messages
    assert all(type(b) is int for msgs in got.messages for m in msgs for b in m)
    assert np.array_equal(got.private_signals, want.private_signals)


@pytest.mark.parametrize("bad", [np.float64, float, lambda b: np.int64(b + 2), str],
                         ids=["np.float64", "float", "np.int64 out of range", "str"])
def test_message_override_with_non_bit_entries_is_refused(spec3, bad):
    with pytest.raises(ProtocolError, match="firm 1 emitted a non-bit message entry .* period 1"):
        run_episode(spec3, [_NumpyMessages(bad)] + [AlwaysDisclose() for _ in range(2)],
                    3, seed=4, mode="private")


class _ListMessage(AlwaysDisclose):
    def next_message(self, own_actions, own_signals, message_history):
        return list(super().next_message(own_actions, own_signals, message_history))


def test_message_that_is_not_a_tuple_is_refused(spec3):
    with pytest.raises(ProtocolError, match="firm 2 emitted an invalid message"):
        run_episode(spec3, [AlwaysDisclose(), _ListMessage(), AlwaysDisclose()],
                    3, seed=4, mode="private")


def test_invalid_action_names_firm_and_period(spec2):
    with pytest.raises(ProtocolError, match="firm 2 emitted invalid action 2 at period 0"):
        run_episode(spec2, [AlwaysDisclose(), _BadAction()], 5, seed=0)


def test_non_integer_action_rejected(spec2):
    with pytest.raises(ProtocolError, match="non-integer action"):
        run_episode(spec2, [_FloatAction(), AlwaysDisclose()], 5, seed=0)


def test_invalid_message_rejected(spec3):
    with pytest.raises(ProtocolError, match="invalid message"):
        run_episode(
            spec3,
            [_BadMessage(), AlwaysDisclose(), AlwaysDisclose()],
            5,
            seed=0,
            mode="private",
        )


def test_wrong_strategy_count(spec3):
    with pytest.raises(DomainError):
        run_episode(spec3, [AlwaysDisclose(), AlwaysDisclose()], 5, seed=0)


# ---------------------------------------------------------------------------
# private monitoring and communication


def test_truthful_messages_replay_own_signals(spec3):
    trace = run_episode(
        spec3, [AlwaysDisclose() for _ in range(3)], 25, seed=31, mode="private"
    )
    assert trace.messages[0] == ((), (), ())
    for t in range(1, 25):
        for i in range(3):
            expected = tuple(
                int(trace.private_signals[t - 1, i, j]) for j in range(3) if j != i
            )
            assert trace.messages[t][i] == expected


def test_private_mode_has_no_public_signals(spec3):
    trace = run_episode(
        spec3, [AlwaysConceal() for _ in range(3)], 5, seed=0, mode="private"
    )
    assert trace.public_signals is None
    assert trace.private_signals.shape == (5, 3, 3)
    assert np.all(trace.private_signals[:, range(3), range(3)] == -1)


def test_trigger_works_from_messages(spec3):
    # in private mode the trigger counts zeros in the delivered messages
    trace = run_episode(
        spec3, [SignalTrigger(1) for _ in range(3)], 40, seed=13, mode="private"
    )
    zero_seen = [
        any(b == 0 for msg in trace.messages[t] for b in msg) for t in range(40)
    ]
    assert any(zero_seen)
    # messages are delivered before actions, so the trigger fires within
    # the same period the zero report arrives
    first = zero_seen.index(True)
    assert np.all(trace.actions[:first] == 1)
    assert np.all(trace.actions[first:] == 0)


def test_private_triggers_count_every_delivered_zero():
    # Each firm counts every zero of every message round, though the round
    # is counted once a period: thresholds that fire at different periods
    # must fire where the trace's messages say.
    spec = GameSpec(4, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9)
    thresholds = (3, 7, 12, 20)
    trace = run_episode(spec, [SignalTrigger(k) for k in thresholds], 60, seed=21,
                        mode="private")
    zeros = np.cumsum([sum(msg.count(0) for msg in rnd) for rnd in trace.messages])
    for i, k in enumerate(thresholds):
        assert zeros[-1] >= k
        assert trace.actions[:, i].tolist() == [int(z < k) for z in zeros], i


def _replayed_actions(strategy, spec, mode, firm, history, rows):
    """The actions a fresh copy of ``strategy``, bound as ``firm``, picks when
    fed ``history`` and the private ``rows`` period by period, as
    run_episode feeds them: a private period's messages precede its action."""
    s = strategy.clone()
    s.bind(spec, mode, firm)
    lag = int(mode == "private")
    return [s.next_action(history[:t + lag], rows[:t]) for t in range(len(rows))]


def test_public_strategy_ignores_private_history(spec3, spec2_patient):
    # Every public strategy of the package, fed one recorded public history,
    # must play the same beside the firm's recorded private rows and beside
    # those rows with every bit flipped.  Public play records no rows, so
    # there the firm is fed the rows of a private episode.  The triggers
    # fire and the promise halts within the horizon, so the actions vary.
    horizon = 600
    promise = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0), on_exit="concede")
    cases = [(spec3, s, ("public", "private")) for s in (
        AlwaysDisclose(), AlwaysConceal(), SignalTrigger(1), SignalTrigger(4), SignalTrigger(40),
    )]
    cases.append((spec2_patient, promise, ("public",)))
    for spec, strategy, modes in cases:
        assert strategy.is_public
        n = spec.n_firms
        for mode in modes:
            trace = run_episode(spec, [strategy.clone() for _ in range(n)], horizon,
                                seed=HALTING_SEED, mode=mode)
            if mode == "public":
                history = trace.public_signals.tolist()
                recorded = run_episode(spec, [AlwaysDisclose() for _ in range(n)], horizon,
                                       seed=3, mode="private").private_signals
            else:
                history, recorded = list(trace.messages), trace.private_signals
            for i in range(n):
                rows = list(recorded[:, i])
                flipped = [np.where(r < 0, r, 1 - r).astype(np.int8) for r in rows]
                actions = _replayed_actions(strategy, spec, mode, i, history, rows)
                assert actions == trace.actions[:, i].tolist(), (strategy, mode, i)
                assert _replayed_actions(strategy, spec, mode, i, history, flipped) == (
                    actions), (strategy, mode, i)
                if not isinstance(strategy, (AlwaysDisclose, AlwaysConceal)):
                    assert set(actions) == {0, 1}, (strategy, mode, i)


class _Alternating(Strategy):
    """Disclose in periods of one parity, shifted by firm."""

    is_public = False

    def next_action(self, public_history, private_history) -> int:
        return (len(public_history) + self.firm) % 2


@pytest.mark.parametrize("mode", ["public", "private"])
def test_block_draws_match_per_period_draws_bitwise(mode):
    # A horizon past one stream run, a nonzero replica and a monitor with its
    # own accuracies, at N = 2, 3 and 4: every signal must equal a per-period
    # draw at its (period, slot, replica) coordinates, every private
    # diagonal entry is -1, and every payoff is profile_payoff's.
    seed, replica = 29, 5
    horizon = _kernels.STREAM_PERIODS + 37
    for n in (2, 3, 4):
        spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9,
                        monitor_alpha=0.8, monitor_epsilon=0.2)
        trace = run_episode(
            spec, [_Alternating() for _ in range(n)], horizon, seed=seed,
            mode=mode, replica=replica,
        )
        firms = np.arange(n)
        for t in range(horizon):
            a = trace.actions[t]
            assert np.array_equal(trace.payoffs[t], profile_payoff(spec, a)), (n, t)
            if mode == "public":
                u = rng.uniforms(seed, rng.DOMAIN_PUBLIC, t, 1, firms, replica)[0] * 2.0**-53
                p_zero = np.where(a == 0, spec.m_alpha, spec.m_epsilon)
                index = int(((u >= p_zero).astype(np.int64) << firms).sum())
                assert trace.public_signals[t] == index, (n, t)
            else:
                for i in range(n):
                    others = firms[firms != i]
                    u = rng.uniforms(seed, rng.DOMAIN_PRIVATE, t, 1, i * n + others,
                                     replica)[0] * 2.0**-53
                    p_zero = np.where(a[others] == 0, spec.alpha, spec.epsilon)
                    bits = (u >= p_zero).astype(np.int8)
                    assert np.array_equal(trace.private_signals[t, i, others], bits), (n, t)
                    assert trace.private_signals[t, i, i] == -1, (n, t)
        assert set(trace.actions[:, 0].tolist()) == {0, 1}, n


@pytest.mark.parametrize("mode", ["public", "private"])
def test_episode_does_not_depend_on_the_stream_run(monkeypatch, mode):
    # run_episode reads _kernels.STREAM_PERIODS when called: in runs of 16
    # periods, 69 periods end inside a fifth run, and the trace is the
    # default one.
    spec = GameSpec(3, LinearGain(3.0), 1.0, 0.9, 0.1, 0.95,
                    monitor_alpha=0.8, monitor_epsilon=0.2)

    def play():
        firms = [SignalTrigger(5), _Alternating(), SignalTrigger(9)]
        return run_episode(spec, firms, 69, seed=7, mode=mode, replica=3)

    want = play()
    draws = []
    uniforms = rng.uniforms

    def counted(*args):
        draws.append(args)
        return uniforms(*args)

    monkeypatch.setattr(_kernels, "STREAM_PERIODS", 16)
    monkeypatch.setattr(rng, "uniforms", counted)
    got = play()
    assert len(draws) == 5
    for name in ("actions", "payoffs", "public_signals", "private_signals"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.messages == want.messages
    assert got.discounted_average().tobytes() == want.discounted_average().tobytes()


@pytest.mark.parametrize("action", [0, 1])
@pytest.mark.parametrize("mode", ["public", "private"])
def test_a_draw_on_the_threshold_reads_as_a_one_bit(mode, action):
    # Take the first seed whose replica-0 period-0 draws of the first two
    # bits are k0 < k1, and set P(bit = 0) under the played action (alpha
    # for concealment, epsilon for disclosure) to k0's uniform exactly.  That
    # uniform is not below P(bit = 0), so both bits read 1 in every draw
    # path: the trace, a trigger that fires on one zero bit, and the
    # promise walk.
    streams = signal_streams(2, mode)
    lo, hi = (0.5, 1.0) if action == 0 else (0.0, 0.5)
    for seed in range(100):
        k = streams.uniforms(seed, 0, 1, [0])[0, :2, 0]
        p = int(k[0]) * 2.0**-53
        if lo < p < hi and k[0] < k[1]:
            break
    else:
        pytest.fail("no seed below 100 puts its draws in order")
    assert rng.threshold(p) == k[0]
    spec = GameSpec(2, LinearGain(3.0), 1.0, p if action == 0 else 0.9,
                    p if action == 1 else 0.1, 0.9)
    play = AlwaysDisclose if action else AlwaysConceal
    trace = run_episode(spec, [play(), play()], 2, seed=seed, mode=mode)
    if mode == "public":
        assert trace.public_signals[0] == 3
    else:
        assert trace.private_signals[0].tolist() == [[-1, 1], [1, -1]]
    if action == 0:
        return
    mc = monte_carlo(spec, [SignalTrigger(1), SignalTrigger(1)], 1, 2, base_seed=seed, mode=mode)
    assert np.array_equal(mc.per_replica[0], trace.discounted_average())
    if mode == "public":
        part = np.zeros((1, 1), dtype=np.uint8)
        walk = _kernels._PromiseWalk(None, np.zeros(2), rng.threshold([p, p]), 0.9, None, None)
        walk.encode(streams.uniforms(seed, 0, 1, [0]), part)
        assert part[0, 0] == 3


class _Scattered(Strategy):
    """Discloses in a pattern that mixes the firms' actions every period."""

    def next_action(self, public_history, private_history) -> int:
        return int((len(public_history) * 7 + self.firm * 3) % 5 < 3)


def test_public_index_is_the_bit_vector_at_every_period_up_to_63_firms():
    # Each period's index equals the test-side (bits @ weights) of its
    # per-period draws, the zero-bit count SignalTrigger reads from it is
    # the count of zero bits, and at N = 63 bit 62 is set somewhere.
    seed, replica, horizon = 17, 3, 40
    for n in range(2, PUBLIC_MAX_FIRMS + 1):
        spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, 0.95,
                        monitor_alpha=0.8, monitor_epsilon=0.2)
        trace = run_episode(spec, [_Scattered() for _ in range(n)], horizon, seed=seed,
                            replica=replica)
        u = rng.uniforms(seed, rng.DOMAIN_PUBLIC, 0, horizon, np.arange(n), replica) * 2.0**-53
        bits = (u >= np.where(trace.actions == 0, 0.8, 0.2)).astype(np.int64)
        weights = np.int64(1) << np.arange(n, dtype=np.int64)
        assert trace.public_signals.tolist() == (bits @ weights).tolist(), n
        assert [n - x.bit_count() for x in trace.public_signals.tolist()] == (
            n - bits.sum(axis=1)).tolist(), n
        assert set(trace.actions.sum(axis=1).tolist()) != {0, n}, n
    assert trace.public_signals.min() >= 0
    assert np.any(trace.public_signals >> 62 == 1)


@pytest.mark.parametrize("run", ["episode", "monte_carlo"])
def test_public_play_refuses_64_firms_before_any_draw(monkeypatch, run):
    spec = GameSpec(PUBLIC_MAX_FIRMS + 1, LinearGain(3.0), 1.0, 0.9, 0.1, 0.95)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the cap was checked")

    monkeypatch.setattr(rng, "uniforms", no_draws)
    strategies = [AlwaysDisclose() for _ in range(spec.n_firms)]
    with pytest.raises(CapacityError, match="capped at N <= 63"):
        if run == "episode":
            run_episode(spec, strategies, 3, seed=3)
        else:
            monte_carlo(spec, strategies, 2, 3, base_seed=3)


def test_private_play_has_no_public_cap():
    spec = GameSpec(PUBLIC_MAX_FIRMS + 1, LinearGain(3.0), 1.0, 0.9, 0.1, 0.95)
    trace = run_episode(spec, [AlwaysDisclose() for _ in range(spec.n_firms)], 2, seed=3,
                        mode="private")
    assert trace.private_signals.shape == (2, 64, 64)


# ---------------------------------------------------------------------------
# promise automaton


def test_promise_automaton_full_run_identity(spec2_patient):
    auto = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0))
    trace = run_episode(
        spec2_patient, [auto, auto.clone()], 2000, seed=SURVIVOR_SEED
    )
    assert np.all(trace.actions == 1)
    d = 0.99
    c = (1.0 - d) / d
    pd = auto.decomp
    v = np.array([2.0, 2.0])
    pi = public_signal_distribution(spec2_patient, (1, 1)).probs
    worst = 0.0
    for t in range(2000):
        assert np.max(np.abs(trace.promises[t] - v)) <= 1e-9
        gam = pd.gamma_bar_for(v)
        # the promise decomposes exactly: v = (1-d) u + d E[continuation]
        cont = v[None, :] + c * gam
        recon = (1.0 - d) * np.array([2.0, 2.0]) + d * (pi @ cont)
        worst = max(worst, float(np.max(np.abs(recon - v))))
        v = v + c * gam[int(trace.public_signals[t])]
    assert worst <= 1e-9


def test_promise_walk_stays_on_hyperplane(spec2_patient):
    auto = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0))
    trace = run_episode(spec2_patient, [auto, auto.clone()], 500, seed=SURVIVOR_SEED)
    levels = trace.promises.sum(axis=1)
    assert np.max(np.abs(levels - 4.0)) <= 1e-6


def test_promise_raises_when_discount_too_small(spec2_patient):
    auto = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0))
    with pytest.raises(DiscountTooSmallError) as exc_info:
        run_episode(spec2_patient, [auto, auto.clone()], 2000, seed=HALTING_SEED)
    err = exc_info.value
    assert err.period == 276
    assert err.delta == 0.99
    # The bisection's replays walk the same bits as the automaton.
    assert repr(err.delta_suggested) == "0.9900623058055599"
    assert "delta >= 0.990062" in str(err)


def test_promise_clones_sharing_a_decomposition_match_automata_apart(spec2_patient):
    # Clones share one decomposition and its memo of the last step; stepped
    # alternately on histories that agree for a while and then differ, they
    # must walk as automata built on their own do.
    auto = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0), on_exit="concede")
    twin = auto.clone()
    assert twin.decomp is auto.decomp
    gen = np.random.default_rng(3)
    histories = gen.integers(0, 4, size=(2, 80)).tolist()
    histories[1][:15] = histories[0][:15]

    def walk(a, history, t):
        a.next_action(history[:t + 1], [])
        return a.promise.tobytes(), a.halted

    apart = []
    for history in histories:
        alone = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0), on_exit="concede")
        alone.bind(spec2_patient, "public", 0)
        apart.append([walk(alone, history, t) for t in range(80)])
    for a in (auto, twin):
        a.bind(spec2_patient, "public", 0)
    together = [[], []]
    for t in range(80):
        for i, a in enumerate((auto, twin)):
            together[i].append(walk(a, histories[i], t))
    assert together == apart
    assert together[0] != together[1]


def test_promise_concede_plays_conceal_after_halt(spec2_patient):
    auto = PromiseAutomaton(
        spec2_patient, (2.0, 2.0), (1.0, 1.0), on_exit="concede"
    )
    trace = run_episode(spec2_patient, [auto, auto.clone()], 700, seed=HALTING_SEED)
    assert np.all(trace.actions[:276] == 1)
    assert np.all(trace.actions[277:] == 0)
    assert np.allclose(trace.payoffs[277:], 0.0)


def test_promise_rejects_bad_start(spec2_patient):
    with pytest.raises(DomainError, match="admissible region"):
        PromiseAutomaton(spec2_patient, (3.0, 3.0), (1.0, 1.0))
    with pytest.raises(DomainError, match="admissible region"):
        PromiseAutomaton(spec2_patient, (-1.0, 1.0), (1.0, 1.0))


@pytest.mark.parametrize("v0", [(np.nan, 1.0), (np.inf, 1.0)], ids=["nan", "inf"])
def test_promise_rejects_non_finite_start(spec2_patient, v0):
    with pytest.raises(DomainError, match="v0 must be finite"):
        PromiseAutomaton(spec2_patient, v0, (1.0, 1.0))
    with pytest.raises(DomainError, match="v0 must be finite"):
        monte_carlo_promise(
            spec2_patient, v0, (1.0, 1.0), replicas=2, horizon=5, base_seed=1
        )


def test_promise_boundary_start_accepted(spec2_patient):
    # (2, 2) sits exactly on the supporting hyperplane and is admissible
    auto = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0))
    assert np.allclose(auto.promise, [2.0, 2.0])
    assert not auto.halted


def test_promise_requires_public_mode(spec2_patient):
    auto = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0))
    with pytest.raises(ProtocolError):
        run_episode(
            spec2_patient, [auto, auto.clone()], 5, seed=0, mode="private"
        )


def test_promise_runs_only_on_its_own_spec(spec2_patient):
    # Built at delta = 0.99, the walk would step at 0.99 while the trace of a
    # delta = 0.995 episode discounts at 0.995.
    auto = PromiseAutomaton(spec2_patient, (1.5, 1.5), (1.0, 1.0), on_exit="concede")
    with pytest.raises(DomainError, match="spec it was built from"):
        run_episode(replace(spec2_patient, delta=0.995), [auto, auto.clone()], 5, seed=1)
    # An equal spec is the same game.
    trace = run_episode(replace(spec2_patient), [auto, auto.clone()], 5, seed=1)
    assert trace.delta == 0.99


def test_impatient_delta_halts_quickly(spec2):
    # at delta = 0.5 the continuation steps are huge; the walk exits fast
    impatient = replace(spec2, delta=0.5)
    auto = PromiseAutomaton(impatient, (2.0, 2.0), (1.0, 1.0))
    with pytest.raises(DiscountTooSmallError) as exc_info:
        run_episode(impatient, [auto, auto.clone()], 100, seed=5)
    assert exc_info.value.period == 21


def test_promise_raise_path_without_a_suggested_delta(spec2_patient):
    # From v0 = (0, 4) the walk leaves at period 3, and no delta up to
    # 1 - 1e-9 keeps the replayed signals inside: no delta is suggested,
    # and the message carries no "replaying" hint.
    auto = PromiseAutomaton(spec2_patient, (0.0, 4.0), (1.0, 1.0))
    with pytest.raises(DiscountTooSmallError) as exc_info:
        run_episode(spec2_patient, [auto, auto], 100, seed=0)
    exc = exc_info.value
    assert exc.period == 3 and exc.delta_suggested is None
    assert str(exc) == (
        "discount too small: promise update at period 3 leaves the admissible region "
        "at delta=0.99"
    )


# ---------------------------------------------------------------------------
# kernel cross-validation


def test_kernel_matches_strategy_path_bitwise(spec2_patient):
    mc = monte_carlo_promise(
        spec2_patient, (2.0, 2.0), (1.0, 1.0), replicas=3, horizon=400,
        base_seed=SURVIVOR_SEED,
    )
    for r in range(3):
        auto = PromiseAutomaton(
            spec2_patient, (2.0, 2.0), (1.0, 1.0), on_exit="concede"
        )
        trace = run_episode(
            spec2_patient, [auto, auto.clone()], 400, seed=SURVIVOR_SEED, replica=r
        )
        assert np.array_equal(mc.per_replica[r], trace.discounted_average()), r


def test_kernel_matches_strategy_path_when_replicas_halt_apart(spec2_patient):
    # Replicas halting at different periods leave the kernel's live set one
    # by one; every row must still match its own step-by-step replay.
    horizon = 600
    mc = monte_carlo_promise(
        spec2_patient, (2.0, 2.0), (1.0, 1.0), replicas=6, horizon=horizon,
        base_seed=HALTING_SEED,
    )
    halts = mc.halt_periods
    assert len(set(halts[halts >= 0].tolist())) >= 3 and np.any(halts < 0)
    for r in range(6):
        auto = PromiseAutomaton(
            spec2_patient, (2.0, 2.0), (1.0, 1.0), on_exit="concede"
        )
        trace = run_episode(
            spec2_patient, [auto, auto.clone()], horizon, seed=HALTING_SEED,
            replica=r,
        )
        assert np.array_equal(mc.per_replica[r], trace.discounted_average()), r
        on_path = np.all(trace.actions == 1, axis=1)
        first_off = -1 if on_path.all() else int(np.argmin(on_path))
        assert first_off == halts[r], r


def test_kernel_row_replays_at_seeds_above_2_63(spec2_patient):
    # Every draw path takes seeds in [0, 2**64), so a Monte Carlo row at a
    # seed the CLI never passes still replays step by step.
    seed, replicas, horizon = 2**63 + 7, 4, 600
    mc = monte_carlo_promise(
        spec2_patient, (2.0, 2.0), (1.0, 1.0), replicas=replicas, horizon=horizon,
        base_seed=seed,
    )
    halts = mc.halt_periods
    assert np.any(halts >= 0)
    for r in range(replicas):
        auto = PromiseAutomaton(
            spec2_patient, (2.0, 2.0), (1.0, 1.0), on_exit="concede"
        )
        trace = run_episode(
            spec2_patient, [auto, auto.clone()], horizon, seed=seed, replica=r
        )
        assert np.array_equal(mc.per_replica[r], trace.discounted_average()), r
        on_path = np.all(trace.actions == 1, axis=1)
        first_off = -1 if on_path.all() else int(np.argmin(on_path))
        assert first_off == halts[r], r


def test_kernel_groups_and_chunks_match_strategy_path_bitwise(monkeypatch):
    # Small sizes put group, stream-run and draw-batch boundaries inside
    # R = 20 and T = 100, with replicas halting in both groups, inside runs
    # and in later runs: every row and halt period must equal its own replay.
    group, run, batch = 12, 32, 5
    monkeypatch.setattr(_kernels, "GROUP_REPLICAS", group)
    monkeypatch.setattr(_kernels, "STREAM_PERIODS", run)
    monkeypatch.setattr(_kernels, "CHUNK_DRAWS", 2 * run * batch)  # batch per full run
    monkeypatch.setattr(_kernels, "HALT_BLOCK", 3)
    spec = GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, 0.95)
    replicas, horizon, seed = 20, 100, 10
    mc = monte_carlo_promise(
        spec, (2.0, 2.0), (1.0, 1.0), replicas=replicas, horizon=horizon,
        base_seed=seed,
    )
    halts = mc.halt_periods
    assert np.any(halts[:group] >= 0) and np.any(halts[group:] >= run)
    assert np.any(halts < 0) and np.any((halts > 0) & (halts % run != 0))
    # The first group's second run is drawn for more replicas than a batch
    # holds, so a batch boundary falls inside the compacted group.
    assert np.sum((halts[:group] < 0) | (halts[:group] > run)) > batch
    for r in range(replicas):
        auto = PromiseAutomaton(spec, (2.0, 2.0), (1.0, 1.0), on_exit="concede")
        trace = run_episode(spec, [auto, auto.clone()], horizon, seed=seed, replica=r)
        assert np.array_equal(mc.per_replica[r], trace.discounted_average()), r
        on_path = np.all(trace.actions == 1, axis=1)
        first_off = -1 if on_path.all() else int(np.argmin(on_path))
        assert first_off == halts[r], r


@pytest.mark.parametrize("n, delta", [(2, 0.99), (3, 0.98)])
def test_kernel_sizes_do_not_change_results(monkeypatch, n, delta):
    # Three replicas past a default group and a horizon past a default
    # stream run, with halts inside and after the first run and replicas
    # that never halt; the patched sizes divide neither and split runs into
    # batches.
    spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, delta)
    v0 = np.asarray(profile_payoff(spec, (1,) * n), dtype=float)
    replicas = _kernels.GROUP_REPLICAS + 3
    horizon = _kernels.STREAM_PERIODS + 44

    def run():
        return monte_carlo_promise(
            spec, v0, np.ones(n), replicas=replicas, horizon=horizon, base_seed=21
        )

    ref = run()
    halts = ref.halt_periods
    assert np.any(halts < 0) and np.any((halts >= 0) & (halts < _kernels.STREAM_PERIODS))
    assert np.any(halts > _kernels.STREAM_PERIODS)
    monkeypatch.setattr(_kernels, "GROUP_REPLICAS", 999)
    monkeypatch.setattr(_kernels, "STREAM_PERIODS", 61)
    monkeypatch.setattr(_kernels, "CHUNK_DRAWS", 2**12)
    monkeypatch.setattr(_kernels, "HALT_BLOCK", 5)
    got = run()
    assert np.array_equal(got.per_replica, ref.per_replica)
    assert np.array_equal(got.halt_periods, halts)


def test_kernel_halt_blocks_match_strategy_path_bitwise(monkeypatch):
    # The region is tested every 3 periods of a 16-period stream run, so
    # blocks divide neither a run nor T = 70, and 20 replicas fall in groups
    # of 7.  Replicas halt inside blocks, at the last period of a block, at
    # a run's first period and at T - 1, in every group, and two never
    # halt: every row and halt period must equal its own replay, and each
    # run must draw for exactly the replicas still inside at its start.
    group, run, block, batch = 7, 16, 3, 2
    monkeypatch.setattr(_kernels, "GROUP_REPLICAS", group)
    monkeypatch.setattr(_kernels, "STREAM_PERIODS", run)
    monkeypatch.setattr(_kernels, "CHUNK_DRAWS", 2 * run * batch)
    monkeypatch.setattr(_kernels, "HALT_BLOCK", block)
    draws = []
    uniforms = rng.uniforms

    def counted(*args):
        u = uniforms(*args)
        draws.append(u.size)
        return u

    monkeypatch.setattr(rng, "uniforms", counted)
    spec = GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, 0.95)
    replicas, horizon, seed = 20, 70, 76
    mc = monte_carlo_promise(
        spec, (2.0, 2.0), (1.0, 1.0), replicas=replicas, horizon=horizon,
        base_seed=seed,
    )
    drawn = sum(draws)
    halts = mc.halt_periods
    row = halts % run
    assert np.sum(halts < 0) == 2 and np.any(halts == horizon - 1)
    assert np.any((halts > 0) & (row == 0))  # a run's first period
    assert np.any((halts > 0) & (row > 0) & (row % block == 0))  # a block's last period
    assert np.any((halts > 0) & (row % block != 0))  # inside a block
    assert all(np.any(halts[g : g + group] >= 0) for g in range(0, replicas, group))
    for r in range(replicas):
        auto = PromiseAutomaton(spec, (2.0, 2.0), (1.0, 1.0), on_exit="concede")
        trace = run_episode(spec, [auto, auto.clone()], horizon, seed=seed, replica=r)
        assert np.array_equal(mc.per_replica[r], trace.discounted_average()), r
        on_path = np.all(trace.actions == 1, axis=1)
        first_off = -1 if on_path.all() else int(np.argmin(on_path))
        assert first_off == halts[r], r
    inside = [
        sum(min(run, horizon - t) * int(np.sum((h < 0) | (h > t)))
            for t in range(0, horizon, run))
        for h in (halts[g : g + group] for g in range(0, replicas, group))
    ]
    assert drawn == 2 * sum(inside)


def _no_draws(*args):
    raise AssertionError("drew where no replica reads a draw")


def test_kernel_halts_every_replica_at_period_0_when_v0_is_outside(monkeypatch, spec2_patient):
    # The automaton refuses such a v0; the kernel tests v0 before the first
    # step, so every replica halts at period 0 with nothing accrued and
    # nothing is drawn.
    monkeypatch.setattr(rng, "uniforms", _no_draws)
    monkeypatch.setattr(_kernels, "HALT_BLOCK", 3)
    walk = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0)).decomp
    for v0 in ((5.0, 5.0), (2.0, -0.5)):
        assert walk.outside(v0)
        totals, halts = _kernels.promise_mc(seed=4, replicas=5, horizon=10, v0=v0, walk=walk)
        assert halts.tolist() == [0] * 5
        assert totals.tolist() == [[0.0, 0.0]] * 5


def test_kernel_at_a_tiny_delta_warns_nothing_and_matches_strategy_path(spec2):
    # At delta = 1e-50 one step moves a promise by about 1e50 times gamma_bar,
    # so every replica leaves at period 1, and the steps left in its block
    # overflow to inf and then NaN.  The kernel prints no numpy warning, and
    # each row and halt period still equal its own replay.
    spec = replace(spec2, delta=1e-50)
    replicas, horizon, seed = 5, 20, 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mc = monte_carlo_promise(spec, (2.0, 2.0), (1.0, 1.0), replicas=replicas,
                                 horizon=horizon, base_seed=seed)
        for r in range(replicas):
            auto = PromiseAutomaton(spec, (2.0, 2.0), (1.0, 1.0), on_exit="concede")
            trace = run_episode(spec, [auto, auto.clone()], horizon, seed=seed, replica=r)
            assert np.array_equal(mc.per_replica[r], trace.discounted_average()), r
            on_path = np.all(trace.actions == 1, axis=1)
            assert int(np.argmin(on_path)) == mc.halt_periods[r] == 1, r


@pytest.mark.parametrize("n, delta, seed", [(2, 0.95, 0), (3, 0.9, 2)])
def test_monte_carlo_steps_one_conceding_promise_automaton_on_the_kernel(
    monkeypatch, n, delta, seed
):
    # 20 replicas in groups of 7, 70 periods in stream runs of 16, draw
    # batches of 2 replicas and region tests every 3 periods.  monte_carlo
    # on one conceding automaton for every firm is monte_carlo_promise, and
    # each row and halt period is its own run_episode replay.
    monkeypatch.setattr(_kernels, "GROUP_REPLICAS", 7)
    monkeypatch.setattr(_kernels, "STREAM_PERIODS", 16)
    monkeypatch.setattr(_kernels, "CHUNK_DRAWS", 2 * 16 * n)
    monkeypatch.setattr(_kernels, "HALT_BLOCK", 3)
    spec = GameSpec(n, LinearGain(3.0), 1.0, 0.9, 0.1, delta)
    v0, direction = profile_payoff(spec, (1,) * n), (1.0,) * n
    replicas, horizon = 20, 70
    auto = PromiseAutomaton(spec, v0, direction, on_exit="concede")
    mc = monte_carlo(spec, [auto] * n, replicas, horizon, base_seed=seed)
    ref = monte_carlo_promise(spec, v0, direction, replicas, horizon, base_seed=seed)
    assert mc.backend == ref.backend == "numpy"
    for name in ("per_replica", "halt_periods", "mean", "stderr"):
        assert np.array_equal(getattr(mc, name), getattr(ref, name)), name
    halts = mc.halt_periods
    assert np.any(halts < 0) and np.any(halts >= 16) and np.any(halts % 3 != 0)
    assert all(np.any(halts[g : g + 7] >= 0) for g in range(0, replicas, 7))
    for r in range(replicas):
        trace = run_episode(spec, [auto] * n, horizon, seed=seed, replica=r)
        assert np.array_equal(mc.per_replica[r], trace.discounted_average()), r
        on_path = np.all(trace.actions == 1, axis=1)
        assert (-1 if on_path.all() else int(np.argmin(on_path))) == halts[r], r


class _ConcedesFirst(PromiseAutomaton):
    """A promise automaton that conceals in period 0."""

    def next_action(self, public_history, private_history):
        action = super().next_action(public_history, private_history)
        return action if public_history else 0


def test_promise_profiles_off_one_conceding_walk_take_the_loop(spec2_patient):
    v0, direction = (1.5, 1.5), (1.0, 1.0)
    raising = PromiseAutomaton(spec2_patient, v0, direction)
    conceding = PromiseAutomaton(spec2_patient, v0, direction, on_exit="concede")
    cases = {
        "raise": [raising, raising],
        "built apart": [conceding,
                        PromiseAutomaton(spec2_patient, v0, direction, on_exit="concede")],
        "overrides next_action": [_ConcedesFirst(spec2_patient, v0, direction,
                                                 on_exit="concede")] * 2,
        "mixed": [conceding, AlwaysDisclose()],
    }
    for name, strategies in cases.items():
        mc = monte_carlo(spec2_patient, strategies, 3, 40, base_seed=1)
        assert mc.backend == "python" and mc.halt_periods is None, name
        want = _loop_rows(spec2_patient, strategies, 3, 40, 1, "public")
        assert np.array_equal(mc.per_replica, want), name


def test_monte_carlo_promise_records_halts(spec2_patient):
    mc = monte_carlo_promise(
        spec2_patient, (2.0, 2.0), (1.0, 1.0), replicas=20, horizon=800,
        base_seed=123,
    )
    assert mc.halt_periods.shape == (20,)
    assert mc.n_halted == int(np.sum(mc.halt_periods >= 0))
    assert 0 < mc.n_halted <= 20
    # halted replicas earn strictly less than the promised level
    halted = mc.per_replica[mc.halt_periods >= 0]
    assert np.all(halted[:, 0] < 2.0)


# ---------------------------------------------------------------------------
# count automata and the vectorized Monte Carlo


class _SwapOnEven(CountAutomaton):
    """Disclose in state 0, conceal in state 1, and swap states on an entry
    with an even number of zeros: private play's empty first round swaps it
    before period 0."""

    def table(self, max_count):
        even = np.arange(max_count + 1) % 2 == 0
        return CountTable([1, 0], np.array([even, ~even], dtype=int), 0)


class _ReportsOnes(SignalTrigger):
    """A trigger that reports every bit it saw as 1."""

    def next_message(self, own_actions, own_signals, message_history):
        return (1,) * (self.spec.n_firms - 1) if own_signals else ()


class _ConcealsFirst(SignalTrigger):
    """A trigger that conceals in period 0."""

    def next_action(self, public_history, private_history):
        action = super().next_action(public_history, private_history)
        return action if len(public_history) > (self.mode == "private") else 0


def _loop_rows(spec, strategies, replicas, horizon, seed, mode):
    """Each replica's run_episode discounted average: the reference rows."""
    return np.array([
        run_episode(spec, [s.clone() for s in strategies], horizon, seed, mode=mode,
                    replica=r).discounted_average()
        for r in range(replicas)
    ])


_COUNT_AUTOMATA = {
    "always_disclose": AlwaysDisclose,
    "always_conceal": AlwaysConceal,
    "signal_trigger:1": lambda: SignalTrigger(1),
    "signal_trigger:4": lambda: SignalTrigger(4),
    "signal_trigger:inf": lambda: SignalTrigger(math.inf),
    "swap_on_even": _SwapOnEven,
}


@pytest.mark.parametrize("mode", ["public", "private"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_count_monte_carlo_matches_the_loop_bitwise(monkeypatch, n, mode):
    # 7 replicas in groups of 3, 40 periods in stream runs of 16, and draw
    # batches of 2 replicas (4 in the last, 8-period run).
    bits = n if mode == "public" else n * (n - 1)
    monkeypatch.setattr(_kernels, "GROUP_REPLICAS", 3)
    monkeypatch.setattr(_kernels, "STREAM_PERIODS", 16)
    monkeypatch.setattr(_kernels, "CHUNK_DRAWS", 2 * 16 * bits)
    spec = GameSpec(n, LinearGain(2.5), 1.2, 0.85, 0.12, 0.95, 0.8, 0.2)
    for name, make in _COUNT_AUTOMATA.items():
        strategies = [make() for _ in range(n)]
        mc = monte_carlo(spec, strategies, 7, 40, base_seed=31, mode=mode)
        assert mc.backend == "numpy", name
        assert np.array_equal(mc.per_replica, _loop_rows(spec, strategies, 7, 40, 31, mode)), name
        if name in ("signal_trigger:4", "swap_on_even"):
            assert len(set(mc.per_replica[:, 0].tolist())) > 1, name  # the rows differ


@pytest.mark.parametrize("mode", ["public", "private"])
def test_absorbing_count_tables_draw_nothing(monkeypatch, mode):
    # A table whose start state no count moves plays one action forever:
    # count_mc draws nothing, and every row still equals the loop's, over
    # 40 periods in stream runs of 16.
    monkeypatch.setattr(_kernels, "STREAM_PERIODS", 16)
    for n in (2, 3):
        spec = GameSpec(n, LinearGain(2.5), 1.2, 0.85, 0.12, 0.95, 0.8, 0.2)
        for name in ("always_disclose", "always_conceal", "signal_trigger:inf"):
            strategies = [_COUNT_AUTOMATA[name]() for _ in range(n)]
            want = _loop_rows(spec, strategies, 5, 40, 17, mode)
            with monkeypatch.context() as m:
                m.setattr(rng, "uniforms", _no_draws)
                mc = monte_carlo(spec, strategies, 5, 40, base_seed=17, mode=mode)
            assert mc.backend == "numpy", name
            assert np.array_equal(mc.per_replica, want), (n, name)


def test_profiles_off_one_truthful_table_take_the_loop(spec3):
    cases = {
        "mixed": [AlwaysDisclose(), SignalTrigger(2), SignalTrigger(2)],
        "thresholds": [SignalTrigger(2), SignalTrigger(3), SignalTrigger(2)],
        "misreports": [_ReportsOnes(2) for _ in range(3)],
        "overrides next_action": [_ConcealsFirst(2) for _ in range(3)],
    }
    for mode in ("public", "private"):
        for name, strategies in cases.items():
            mc = monte_carlo(spec3, strategies, 4, 30, base_seed=8, mode=mode)
            assert mc.backend == "python", (name, mode)
            want = _loop_rows(spec3, strategies, 4, 30, 8, mode)
            assert np.array_equal(mc.per_replica, want), (name, mode)
    # Reports of all 1s hide every zero, so the triggers never fire: the
    # truthful table's rows would be wrong for them.
    truthful = monte_carlo(spec3, [SignalTrigger(2) for _ in range(3)], 4, 30, base_seed=8,
                           mode="private")
    liars = monte_carlo(spec3, cases["misreports"], 4, 30, base_seed=8, mode="private")
    assert truthful.backend == "numpy"
    assert np.all(liars.per_replica > truthful.per_replica)


def test_count_tables_are_checked(spec2):
    for bad in (
        ([2], [[0, 0, 0]], 0),  # an action that is not 0 or 1
        ([1], [[1, 0, 0]], 0),  # a state out of range
        ([1], [[0.0, 0.0, 0.0]], 0),  # states that are not integers
        ([1], [[0], [0, 1]], 0),  # ragged states: numpy's ValueError escaped
        ([], np.zeros((0, 3), dtype=int), 0),  # no state
        ([1, 0], [[0, 0, 0]], 0),  # a row short
        ([1], [[0, 0, 0]], 1),  # an initial state out of range
        ([1], [[0, 0, 0]], True),
    ):
        with pytest.raises(DomainError):
            CountTable(*bad)

    # A refusal names the first bad entry of a large table, not the table.
    action = np.ones(2**17, dtype=np.int64)
    action[-1] = 2
    with pytest.raises(DomainError) as err:
        CountTable(action, np.zeros((2**17, 2), dtype=np.intp), 0)
    assert str(err.value) == "count table action entries must be 0 or 1, got 2 at index 131071"

    class Narrow(CountAutomaton):
        def table(self, max_count):
            return CountTable([1], [[0, 0]], 0)

    with pytest.raises(DomainError, match="3 count columns"):
        run_episode(spec2, [Narrow(), Narrow()], 5, seed=1)
    table = _SwapOnEven().table(2)
    assert not table.action.flags.writeable and not table.next_state.flags.writeable


def test_signal_trigger_table_is_capped(spec2):
    # 2**18 states by 3 counts: refused before the table is built.
    with pytest.raises(CapacityError, match="count table"):
        run_episode(spec2, [SignalTrigger(2**18), AlwaysDisclose()], 5, seed=1)
    with pytest.raises(CapacityError, match="count table"):
        monte_carlo(spec2, [SignalTrigger(2**18)] * 2, 2, 5, base_seed=1)


def test_count_monte_carlo_agrees_with_the_exact_truncated_value():
    # signal_trigger:4 on spec2 and, in private play, at N = 3 (delta 0.9
    # both): the backward recursion reproduces the infinite-horizon values
    # 1.65437 and 2.50674 (delta^T max|u| < 1e-8), and the Monte Carlo mean
    # lies within 3 standard errors of it.
    cases = [
        (GameSpec(2, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9), "public", 4000, 300, 11, 1.65437),
        (GameSpec(3, LinearGain(3.0), 1.0, 0.9, 0.1, 0.9), "private", 1500, 200, 17, 2.50674),
    ]
    for spec, mode, replicas, horizon, seed, limit in cases:
        trigger = SignalTrigger(4)
        trigger.bind(spec, mode, 0)
        exact = truncated_value(spec, trigger.count_table, horizon, mode)
        assert exact == pytest.approx(limit, abs=5e-6)
        mc = monte_carlo(spec, [SignalTrigger(4) for _ in range(spec.n_firms)], replicas,
                         horizon, base_seed=seed, mode=mode)
        assert mc.backend == "numpy"
        assert np.all(np.abs(mc.mean - exact) < 3 * mc.stderr), (mode, mc.mean, exact)


@pytest.mark.parametrize("path", ["loop", "count", "promise"])
def test_monte_carlo_summary_is_the_sample_stderr_and_the_delta_t_bound(spec2, path):
    # stderr is the ddof = 1 sample deviation over sqrt(R), and the bias
    # bound is delta^T times spec2's max |stage payoff|, gain(1) = 3.
    replicas, horizon = 6, 40
    if path == "promise":
        mc = monte_carlo_promise(spec2, (2.0, 2.0), (1.0, 1.0), replicas, horizon, base_seed=4)
    else:
        first = AlwaysDisclose() if path == "loop" else SignalTrigger(2)
        mc = monte_carlo(spec2, [first, SignalTrigger(2)], replicas, horizon, base_seed=4)
        assert mc.backend == ("python" if path == "loop" else "numpy")
    for i, column in enumerate(mc.per_replica.T.tolist()):
        assert len(set(column)) > 1, i
        assert mc.stderr[i] == pytest.approx(
            statistics.stdev(column) / math.sqrt(replicas), rel=1e-12), i
    assert mc.truncation_bias_bound == pytest.approx(0.9**horizon * 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# serialization


def _rewritten(trace, tmp_path) -> str:
    """The text write_trace_csv writes for ``trace``."""
    path = tmp_path / "again.csv"
    write_trace_csv(trace, path)
    return path.read_text()


def test_public_trace_round_trips_bitwise(spec2, tmp_path):
    # A spec built from numpy scalars must write plain floats in the metadata.
    numpy_spec = GameSpec(2, LinearGain(np.float64(3.0)), np.float64(1.0), np.float64(0.9),
                          np.float64(0.1), np.float64(0.99))
    for spec in (spec2, numpy_spec):
        trace = run_episode(spec, [AlwaysDisclose(), AlwaysConceal()], 25, seed=17)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.mode == trace.mode and back.delta == trace.delta
        assert back.seed == trace.seed and back.replica == trace.replica
        assert np.array_equal(back.actions, trace.actions)
        assert np.array_equal(back.payoffs, trace.payoffs)
        assert np.array_equal(back.public_signals, trace.public_signals)
        assert np.array_equal(back.discounted_average(), trace.discounted_average())
        assert _rewritten(back, tmp_path) == path.read_text()


def test_private_trace_round_trips(spec3, tmp_path):
    trace = run_episode(
        spec3, [AlwaysDisclose() for _ in range(3)], 12, seed=19, mode="private"
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.private_signals, trace.private_signals)
    assert back.messages == trace.messages
    assert _rewritten(back, tmp_path) == path.read_text()


@pytest.mark.parametrize("mode", ["public", "private"])
def test_trace_round_trips_at_the_last_seed_and_replica(spec3, tmp_path, mode):
    last = rng.WORDS - 1
    trace = run_episode(spec3, [SignalTrigger(2) for _ in range(3)], 9, seed=last,
                        mode=mode, replica=last)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_text().startswith(
        f"# mode={mode} delta=0.9 seed={last} replica={last} "
    )
    back = read_trace_csv(path)
    assert (back.seed, back.replica) == (last, last)
    assert _rewritten(back, tmp_path) == path.read_text()


def test_promise_trace_round_trips(spec2_patient, tmp_path):
    auto = PromiseAutomaton(spec2_patient, (2.0, 2.0), (1.0, 1.0))
    trace = run_episode(spec2_patient, [auto, auto.clone()], 40, seed=SURVIVOR_SEED)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.promises, trace.promises)
    assert _rewritten(back, tmp_path) == path.read_text()


def test_trace_file_uses_lf_endings(spec2, tmp_path):
    trace = run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 3, seed=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    raw = path.read_bytes()
    assert b"\r" not in raw


def _malformed(text: str, case: str) -> str:
    meta, header, *rows = text.splitlines()
    if case == "duplicate-period":
        rows = [rows[0], rows[0]]
    elif case == "action-7":
        rows[0] = rows[0].replace("0,1,", "0,7,", 1)
    elif case == "missing-column":
        drop = header.split(",").index("payoff_2")
        header, *rows = (",".join(x for k, x in enumerate(line.split(",")) if k != drop)
                         for line in [header, *rows])
    elif case == "period-past-end":
        rows = ["5" + rows[0][1:]]
    elif case == "no-n_firms":
        meta = meta.replace(" n_firms=2", "")
    elif case == "signal-index":
        rows[0] = ",".join(rows[0].split(",")[:3] + ["4"] + rows[0].split(",")[4:])
    elif case == "short-row":
        rows[0] = rows[0].rsplit(",", 1)[0]
    elif case == "not-a-number":
        rows[0] = rows[0].replace("0,1,", "0,x,", 1)
    elif case == "bad-mode":
        meta = meta.replace("mode=public", "mode=mixed")
    # Forms the writer never writes, though each holds a readable trace.
    elif case == "action-01":
        rows[0] = rows[0].replace("0,1,", "0,01,", 1)
    elif case == "period-plus":
        rows[0] = "+" + rows[0]
    elif case == "period-underscore":
        rows[0] = "0_" + rows[0]
    elif case in ("payoff-2.00", "payoff-space", "index-space"):
        fields = rows[0].split(",")
        k = header.split(",").index("signal_index" if case == "index-space" else "payoff_1")
        fields[k] = fields[k] + "0" if case == "payoff-2.00" else " " + fields[k]
        rows[0] = ",".join(fields)
    elif case == "crlf":
        return "\r\n".join([meta, header, *rows]) + "\r\n"
    elif case == "unknown-key":
        meta += " colour=red"
    elif case == "extra-column":
        header, *rows = (line + ",0" for line in [header, *rows])
    elif case == "permuted-columns":
        def swap(line):
            fields = line.split(",")
            fields[4], fields[5] = fields[5], fields[4]
            return ",".join(fields)
        header, *rows = map(swap, [header, *rows])
    elif case == "blank-line":
        rows.insert(1, "")
    elif case == "delta-0.90":
        meta = meta.replace(" delta=0.9 ", " delta=0.90 ")
    # Metadata that the writer writes as read, though no run could have
    # written it: each breaks a rule that a run's spec or draws obey.
    elif case.startswith(("delta=", "u_scale=", "seed=", "replica=")):
        key = case.split("=")[0]
        meta = " ".join(case if item.startswith(key + "=") else item
                        for item in meta.split(" "))
    elif case == "one-firm":
        # The text written for a one-firm trace: firm 1's columns, with its
        # bit of the signal index.
        meta = meta.replace(" n_firms=2", " n_firms=1")
        header = "period,action_1,signal_index,payoff_1"
        rows = [f"{t},{a},{int(b) % 2},{u}"
                for t, a, _, b, u, _ in (row.split(",") for row in rows)]
    return "\n".join([meta, header, *rows]) + "\n"


@pytest.mark.parametrize("case", [
    "duplicate-period", "action-7", "missing-column", "period-past-end", "no-n_firms",
    "signal-index", "short-row", "not-a-number", "bad-mode",
    "action-01", "period-plus", "period-underscore", "payoff-2.00", "payoff-space",
    "index-space", "crlf", "unknown-key", "extra-column", "permuted-columns", "blank-line",
    "delta-0.90", "delta=1.5", "delta=nan", "u_scale=inf", "u_scale=-1.0", "seed=-5",
    "seed=18446744073709551616", "replica=-1", "one-firm",
])
def test_read_trace_refuses_malformed_public_traces(spec2, tmp_path, case):
    trace = run_episode(spec2, [AlwaysDisclose(), AlwaysDisclose()], 3, seed=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    text = path.read_text()
    assert text.splitlines()[2].startswith("0,1,")
    assert text.splitlines()[:2] == [
        "# mode=public delta=0.9 seed=0 replica=0 u_scale=3.0 n_firms=2",
        "period,action_1,action_2,signal_index,payoff_1,payoff_2",
    ]
    malformed = _malformed(text, case)
    assert malformed != text
    path.write_bytes(malformed.encode())
    with pytest.raises(DomainError):
        read_trace_csv(path)


@pytest.mark.parametrize("field, value, message", [
    ("b_1_2", "2", r"^trace private bit entries must be 0 or 1, got 2 at index \(1, 0\)$"),
    ("message_2", "21", "a message is not 2 bits"),
], ids=["b_1_2-2", "message_2-21"])
def test_read_trace_refuses_non_bits_in_private_traces(spec3, tmp_path, field, value, message):
    trace = run_episode(spec3, [AlwaysDisclose() for _ in range(3)], 3, seed=0,
                        mode="private")
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    meta, header, *rows = path.read_text().splitlines()
    k = header.split(",").index(field)
    fields = rows[1].split(",")
    fields[k] = value
    rows[1] = ",".join(fields)
    path.write_text("\n".join([meta, header, *rows]) + "\n")
    with pytest.raises(DomainError, match=message):
        read_trace_csv(path)


def test_read_trace_refuses_a_message_at_period_0(spec3, tmp_path):
    trace = run_episode(spec3, [AlwaysDisclose() for _ in range(3)], 3, seed=0,
                        mode="private")
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    meta, header, *rows = path.read_text().splitlines()
    assert rows[0].count(",,,") == 1
    rows[0] = rows[0].replace(",,,", ",,1,")
    path.write_text("\n".join([meta, header, *rows]) + "\n")
    with pytest.raises(DomainError):
        read_trace_csv(path)


def test_read_trace_refuses_a_header_too_short_for_its_n_firms(tmp_path, monkeypatch):
    # 1500 private-mode firms need 1501**2 columns; this header has 1500, so
    # the reader must refuse it before it builds the layout of 1500 firms.
    asked = []
    real = engine.signal_streams

    def recording(n, mode):
        asked.append(n)
        return real(n, mode)

    monkeypatch.setattr(engine, "signal_streams", recording)
    names = ["period", *(f"action_{i}" for i in range(1, 1500))]
    path = tmp_path / "trace.csv"
    path.write_text(
        "# mode=private delta=0.9 seed=0 replica=0 u_scale=3.0 n_firms=1500\n"
        + ",".join(names) + "\n" + ",".join(["0"] + ["1"] * 1499) + "\n"
    )
    with pytest.raises(DomainError):
        read_trace_csv(path)
    assert 1500 not in asked


def test_read_trace_rejects_missing_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("period,action_1\n0,1\n")
    with pytest.raises(DomainError):
        read_trace_csv(path)
