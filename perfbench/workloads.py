"""Seeded task lists for the four benchmark workloads.

Each task is one ``npdshare`` command line run in-process.  The task list
depends only on the workload name and the seed: the seed draws the game
parameters, the actions and directions, and the simulation seeds, while the
shape of the list (subcommands, N, sizes) is fixed per workload so that
runs at different seeds cost about the same.  The program sees only the
generated spec files and the argv.

Why each workload:

* ``preconditions``: ``check`` and ``rank``, where ``conditions`` and
  ``monitoring`` do nearly all the work with no ``rng``, ``engine`` or LP.
  The N = 5 km checks carry the dense expansions of C2 (up to 2^16
  outcomes).  The N = 6 km check (2^20 outcomes, 30-47 s as one task on a
  shared 2-CPU host) is left out: one sample of it per run would take the
  whole run, and runs of that length do not fit the benchmark's time limit.
* ``payoffset``: ``payoffset`` and ``decompose``, where ``decompose`` and
  ``geometry`` work on public-signal distributions.  The payoff-set tasks
  run almost entirely on the least-squares equality path; ``--mode general``
  decompositions measure the HiGHS LP path too.
* ``simulate-promise``: promise-automaton Monte Carlo at R = 1000 and
  T = 1000, and at R = 10^4 and T = 200, where the vectorized ``_kernels``
  loop and large ``rng`` blocks do the work.  Boundary, interior and deep
  promises at delta 0.99 and 0.999 span the range of halting.  The first task is the old kernel benchmark's case
  (R = 10^4, v0 = (2, 2), seed 123) cut to T = 200; it is also the N = 2
  boundary promise at delta 0.99.  The game parameters are fixed here,
  since the cost of a task follows its halting periods; the seed draws the
  simulation seeds.
* ``simulate-strategies``: the same ``engine``/``rng`` layers as many tiny
  calls: one ``rng.uniforms`` call of N or N(N-1) draws per period, trace
  CSVs for single episodes and the Python ``monte_carlo`` loop.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Work unit behind each workload's throughput metric.
UNITS = {
    "preconditions": "checks_per_s",
    "payoffset": "directions_per_s",
    "simulate-promise": "replica_periods_per_s",
    "simulate-strategies": "replica_periods_per_s",
}

LEGACY_TASK = "legacy-case-t200"


@dataclass
class Task:
    name: str
    kind: str  # check | rank | payoffset | decompose | simulate
    argv: list[str]
    expect_rc: tuple[int, ...]
    units: int  # work units; condition reports are counted from the output
    meta: dict = field(default_factory=dict)


class _Inputs:
    """Draws one workload's spec files and simulation seeds from its seed."""

    def __init__(self, workload: str, seed: int, spec_dir: Path):
        self.rng = random.Random(f"npdshare-perfbench/{workload}/{seed}")
        self.spec_dir = spec_dir
        self.count = 0

    def spec(self, n, gain_kind="linear", delta=0.95, monitor=False, narrow=False):
        r = self.rng
        if narrow:
            g, loss = r.uniform(2.7, 3.3), r.uniform(0.8, 1.2)
            alpha, eps = r.uniform(0.86, 0.92), r.uniform(0.08, 0.12)
        else:
            g, loss = r.uniform(2.5, 4.0), r.uniform(0.6, 1.4)
            alpha, eps = r.uniform(0.8, 0.95), r.uniform(0.05, 0.2)
        if gain_kind == "linear":
            gain = {"kind": "linear", "G": g}
        else:
            step, ratio, f = r.uniform(0.8, 1.2), r.uniform(0.75, 0.95), [0.0]
            for _ in range(n - 1):
                f.append(f[-1] + step)
                step *= ratio
            gain = {"kind": "concave", "G": g, "f": f}
        spec = {
            "n_firms": n, "gain": gain, "L": loss, "alpha": alpha,
            "epsilon": eps, "delta": delta,
        }
        if monitor:
            spec["monitor_alpha"] = r.uniform(0.75, 0.95)
            spec["monitor_epsilon"] = r.uniform(0.05, 0.25)
        return self.write(spec)

    def write(self, spec: dict) -> dict:
        self.count += 1
        path = self.spec_dir / f"spec{self.count:03d}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return {"path": str(path), "spec": spec}

    def seed(self) -> int:
        return self.rng.randrange(2**32)


def stage_payoff(spec: dict, profile) -> list[float]:
    """Stage payoffs u(r) computed from the spec fields alone."""
    gain = spec["gain"]

    def g(z):
        return gain["G"] * (z if gain["kind"] == "linear" else gain["f"][z])

    x = sum(profile)
    return [g(x - 1) - spec["L"] if a else g(x) for a in profile]


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _preconditions(b: _Inputs):
    tasks = []

    def check(s, n, theorem):
        tasks.append(Task(
            f"check-{theorem}-n{n}", "check",
            ["check", "--spec", s["path"], "--theorem", theorem],
            (1,) if (n == 2 and theorem != "flm") else (0,), 0,
            {"n": n, "theorems": ["flm", "km"] if theorem == "both" else [theorem]},
        ))

    def rank(s, n):
        tasks.append(Task(f"rank-n{n}", "rank", ["rank", "--spec", s["path"]], (0,), 0,
                          {"n": n}))

    for n in (2, 3, 4, 5):
        linear = b.spec(n, "linear")
        concave = b.spec(n, "concave", monitor=True)
        for s in (linear, concave):
            check(s, n, "both")
            rank(s, n)
    for n in (3, 4, 5):
        s = b.spec(n, "linear", monitor=True)
        check(s, n, "km")
        check(s, n, "flm")
    warm = b.spec(2, "linear")
    return Task("warm-rank", "rank", ["rank", "--spec", warm["path"]], (0,), 0, {"n": 2}), tasks


def _payoffset(b: _Inputs):
    tasks = []
    for n, dirs, kind in ((2, 360, "linear"), (2, 360, "concave"), (3, 32, "concave"),
                          (4, 16, "linear")):
        s = b.spec(n, kind)
        tasks.append(Task(
            f"payoffset-n{n}-{kind}", "payoffset",
            ["payoffset", "--spec", s["path"], "--directions", str(dirs)],
            (0,), dirs, {"n": n, "spec": s["spec"], "directions": dirs},
        ))
    for n in (2, 3, 4):
        s = b.spec(n, "linear" if n != 3 else "concave")
        single = [0] * n
        single[b.rng.randrange(n)] = 1
        mixed = [1] * n
        mixed[b.rng.randrange(n)] = 0
        actions = ([1] * n, [0] * n, single, mixed)
        for action in actions:
            positive = [b.rng.uniform(0.2, 1.0) for _ in range(n)]
            signed = [b.rng.uniform(0.2, 1.0)] + [
                b.rng.choice((-1, 1)) * b.rng.uniform(0.2, 1.0) for _ in range(n - 1)
            ]
            for direction in (positive, signed):
                for mode in ("orthogonal", "general"):
                    tasks.append(Task(
                        f"decompose-n{n}-{mode}", "decompose",
                        ["decompose", "--spec", s["path"], f"--lambda={_vec(direction)}",
                         "--action", ",".join(map(str, action)), "--mode", mode],
                        (0, 1), 1,
                        {"n": n, "spec_path": s["path"], "action": action,
                         "direction": direction, "mode": mode},
                    ))
    warm = b.spec(2, "linear")
    return Task("warm-payoffset", "payoffset",
                ["payoffset", "--spec", warm["path"], "--directions", "8"], (0,), 8,
                {"n": 2, "spec": warm["spec"], "directions": 8}), tasks


def _promise_task(b, name, s, v0, replicas, horizon, seed=None):
    n = s["spec"]["n_firms"]
    seed = b.seed() if seed is None else seed
    return Task(
        name, "simulate",
        ["simulate", "--spec", s["path"], "--strategy", "promise",
         "--replicas", str(replicas), "--T", str(horizon), f"--v0={_vec(v0)}",
         f"--direction={_vec([1.0] * n)}", "--seed", str(seed)],
        (0,), replicas * horizon,
        {"n": n, "spec_path": s["path"], "strategy": "promise", "v0": list(v0),
         "replicas": replicas, "horizon": horizon, "seed": seed, "mode": "public",
         "sample_replica": b.rng.randrange(replicas), "replay": False},
    )


def _simulate_promise(b: _Inputs):
    # The old kernel benchmark's game, R and seed, cut from T = 2000 to 200:
    # at 13 s, one task of the full case would be more than half a run, and
    # a host whose speed drifts within one task cannot be corrected for.
    legacy = b.write({"n_firms": 2, "gain": {"kind": "linear", "G": 3.0}, "L": 1.0,
                      "alpha": 0.9, "epsilon": 0.1, "delta": 0.99})
    tasks = [_promise_task(b, LEGACY_TASK, legacy, (2.0, 2.0), 10_000, 200, seed=123)]
    gains = {2: {"kind": "linear", "G": 3.0},
             3: {"kind": "concave", "G": 3.0, "f": [0.0, 1.0, 1.8]}}
    scales = {"boundary": 1.0, "interior": 0.75, "deep": 0.5}
    # The legacy game is the N = 2 boundary promise at delta 0.99.  N = 3
    # runs delta 0.99 only, and T is 1000, so that about three passes fit
    # in a 20 s run: one pass of tasks this long is too few samples.
    for n, delta, promises in ((2, 0.99, ("interior", "deep")),
                               (2, 0.999, ("interior", "boundary")),
                               (3, 0.99, ("interior", "deep", "boundary"))):
        s = b.write({"n_firms": n, "gain": gains[n], "L": 1.0, "alpha": 0.9,
                     "epsilon": 0.1, "delta": delta})
        u = stage_payoff(s["spec"], [1] * n)
        for where in promises:
            tasks.append(_promise_task(
                b, f"promise-n{n}-d{delta}-{where}", s, [scales[where] * x for x in u],
                1000, 1000))
    # Replaying a replica costs up to T periods of the Python engine, so the
    # bitwise check covers a seeded sample of the tasks.
    for task in b.rng.sample(tasks, 4):
        task.meta["replay"] = True
    warm = b.spec(2, "linear", delta=0.99, narrow=True)
    u = stage_payoff(warm["spec"], [1, 1])
    return _promise_task(b, "warm-promise", warm, u, 64, 128), tasks


def _strategy_task(b, strategy, n, mode, replicas, horizon):
    s = b.spec(n, "linear" if n != 3 else "concave", delta=0.99)
    seed = b.seed()
    return Task(
        f"{strategy.split(':')[0]}-n{n}-{mode}-r{replicas}", "simulate",
        ["simulate", "--spec", s["path"], "--strategy", strategy, "--mode", mode,
         "--replicas", str(replicas), "--T", str(horizon), "--seed", str(seed)],
        (0,), replicas * horizon,
        {"n": n, "spec_path": s["path"], "strategy": strategy, "mode": mode,
         "replicas": replicas, "horizon": horizon, "seed": seed,
         "sample_replica": b.rng.randrange(replicas)},
    )


def _simulate_strategies(b: _Inputs):
    modes = [(n, mode) for n in (2, 3, 4) for mode in ("public", "private")]
    plain = ("always_disclose", "always_conceal", "signal_trigger")

    def strategy(k):
        name = plain[k % 3]
        return f"{name}:{b.rng.randint(3, 8)}" if name == "signal_trigger" else name

    tasks = [_strategy_task(b, strategy(k), *modes[k % 6], 1, 150) for k in range(10)]
    tasks += [_strategy_task(b, strategy(k + 1), *modes[k % 6], 2, 50) for k in range(19)]
    # A boundary promise at delta 0.999 stays inside its region for the
    # whole horizon, so the single-episode run writes a full trace.
    s = b.spec(2, "linear", delta=0.999, narrow=True)
    seed = b.seed()
    tasks.append(Task(
        "promise-n2-trace", "simulate",
        ["simulate", "--spec", s["path"], "--strategy", "promise", "--T", "1000",
         "--direction=1.0,1.0", "--seed", str(seed)],
        (0,), 1000,
        {"n": 2, "spec_path": s["path"], "strategy": "promise", "mode": "public",
         "replicas": 1, "horizon": 1000, "seed": seed},
    ))
    return _strategy_task(b, "always_disclose", 2, "public", 1, 64), tasks


_WORKLOAD_LISTS = {
    "preconditions": _preconditions,
    "payoffset": _payoffset,
    "simulate-promise": _simulate_promise,
    "simulate-strategies": _simulate_strategies,
}

WORKLOADS = tuple(_WORKLOAD_LISTS)


def build(workload: str, seed: int, spec_dir: Path):
    """Write the workload's spec files; return (warm-up task, task list)."""
    spec_dir.mkdir(parents=True, exist_ok=True)
    return _WORKLOAD_LISTS[workload](_Inputs(workload, seed, spec_dir))
