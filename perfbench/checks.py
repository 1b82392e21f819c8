"""Output checks for benchmark tasks, run outside the timed region.

Each check takes a task and what its command returned and gives ``None``
when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path

import numpy as np

from npdshare import (
    AlwaysConceal,
    AlwaysDisclose,
    PromiseAutomaton,
    SignalTrigger,
    k_star_formula_linear_n2,
    load_game_spec,
    profile_payoff,
    public_signal_distribution,
    read_trace_csv,
    run_episode,
    verify_decomposition,
    write_trace_csv,
)
from npdshare.geometry import halfplane_intersection_2d, hausdorff_distance_polygons

from workloads import stage_payoff

HAUSDORFF_TOL = 0.02
REPORT_RE = re.compile(r"^\s*(?:- )?condition: ", re.M)


def count_reports(stdout: str) -> int:
    """Condition reports (``condition:`` blocks) in check/rank output."""
    return len(REPORT_RE.findall(stdout))


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))


def _check(task, out, err):
    n = task.meta["n"]
    if re.findall(r"^a\S+: (\w+)$", out, re.M) != ["true"] * 3:
        return "stage-game assumptions A1/A2/A2' do not all hold"
    verdicts = dict(re.findall(r"^condition: (\S+)\nholds: (\w+)$", out, re.M))
    for theorem in task.meta["theorems"]:
        want = "false" if (theorem == "km" and n == 2) else "true"
        got = verdicts.get(f"{theorem}_preconditions")
        if got != want:
            return f"{theorem} preconditions read {got}, expected {want} at N={n}"
    if n == 2 and "km" in task.meta["theorems"] and "requires more than two firms" not in out:
        return "km at N=2 is not reported as inapplicable"
    return None


def _rank(task, out, err):
    n = task.meta["n"]
    holds = re.findall(r"^holds: (\w+)$", out, re.M)
    if len(holds) < n + n * (n - 1) // 2 or set(holds) != {"true"}:
        return f"rank conditions: {holds.count('false')} of {len(holds)} fail"
    return None


def _limit_quadrilateral(gain: float, loss: float) -> np.ndarray:
    """Limit payoff set for two firms with linear gain, from the closed-form
    k*: half-planes on the three supporting directions plus v >= 0."""
    dirs = np.array([[gain, loss], [1.0, 1.0], [loss, gain]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ks = [k_star_formula_linear_n2(gain, loss, d) for d in dirs]
    dirs = np.vstack([dirs, [[-1.0, 0.0], [0.0, -1.0]]])
    return halfplane_intersection_2d(dirs, np.array(ks + [0.0, 0.0]), bound=100.0)


def _payoffset(task, out, err):
    n, spec = task.meta["n"], task.meta["spec"]
    rows = _csv_rows(out)
    if n == 2:
        gain = spec["gain"]
        slope = gain["G"] * (1.0 if gain["kind"] == "linear" else gain["f"][1])
        poly = np.array([[float(a), float(b)] for a, b in rows[1:]])
        dist = hausdorff_distance_polygons(poly, _limit_quadrilateral(slope, spec["L"]))
        if not dist <= HAUSDORFF_TOL:
            return f"payoff polygon is {dist:.4g} from the limit set (tolerance {HAUSDORFF_TOL})"
        return None
    if len(rows) - 1 != task.meta["directions"]:
        return f"{len(rows) - 1} half-spaces for {task.meta['directions']} directions"
    profiles = [[(r >> j) & 1 for j in range(n)] for r in range(2**n)]
    payoffs = np.array([stage_payoff(spec, r) for r in profiles])
    for row in rows[1:]:
        lam = np.array([float(x) for x in row[:n]])
        k = float(row[n])
        top = float(np.max(payoffs @ lam))
        if abs(np.linalg.norm(lam) - 1.0) > 1e-9 or len(row[n + 1]) != n:
            return f"malformed half-space row {row}"
        # All-conceal pays 0 and is always enforceable; no level beats the
        # best stage payoff in that direction.
        if not -1e-9 <= k <= top + 1e-9:
            return f"k*={k!r} outside [0, {top!r}] for lambda={lam.tolist()}"
    return None


def _decompose(task, out, err, rc):
    if rc == 1:
        return None if "infeasible" in err else "exit 1 without an infeasibility report"
    m = task.meta
    n = m["n"]
    spec = load_game_spec(m["spec_path"]).spec
    rows = _csv_rows(out)
    gamma = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    if gamma.shape != (2**n, n):
        return f"continuation map has shape {gamma.shape}"
    u = profile_payoff(spec, m["action"])
    if m["mode"] == "orthogonal":
        v = u
    else:
        v = u + public_signal_distribution(spec, m["action"]).probs @ gamma
    chk = verify_decomposition(spec, v, m["action"], gamma)
    if not chk.holds:
        return f"verify_decomposition fails (residual {chk.equality_residual:.3g})"
    side = gamma @ np.asarray(m["direction"])
    scale = 1e-9 * max(1.0, float(np.max(np.abs(gamma))))
    if (np.max(np.abs(side)) if m["mode"] == "orthogonal" else np.max(side)) > scale:
        return "continuation map leaves the half-space lambda . gamma_bar <= 0"
    return None


def _strategies(meta, spec):
    name = meta["strategy"]
    if name == "promise":
        auto = PromiseAutomaton(spec, meta["v0"], (1.0,) * meta["n"], on_exit="concede")
        return [auto.clone() for _ in range(meta["n"])], auto.decomp.action
    if name.startswith("signal_trigger:"):
        k = int(name.split(":", 1)[1])
        return [SignalTrigger(k) for _ in range(meta["n"])], None
    cls = {"always_disclose": AlwaysDisclose, "always_conceal": AlwaysConceal}[name]
    return [cls() for _ in range(meta["n"])], None


def _trace_round_trip(out: str, workdir: Path):
    first, again = workdir / "trace.csv", workdir / "again.csv"
    first.write_text(out, encoding="utf-8")
    trace = read_trace_csv(first)
    write_trace_csv(trace, again)
    return trace, again.read_text(encoding="utf-8") == out


def _simulate(task, out, err, workdir):
    m = task.meta
    n, horizon, replicas = m["n"], m["horizon"], m["replicas"]
    if replicas == 1:
        trace, same = _trace_round_trip(out, workdir)
        if not same:
            return "trace CSV does not round-trip through read_trace_csv"
        if trace.horizon != horizon or trace.mode != m["mode"] or trace.n_firms != n:
            return "trace header or length does not match the request"
        return None
    rows = _csv_rows(out)
    if len(rows) - 1 != replicas:
        return f"{len(rows) - 1} Monte Carlo rows for {replicas} replicas"
    if not m.get("replay", True):
        return None
    spec = load_game_spec(m["spec_path"]).spec
    r = m["sample_replica"]
    row = rows[1 + r]
    want = [float(x) for x in row[1:1 + n]]
    strategies, profile = _strategies(m, spec)
    replay_horizon = horizon
    halt = None
    if profile is not None:
        halt = int(row[1 + n])
        # Payoffs after a halt are the all-conceal zeros, so the replay can
        # stop one period after it without changing a bit of the average.
        if halt >= 0:
            replay_horizon = min(horizon, halt + 1)
    trace = run_episode(spec, strategies, replay_horizon, m["seed"], mode=m["mode"], replica=r)
    got = [float(x) for x in trace.discounted_average()]
    if got != want or any(math.copysign(1, a) != math.copysign(1, b) for a, b in zip(got, want)):
        return f"replica {r}: replay {got!r} differs from the Monte Carlo row {want!r}"
    if profile is not None:
        on_path = np.all(trace.actions == np.asarray(profile), axis=1)
        first_off = int(np.argmin(on_path)) if not on_path.all() else -1
        if first_off != halt:
            return f"replica {r}: replay halts at {first_off}, Monte Carlo row says {halt}"
    return None


def check_task(task, rc, out, err, workdir: Path):
    """None when the task's output is right, else the reason it is not.

    ``workdir`` holds the scratch files of the trace round trip."""
    if rc not in task.expect_rc:
        return f"exit code {rc}, expected {' or '.join(map(str, task.expect_rc))}"
    if task.kind == "check":
        return _check(task, out, err)
    if task.kind == "rank":
        return _rank(task, out, err)
    if task.kind == "payoffset":
        return _payoffset(task, out, err)
    if task.kind == "decompose":
        return _decompose(task, out, err, rc)
    return _simulate(task, out, err, workdir)
