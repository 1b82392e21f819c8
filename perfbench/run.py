"""Benchmark harness for npdshare: one workload per run, seeded, checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: preconditions, payoffset, simulate-promise, simulate-strategies
(see workloads.py for what each stresses and why).  The task list is made
from the seed alone; every task is an ``npdshare`` command line run
in-process through ``npdshare.cli.main(argv)`` with stdout captured.

Load model: a closed loop with one caller.  One process runs one task at a
time, BLAS/OpenMP threads are capped at the CPU count, and a warm-up task
runs before timing starts.  The timed region runs whole passes of the task
list while another pass, as long as the mean pass so far, still ends within
``--seconds`` (at least one pass).  A fixed reference kernel
(``hostspeed.py``) runs between the tasks, and the bounded times are
normalized by it to the reference machine's speed; the raw times are
printed beside them.  Interpreter start and import, which every CLI call
pays, are measured only as ``setup_s``: the median over fresh interpreters
of ``import npdshare.cli`` plus one ``load_game_spec``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every task
twice in a row, untraced and then traced, and reports the per-layer metrics
of the traced runs (per pass of the task list) and the tracing overhead.
Outputs are checked after the timed region; ``failed`` counts executions
that raised, exited with an unexpected code, or gave wrong or
non-reproducible output.

The last stdout line is the JSON result.  Lines before it name every metric
with its unit, and a ``record:`` line carries the machine facts.  Run
artifacts go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys\nimport npdshare.cli\nfrom npdshare.specfile import load_game_spec\n"
    "load_game_spec(sys.argv[1])\n"
)
# Reference-kernel time run after each task, as a share of the task's time.
REF_SHARE = 0.1
# A tail percentile needs this many samples above it in one pass.
TAIL_SAMPLES = 10

# End-to-end metrics of the result line, as listed in BENCHMARK.json.
E2E_UNITS = {"setup_s": "s", "norm_wall_s": "s", "norm_work_per_s": "1/s", "peak_rss_mb": "MB"}


def _cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _machine(nproc: int) -> dict:
    import numpy
    import scipy
    from npdshare._kernels import backend_name

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "backend": backend_name(),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
    }


def _measure_setup(spec_path: str) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, spec_path],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return times


def _execute(task, cli_main, tracer=None):
    """Run one task in-process; return (seconds, exit code or None, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            argv = list(task.argv)
            rc = tracer.task(cli_main, argv) if tracer else cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


class Outcomes:
    """Keeps the first output of each task; later runs must reproduce it."""

    def __init__(self):
        self.first: dict[int, tuple] = {}
        self.runs: Counter = Counter()
        self.diverged: Counter = Counter()

    def add(self, index: int, rc, out: str, err: str) -> None:
        self.runs[index] += 1
        if index not in self.first:
            self.first[index] = (rc, out, err)
        elif self.first[index][:2] != (rc, out):
            self.diverged[index] += 1


def _check_all(tasks, outcomes: Outcomes, workdir: Path):
    from checks import check_task

    failed, reasons = 0, []
    for index, task in enumerate(tasks):
        rc, out, err = outcomes.first[index]
        if rc is None:
            reason = "raised: " + err.strip().splitlines()[-1]
        else:
            try:
                reason = check_task(task, rc, out, err, workdir)
            except Exception as exc:  # a check that cannot parse the output fails it
                reason = f"output check raised {exc!r}"
        if reason is None and outcomes.diverged[index]:
            reason = f"{outcomes.diverged[index]} later runs differ from the first"
            failed += outcomes.diverged[index]
        elif reason is not None:
            failed += outcomes.runs[index]
        if reason is not None:
            reasons.append(f"{task.name} {' '.join(task.argv)}: {reason}")
    return failed, reasons


def _work_units(workload, tasks, outcomes) -> int:
    if workload == "preconditions":
        from checks import count_reports

        return sum(count_reports(outcomes.first[i][1]) for i in range(len(tasks)))
    return sum(task.units for task in tasks)


def _another_pass_fits(start: float, pass_walls: list[float], seconds: float) -> bool:
    """Whether one more pass, as long as the mean so far, ends within ``seconds``."""
    mean_pass = sum(pass_walls) / len(pass_walls)
    return time.perf_counter() - start + mean_pass <= seconds


def _untraced(tasks, seconds, cli_main, outcomes):
    """Whole passes of the task list, as many as fit in ``seconds``.

    ``wall_s``, the time to run the list once, is the median over passes of
    the summed task times.  A block of reference-kernel slices
    (``hostspeed.py``) runs before the first task and after each task: at
    least one slice, and after a task as many as make REF_SHARE of its time.
    Each task's time is rescaled by the slices' usual time on the reference
    machine over their time in the blocks just before and after it, and
    ``norm_wall_s`` is the median over passes of the rescaled pass time.  A
    host that runs everything slower for a while moves ``wall_s`` but not
    ``norm_wall_s``.

    A task's latency is its fastest run over the passes (best of k).  The
    tail percentile is the highest with at least TAIL_SAMPLES tasks of the
    list above it; it depends on the list alone, not on how many passes fit.
    """
    import numpy as np
    from hostspeed import SLICE_S, reference_slice

    def reference(min_s):
        # A block of slices: at least one, and more until they take min_s.
        ref_s, slices = 0.0, 0
        while slices == 0 or ref_s < min_s:
            ref_s += reference_slice()
            slices += 1
        return ref_s, slices

    pass_elapsed, pass_walls, pass_norms, speeds = [], [], [], []
    per_task = [[] for _ in tasks]
    reference(0.05)  # warm-up
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        times, blocks = [], [reference(0.0)]
        for index, task in enumerate(tasks):
            elapsed, rc, out, err = _execute(task, cli_main)
            times.append(elapsed)
            per_task[index].append(elapsed)
            outcomes.add(index, rc, out, err)
            blocks.append(reference(REF_SHARE * elapsed))
        # Each task is rescaled by the blocks just before and after it, so
        # the speed it is judged by is the host's speed around it.
        pass_norms.append(sum(
            t * SLICE_S * (n0 + n1) / (r0 + r1)
            for t, (r0, n0), (r1, n1) in zip(times, blocks, blocks[1:])))
        pass_walls.append(sum(times))
        # Speed against the reference machine: 1 there, below 1 slower.
        speeds.append(SLICE_S * sum(n for _, n in blocks) / sum(r for r, _ in blocks))
        pass_elapsed.append(time.perf_counter() - pass_start)
        if not _another_pass_fits(start, pass_elapsed, seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [min(t) for t in per_task]
    # None when the list is too short for any percentile to have
    # TAIL_SAMPLES tasks above it.
    tail_pct = 100.0 * (len(tasks) - TAIL_SAMPLES) / len(tasks) if len(tasks) > TAIL_SAMPLES else None
    return {
        "passes": len(pass_walls),
        "pass_walls": pass_walls,
        "pass_speeds": speeds,
        "wall_s": float(np.median(pass_walls)),
        "pass_norms": pass_norms,
        "norm_wall_s": float(np.median(pass_norms)),
        "host_speed": float(np.median(speeds)),
        "task_p50_s": float(np.median(latencies)),
        "task_tail_s": None if tail_pct is None else float(np.percentile(latencies, tail_pct)),
        "tail_percentile": tail_pct,
        "per_task_best_s": latencies,
        "per_task_s": per_task,
        "peak_rss_mb": peak_rss_mb,
    }


def _traced(tasks, seconds, cli_main, outcomes, tracer, workload):
    from checks import count_reports

    untraced = traced = 0.0
    stdout_bytes = reports = 0
    pass_walls = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index, task in enumerate(tasks):
            elapsed, rc, out, err = _execute(task, cli_main)
            untraced += elapsed
            outcomes.add(index, rc, out, err)
            tracer.install()
            try:
                elapsed, rc, out, err = _execute(task, cli_main, tracer)
            finally:
                tracer.uninstall()
            traced += elapsed
            outcomes.add(index, rc, out, err)
            stdout_bytes += len(out.encode())
            if workload == "preconditions":
                reports += count_reports(out)
        pass_walls.append(time.perf_counter() - pass_start)
        if not _another_pass_fits(start, pass_walls, seconds):
            break
    passes = len(pass_walls)
    metrics = tracer.layer_metrics(passes, stdout_bytes, reports)
    metrics["trace.overhead"] = ((traced - untraced) / untraced, "ratio")
    metrics["trace.wall_s"] = (traced / passes, "s")
    metrics["trace.untraced_wall_s"] = (untraced / passes, "s")
    return passes, metrics


def main(argv=None) -> int:
    from workloads import LEGACY_TASK, UNITS, WORKLOADS

    parser = argparse.ArgumentParser(description="npdshare benchmark harness")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "npdshare" / "__init__.py").is_file():
        print(f"perfbench: no npdshare sources at {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_threads()
    sys.path.insert(0, str(SRC))
    import npdshare
    import npdshare.cli

    if Path(npdshare.__file__).resolve().parent != (SRC / "npdshare").resolve():
        print(f"perfbench: npdshare imported from {npdshare.__file__}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import build

    machine = _machine(nproc)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        warm, tasks = build(args.workload, args.seed, workdir / "specs")
        warm_spec = warm.argv[warm.argv.index("--spec") + 1]
        setup_times = [] if args.trace else _measure_setup(warm_spec)
        outcomes = Outcomes()
        warm_rc = _execute(warm, npdshare.cli.main)[1]
        if args.trace:
            tracer = Tracer()
            passes, metrics = _traced(tasks, args.seconds, npdshare.cli.main, outcomes,
                                      tracer, args.workload)
        else:
            timing = _untraced(tasks, args.seconds, npdshare.cli.main, outcomes)
            passes = timing["passes"]
        check_start = time.perf_counter()
        failed, reasons = _check_all(tasks, outcomes, workdir)
        check_s = time.perf_counter() - check_start
        if warm_rc not in warm.expect_rc:
            failed += 1
            reasons.append(f"warm-up {' '.join(warm.argv)}: exit code {warm_rc}")
        attempted = sum(outcomes.runs.values()) + 1
        units = _work_units(args.workload, tasks, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "tasks_per_pass": len(tasks),
        "passes": passes, "attempted": attempted, "failed": failed, "check_s": check_s,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{passes} pass(es) of {len(tasks)} tasks, closed loop, one caller")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    if args.trace:
        results = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        WORK.joinpath("spans").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        for name, (value, unit) in metrics.items():
            print(f"  {name:38s} {value:>16.6g} {unit}")
    else:
        values = {
            "setup_s": sorted(setup_times)[len(setup_times) // 2],
            "norm_wall_s": timing["norm_wall_s"],
            "norm_work_per_s": units / timing["norm_wall_s"],
            "peak_rss_mb": timing["peak_rss_mb"],
        }
        results = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        # Printed and recorded, but left out of the result line: the raw
        # times move with the host's speed by more than any bound allows,
        # per-task latencies are single samples on the one-pass workloads,
        # and failed_frac is 0 on correct code.
        info = {
            "wall_s": (timing["wall_s"], "s"),
            "work_per_s": (units / timing["wall_s"], "1/s"),
            "host_speed": (timing["host_speed"], "ratio"),
            "task_p50_s": (timing["task_p50_s"], "s"),
        }
        if timing["task_tail_s"] is not None:
            info["task_tail_s"] = (timing["task_tail_s"], "s")
        info[UNITS[args.workload]] = (units / timing["wall_s"], "1/s")
        info["failed_frac"] = (failed / attempted, "ratio")
        info.update(
            ("legacy_t200_s", (med, "s"))
            for task, med in zip(tasks, timing["per_task_best_s"]) if task.name == LEGACY_TASK
        )
        record.update(timing, setup_times=setup_times)
        record["info"] = {k: {"value": v, "unit": u} for k, (v, u) in info.items()}
        for name, value in values.items():
            print(f"  {name:22s} {value:>14.6g} {E2E_UNITS[name]}")
        for name, (value, unit) in info.items():
            print(f"  {name:22s} {value:>14.6g} {unit}")
        tail = ("undefined" if timing["tail_percentile"] is None
                else f"p{timing['tail_percentile']:.1f}")
        print(f"  ({failed} of {attempted} task runs failed; task_tail_s is {tail} of "
              f"{len(tasks)} task latencies, each the best of {passes} passes)")
    record["metrics"] = results
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    WORK.joinpath("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("record: " + json.dumps(
        {k: record.get(k) for k in ("machine", "passes", "attempted", "failed", "info")}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
