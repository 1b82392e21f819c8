"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --workloads all --seeds 1-10 [--trace 0|1] [--json PATH]

For every workload it runs ``BENCHMARK.json``'s command once per seed, one
run at a time, and prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles over the median.  An end-to-end metric is
steady when its spread is below a third of its bound.  ``--json`` writes
the summary, with every value, for the trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = next(
        (json.loads(line[len("record: "):]) for line in lines if line.startswith("record: ")),
        {})
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help="comma-separated, or all")
    parser.add_argument("--seeds", default="1-10", help="LO-HI, inclusive")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="write the summary here")
    args = parser.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, machine, unsteady = {}, None, 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units, failed, attempted = {}, 0, 0
        for seed in _seeds(args.seeds):
            result, record = _run(bench["command"], workload, seed, args.seconds, args.trace)
            machine = record.get("machine")
            failed += result["failed"]
            attempted += result["attempted"]
            # Metrics the run prints beside the result line are summarized too.
            printed = {**result["metrics"], **(record.get("info") or {})}
            for name, metric in printed.items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        print(f"\n{workload}: {failed} of {attempted} task runs failed")
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None and args.trace == 0 and name != "setup_s":
                steady = spread < bound / 3
                unsteady += not steady
                note = f"{bound:5.2f} {'steady' if steady else 'UNSTEADY'}"
            print(f"  {name:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {note}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": units[name], "values": vals}
        summary[workload] = {"failed": failed, "attempted": attempted, "metrics": rows}
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
             "machine": machine, "workloads": summary}, indent=1) + "\n", encoding="utf-8")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
