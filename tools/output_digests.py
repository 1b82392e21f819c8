"""Digest every benchmark task's output, to compare two trees run by run.

Usage, from the root of a checkout:

    python3 tools/output_digests.py [--readme] SEED [SEED ...]

For each seed it builds the task lists of the four workloads in
``perfbench/workloads.py``, warm-up task first, and runs every task once,
in-process, through ``npdshare.cli.main(argv)``.  With ``--readme`` it also
runs each ``npdshare`` line of README's command block on README's spec JSON,
with the comment stripped and the [optional] arguments included, as CI does.
Each run prints one line: its workload, seed and task, its exit code, and the
sha256 of its stdout and of its stderr.  Running the script in two checkouts
and diffing the outputs shows every run whose bytes or exit code moved.

The runs happen in a fresh temporary directory, and every spec file sits at
the same relative path in it, so a path echoed in an output is the same in
both trees.  ``NPDSHARE_SEED`` is cleared and warnings are errors, as in CI.
The script writes nothing inside the checkout: bytecode is not cached.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(cli_main, argv) -> tuple[str, str, str]:
    """Run one command line; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = str(cli_main(list(argv)))
        except SystemExit as exc:  # argparse refuses the command line
            rc = str(exc.code if isinstance(exc.code, int) else 2)
        except Exception as exc:  # a traceback names this tree's paths
            rc = f"raised-{type(exc).__name__}"
            print(exc, file=sys.stderr)
    return rc, out.getvalue(), err.getvalue()


def _readme_runs(readme: str):
    """(label, argv) of each line of README's command block, its spec JSON
    written to ``game.json`` in the current directory."""
    spec = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    Path("game.json").write_text(spec, encoding="utf-8")
    block = re.search(r"```sh\n(npdshare .*?)```", readme, re.S).group(1)
    for k, line in enumerate(block.splitlines()):
        cmd = line.partition("#")[0]
        argv = re.sub(r"\[([^]]*)\]", r"\1", cmd).split()[1:]
        yield f"readme line={k} {' '.join(argv)}", argv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--readme", action="store_true",
                        help="also run README's command block on README's spec")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    os.environ.pop("NPDSHARE_SEED", None)
    warnings.simplefilter("error")
    import workloads
    from npdshare.cli import main as cli_main

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory(prefix="npdshare-digests-") as work:
        os.chdir(work)
        runs = []
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                warm, tasks = workloads.build(workload, seed, Path("specs", f"{workload}-{seed}"))
                runs += [(f"{workload} seed={seed} task={k} {t.name}", t.argv)
                         for k, t in enumerate((warm, *tasks))]
        if args.readme:
            runs += list(_readme_runs(readme))
        for label, task_argv in runs:
            rc, out, err = _run(cli_main, task_argv)
            print(f"{label}: exit {rc} stdout {_sha(out)} stderr {_sha(err)}", flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
