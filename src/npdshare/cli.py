"""Command-line front end.

Subcommands: check, rank, decompose, payoffset, simulate, sweep.  Machine
output (CSV, or line-oriented key-value reports for check/rank) goes to
stdout or the ``--out`` file; human-readable summaries go to stderr.  Exit
codes: 0 success / all requested checks hold, 1 analysis negative (a check
fails, an enforceability problem is infeasible, a simulated discount is too
small), 2 usage or parse error.

Seed resolution: ``--seed`` flag, else the spec file's ``seed`` field, else
the NPDSHARE_SEED environment variable, else 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .conditions import rank_reports, theorem_preconditions
from .decompose import (
    kappa,
    k_star,
    ppe_payoff_set,
    solve_enforceability,
)
from .engine import (
    AlwaysConceal,
    AlwaysDisclose,
    PromiseAutomaton,
    SignalTrigger,
    _write_trace,
    monte_carlo,
    monte_carlo_promise,
    run_episode,
    write_trace_csv,
)
from .errors import DiscountTooSmallError, DomainError, NpdShareError
from .game import check_assumptions, extreme_profiles, profile_payoff
from .specfile import MAX_SEED, load_game_spec

_STRATEGY_NAMES = ("always_disclose", "always_conceal", "signal_trigger:K", "promise")


class _UsageError(Exception):
    pass


def _parse_vector(text: str, name: str, length: int | None = None):
    try:
        vec = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--{name} must be comma-separated numbers, got {text!r}")
    if not all(math.isfinite(x) for x in vec):
        raise _UsageError(f"--{name} must be finite numbers, got {text!r}")
    if length is not None and len(vec) != length:
        raise _UsageError(f"--{name} must have {length} components, got {len(vec)}")
    return vec

def _parse_action(text: str, name: str, length: int):
    vec = _parse_vector(text, name, length)
    acts = tuple(int(v) for v in vec)
    if any(a not in (0, 1) or a != v for a, v in zip(acts, vec)):
        raise _UsageError(f"--{name} entries must be 0 or 1, got {text!r}")
    return acts


def _parse_grid(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--{name} must look like min:max:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise _UsageError(f"--{name} must look like min:max:steps, got {text!r}")
    if steps < 1 or hi < lo:
        raise _UsageError(f"--{name} needs steps >= 1 and max >= min, got {text!r}")
    return np.linspace(lo, hi, steps)


def _resolve_seed(args, loaded) -> int:
    if args.seed is not None:
        seed = args.seed
    elif loaded is not None and loaded.seed is not None:
        seed = loaded.seed
    elif os.environ.get("NPDSHARE_SEED"):
        try:
            seed = int(os.environ["NPDSHARE_SEED"])
        except ValueError:
            raise _UsageError(
                f"NPDSHARE_SEED must be an integer, got {os.environ['NPDSHARE_SEED']!r}"
            )
    else:
        seed = 0
    if not 0 <= seed <= MAX_SEED:
        raise _UsageError(f"seed must lie in [0, 2**63), got {seed}")
    return seed


def _open_out(args):
    if args.out:
        return open(args.out, "w", newline="", encoding="utf-8")
    return None


def _print(out, text: str) -> None:
    (out or sys.stdout).write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    loaded = load_game_spec(args.spec)
    spec = loaded.spec
    out = _open_out(args)
    try:
        blocks = []
        report = check_assumptions(spec)
        blocks.append(report.to_text())
        ok = report.a1_holds and report.a2prime_holds
        theorems = ("flm", "km") if args.theorem == "both" else (args.theorem,)
        for name in theorems:
            tp = theorem_preconditions(spec, name)
            blocks.append(tp.to_text())
            ok = ok and tp.holds
        _print(out, "\n\n".join(blocks) + "\n")
        print(
            f"check: assumptions and {'/'.join(theorems)} preconditions "
            f"{'hold' if ok else 'FAIL'} for N={spec.n_firms}",
            file=sys.stderr,
        )
        return 0 if ok else 1
    finally:
        if out:
            out.close()


def cmd_rank(args) -> int:
    loaded = load_game_spec(args.spec)
    spec = loaded.spec
    out = _open_out(args)
    try:
        blocks = []
        ok = True
        for rep in rank_reports(spec, extreme_profiles(spec)):
            blocks.append(rep.to_text())
            ok = ok and rep.holds
        _print(out, "\n\n".join(blocks) + "\n")
        print(
            f"rank: individual and pairwise full-rank conditions "
            f"{'hold' if ok else 'FAIL'} for N={spec.n_firms}",
            file=sys.stderr,
        )
        return 0 if ok else 1
    finally:
        if out:
            out.close()


def cmd_decompose(args) -> int:
    loaded = load_game_spec(args.spec)
    spec = loaded.spec
    n = spec.n_firms
    direction = _parse_vector(args.direction, "lambda", n)
    action = (
        (1,) * n if args.action is None else _parse_action(args.action, "action", n)
    )
    res = solve_enforceability(
        spec, action, direction, orthogonal=(args.mode == "orthogonal")
    )
    if not res.feasible:
        print(
            f"decompose: infeasible for action={action}, lambda={direction}, "
            f"mode={args.mode}: {res.failure_reason}",
            file=sys.stderr,
        )
        return 1
    out = _open_out(args)
    try:
        fh = out or sys.stdout
        fh.write("# signal_index encodes the public bit vector with LSB = firm 1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["signal_index"] + [f"gamma_bar_{i + 1}" for i in range(n)])
        for b in range(2**n):
            writer.writerow([b] + [repr(float(x)) for x in res.gamma_bar[b]])
    finally:
        if out:
            out.close()
    print(
        f"decompose: k*={res.k_star!r} at action={action}, mode={res.mode}, "
        f"binding={list(res.binding)}",
        file=sys.stderr,
    )
    return 0


def cmd_payoffset(args) -> int:
    loaded = load_game_spec(args.spec)
    spec = loaded.spec
    if args.directions < 8:
        raise _UsageError(f"--directions must be >= 8, got {args.directions}")
    approx = ppe_payoff_set(spec, n_directions=args.directions)
    if args.halfspaces:
        with open(args.halfspaces, "w", newline="", encoding="utf-8") as fh:
            _write_halfspaces(fh, approx, spec.n_firms)
    out = _open_out(args)
    try:
        fh = out or sys.stdout
        if approx.vertices is None:
            _write_halfspaces(fh, approx, spec.n_firms)
        else:
            fh.write(f"# payoff-set polygon, {args.directions} directions\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["v_1", "v_2"])
            for v in approx.vertices:
                writer.writerow([repr(float(v[0])), repr(float(v[1]))])
    finally:
        if out:
            out.close()
    n_vertices = 0 if approx.vertices is None else len(approx.vertices)
    print(
        f"payoffset: {args.directions} directions, "
        + (
            f"{n_vertices} polygon vertices"
            if approx.vertices is not None
            else "half-space list (no polygon for N > 2)"
        )
        + (", degenerate (empty interior)" if approx.degenerate else ""),
        file=sys.stderr,
    )
    return 0


def _write_halfspaces(fh, approx, n: int) -> None:
    fh.write("# half-spaces {v : lambda . v <= k}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        [f"lambda_{i + 1}" for i in range(n)] + ["k", "best_action"]
    )
    for lam, kv, prof in zip(approx.directions, approx.k_values, approx.best_profiles):
        writer.writerow(
            [repr(float(x)) for x in lam]
            + [repr(float(kv)), "".join(str(a) for a in prof)]
        )


def _make_strategy(name: str, spec):
    if name == "always_disclose":
        return lambda: AlwaysDisclose()
    if name == "always_conceal":
        return lambda: AlwaysConceal()
    if name.startswith("signal_trigger:"):
        raw = name.split(":", 1)[1]
        if raw == "inf":
            return lambda: SignalTrigger(math.inf)
        try:
            k = int(raw)
        except ValueError:
            raise _UsageError(
                f"signal_trigger threshold must be an integer or 'inf', got {raw!r}"
            )
        return lambda: SignalTrigger(k)
    raise _UsageError(
        f"unknown strategy {name!r}; available: {', '.join(_STRATEGY_NAMES)}"
    )


def cmd_simulate(args) -> int:
    loaded = load_game_spec(args.spec)
    spec = loaded.spec
    n = spec.n_firms
    seed = _resolve_seed(args, loaded)
    if args.horizon < 1:
        raise _UsageError(f"--T must be >= 1, got {args.horizon}")
    if args.replicas < 1:
        raise _UsageError(f"--replicas must be >= 1, got {args.replicas}")

    if args.strategy == "promise":
        if args.mode != "public":
            raise _UsageError("the promise strategy runs under public monitoring")
        direction = _parse_vector(args.direction, "direction", n)
        v0 = (
            profile_payoff(spec, (1,) * n)
            if args.v0 is None
            else np.asarray(_parse_vector(args.v0, "v0", n))
        )
        try:
            if args.replicas == 1:
                auto = PromiseAutomaton(spec, v0, direction)
                trace = run_episode(
                    spec, [auto.clone() for _ in range(n)], args.horizon, seed
                )
                _emit_trace(args, trace)
                print(
                    f"simulate: promise run, discounted average "
                    f"{_fmt_vec(trace.discounted_average())}, truncation bias bound "
                    f"{trace.truncation_bias_bound():.3g}",
                    file=sys.stderr,
                )
                return 0
            mc = monte_carlo_promise(
                spec, v0, direction, args.replicas, args.horizon, seed
            )
            _emit_mc(args, mc)
            print(
                f"simulate: promise MC over {mc.replicas} replicas "
                f"({mc.backend} backend): mean {_fmt_vec(mc.mean)}, stderr "
                f"{_fmt_vec(mc.stderr)}, halted {mc.n_halted}, truncation bias "
                f"bound {mc.truncation_bias_bound:.3g}",
                file=sys.stderr,
            )
            return 0
        except DiscountTooSmallError as exc:
            print(f"simulate: {exc}", file=sys.stderr)
            return 1

    factory = _make_strategy(args.strategy, spec)
    if args.replicas == 1:
        trace = run_episode(
            spec, [factory() for _ in range(n)], args.horizon, seed, mode=args.mode
        )
        _emit_trace(args, trace)
        print(
            f"simulate: discounted average {_fmt_vec(trace.discounted_average())}, "
            f"truncation bias bound {trace.truncation_bias_bound():.3g}",
            file=sys.stderr,
        )
        return 0
    mc = monte_carlo(
        spec,
        [factory() for _ in range(n)],
        args.replicas,
        args.horizon,
        seed,
        mode=args.mode,
    )
    _emit_mc(args, mc)
    print(
        f"simulate: MC over {mc.replicas} replicas: mean {_fmt_vec(mc.mean)}, "
        f"stderr {_fmt_vec(mc.stderr)}, truncation bias bound "
        f"{mc.truncation_bias_bound:.3g}",
        file=sys.stderr,
    )
    return 0


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{float(x):.6g}" for x in v) + ")"


def _emit_trace(args, trace) -> None:
    if args.out:
        write_trace_csv(trace, args.out)
    else:
        _write_trace(trace, sys.stdout)


def _emit_mc(args, mc) -> None:
    out = _open_out(args)
    try:
        fh = out or sys.stdout
        writer = csv.writer(fh, lineterminator="\n")
        n = mc.per_replica.shape[1]
        header = ["replica"] + [f"payoff_{i + 1}" for i in range(n)]
        if mc.halt_periods is not None:
            header.append("halt_period")
        writer.writerow(header)
        for r in range(mc.replicas):
            row = [r] + [repr(float(x)) for x in mc.per_replica[r]]
            if mc.halt_periods is not None:
                row.append(int(mc.halt_periods[r]))
            writer.writerow(row)
    finally:
        if out:
            out.close()


def cmd_sweep(args) -> int:
    alphas = _parse_grid(args.alpha_grid, "alpha-grid")
    epsilons = _parse_grid(args.epsilon_grid, "epsilon-grid")
    if args.loss <= 0:
        raise _UsageError(f"--L must be > 0, got {args.loss}")
    if not (0.5 < alphas[0] and alphas[-1] < 1):
        raise _UsageError(
            f"--alpha-grid must lie inside (1/2, 1), got [{alphas[0]}, {alphas[-1]}]"
        )
    if not (0 < epsilons[0] and epsilons[-1] < 0.5):
        raise _UsageError(
            f"--epsilon-grid must lie inside (0, 1/2), got [{epsilons[0]}, {epsilons[-1]}]"
        )
    out = _open_out(args)
    try:
        fh = out or sys.stdout
        fh.write(
            "# gamma_bar_1_10: firm 1 continuation reward on signal b=(1,0) at "
            "full disclosure, L/(epsilon*alpha*kappa)\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "epsilon", "gamma_bar_1_10"])
        for a in alphas:
            for e in epsilons:
                value = args.loss / (e * a * kappa(a, e))
                writer.writerow([repr(float(a)), repr(float(e)), repr(float(value))])
    finally:
        if out:
            out.close()
    print(
        f"sweep: {len(alphas)}x{len(epsilons)} grid, L={args.loss}", file=sys.stderr
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npdshare",
        description="Repeated information-sharing games: checks, decomposition, "
        "payoff sets, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec_required=True):
        if spec_required:
            p.add_argument("--spec", required=True, help="game spec JSON file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (u63)")
        p.add_argument("--out", default=None, help="write machine output to file")

    p = sub.add_parser("check", help="stage-game assumptions and folk-theorem preconditions")
    add_common(p)
    p.add_argument("--theorem", choices=("flm", "km", "both"), default="both")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rank", help="individual and pairwise signal-rank conditions")
    add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("decompose", help="continuation map for one action and direction")
    add_common(p)
    p.add_argument("--lambda", dest="direction", required=True,
                   help="direction, comma-separated")
    p.add_argument("--action", default=None, help="action profile bits, default all 1s")
    p.add_argument("--mode", choices=("orthogonal", "general"), default="orthogonal")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("payoffset", help="approximate the limit equilibrium payoff set")
    add_common(p)
    p.add_argument("--directions", type=int, default=360)
    p.add_argument("--halfspaces", default=None,
                   help="also write the half-space list to this file")
    p.set_defaults(func=cmd_payoffset)

    p = sub.add_parser("simulate", help="run episodes or Monte Carlo")
    add_common(p)
    p.add_argument("--strategy", required=True,
                   help=f"one of: {', '.join(_STRATEGY_NAMES)}")
    p.add_argument("--T", dest="horizon", type=int, default=1000)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--mode", choices=("public", "private"), default="public")
    p.add_argument("--v0", default=None, help="initial promise (promise strategy)")
    p.add_argument("--direction", default="1,1", help="direction (promise strategy)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="continuation-size surface over (alpha, epsilon)")
    p.add_argument("--alpha-grid", required=True, help="min:max:steps in (1/2, 1)")
    p.add_argument("--epsilon-grid", required=True, help="min:max:steps in (0, 1/2)")
    p.add_argument("--L", dest="loss", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"npdshare {args.command}: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"npdshare {args.command}: {exc}", file=sys.stderr)
        return 2
    except NpdShareError as exc:
        print(f"npdshare {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
