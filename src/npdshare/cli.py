"""Command-line front end.

Subcommands: check, rank, decompose, payoffset, simulate, sweep.  Machine
output (CSV, or line-oriented key-value reports for check/rank) goes to
stdout or the ``--out`` file; human-readable summaries go to stderr.  Exit
codes: 0 success / all requested checks hold, 1 analysis negative (a check
fails, an enforceability problem is infeasible, a simulated discount is too
small) or a size cap exceeded (CapacityError), 2 usage or parse error.

Only ``simulate`` draws random numbers.  Its seed resolves from the
``--seed`` flag, else the spec file's ``seed`` field, else the NPDSHARE_SEED
environment variable, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys

import numpy as np

from .conditions import rank_reports, theorem_preconditions
from .decompose import ppe_payoff_set, solve_enforceability, table2_gamma_bar
from .engine import (
    AlwaysConceal,
    AlwaysDisclose,
    PromiseAutomaton,
    SignalTrigger,
    _write_trace,
    monte_carlo,
    run_episode,
)
from .errors import DomainError, NpdShareError
from .game import (
    check_assumptions,
    extreme_profiles,
    profile_payoff,
    validate_accuracy,
    validate_count,
    validate_positive,
    validate_profile,
    validate_vector,
)
from .rng import WORDS
from .specfile import load_game_spec

_STRATEGY_NAMES = ("always_disclose", "always_conceal", "signal_trigger:K", "promise")


def _numbers(text: str, name: str) -> tuple:
    """The comma-separated numbers of ``--name``'s ``text``."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"--{name} must be comma-separated numbers, got {text!r}") from None


def _parse_vector(text: str, name: str, length: int) -> tuple:
    return tuple(validate_vector(_numbers(text, name), length, f"--{name}").tolist())


def _parse_grid(text: str, name: str) -> tuple[float, float, int]:
    """The min, max and steps of a ``min:max:steps`` grid."""
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise DomainError(f"--{name} must look like min:max:steps, got {text!r}") from None
    validate_count(steps, f"--{name} steps")
    if hi < lo:
        raise DomainError(f"--{name} max must be >= min, got {text!r}")
    return lo, hi, steps


def _resolve_seed(args, loaded) -> int:
    """The seed, refused with the name of the source it came from; a spec
    file's seed is checked when the file is read."""
    if args.seed is not None:
        validate_count(args.seed, "--seed", 0, WORDS)
        return args.seed
    if loaded.seed is not None:
        return loaded.seed
    text = os.environ.get("NPDSHARE_SEED")
    if not text:
        return 0
    try:
        seed = int(text)
    except ValueError:
        raise DomainError(f"NPDSHARE_SEED must be an integer, got {text!r}") from None
    validate_count(seed, "NPDSHARE_SEED", 0, WORDS)
    return seed


def _open_for_write(path):
    """Open an output file; a path that cannot be opened is a usage error."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _output(args):
    """Yield the machine-output stream: the ``--out`` file, else stdout."""
    if not args.out:
        yield sys.stdout
        return
    with _open_for_write(args.out) as fh:
        yield fh


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    spec = load_game_spec(args.spec).spec
    report = check_assumptions(spec)
    blocks = [report.to_text()]
    ok = report.a1_holds and report.a2prime_holds
    theorems = ("flm", "km") if args.theorem == "both" else (args.theorem,)
    for name in theorems:
        tp = theorem_preconditions(spec, name)
        blocks.append(tp.to_text())
        ok = ok and tp.holds
    with _output(args) as fh:
        fh.write("\n\n".join(blocks) + "\n")
    print(
        f"check: assumptions and {'/'.join(theorems)} preconditions "
        f"{'hold' if ok else 'FAIL'} for N={spec.n_firms}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def cmd_rank(args) -> int:
    spec = load_game_spec(args.spec).spec
    reports = list(rank_reports(spec, extreme_profiles(spec)))
    ok = all(rep.holds for rep in reports)
    with _output(args) as fh:
        fh.write("\n\n".join(rep.to_text() for rep in reports) + "\n")
    print(
        f"rank: individual and pairwise full-rank conditions "
        f"{'hold' if ok else 'FAIL'} for N={spec.n_firms}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    spec = load_game_spec(args.spec).spec
    n = spec.n_firms
    direction = _parse_vector(args.direction, "lambda", n)
    action = ((1,) * n if args.action is None else
              tuple(validate_profile(spec, _numbers(args.action, "action"), "--action").tolist()))
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
    with _output(args) as fh:
        fh.write("# signal_index encodes the public bit vector with LSB = firm 1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["signal_index"] + [f"gamma_bar_{i + 1}" for i in range(n)])
        for b in range(2**n):
            writer.writerow([b, *res.gamma_bar[b].tolist()])
    print(
        f"decompose: k*={res.k_star!r} at action={action}, mode={res.mode}, "
        f"binding={list(res.binding)}",
        file=sys.stderr,
    )
    return 0


def cmd_payoffset(args) -> int:
    spec = load_game_spec(args.spec).spec
    validate_count(args.directions, "--directions", lo=8)
    approx = ppe_payoff_set(spec, n_directions=args.directions)
    if args.halfspaces:
        with _open_for_write(args.halfspaces) as fh:
            _write_halfspaces(fh, approx, spec.n_firms)
    with _output(args) as fh:
        if approx.vertices is None:
            _write_halfspaces(fh, approx, spec.n_firms)
        else:
            fh.write(f"# payoff-set polygon, {args.directions} directions\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["v_1", "v_2"])
            writer.writerows(approx.vertices.tolist())
    print(
        f"payoffset: {args.directions} directions, "
        + (
            f"{len(approx.vertices)} polygon vertices"
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
        writer.writerow([*lam.tolist(), float(kv), "".join(str(a) for a in prof)])


def _make_strategy(args, spec):
    """The strategy ``--strategy`` names, one instance that every firm plays."""
    name, n = args.strategy, spec.n_firms
    if name == "promise":
        if args.mode != "public":
            raise DomainError("the promise strategy runs under public monitoring")
        direction = ((1.0,) * n if args.direction is None
                     else _parse_vector(args.direction, "direction", n))
        v0 = (profile_payoff(spec, (1,) * n) if args.v0 is None
              else validate_vector(_numbers(args.v0, "v0"), n, "--v0"))
        # A Monte Carlo replica concedes where one episode raises.
        return PromiseAutomaton(spec, v0, direction,
                                on_exit="concede" if args.replicas > 1 else "raise")
    if args.v0 is not None or args.direction is not None:
        raise DomainError("--v0 and --direction apply only to the promise strategy")
    if name == "always_disclose":
        return AlwaysDisclose()
    if name == "always_conceal":
        return AlwaysConceal()
    if name.startswith("signal_trigger:"):
        raw = name.split(":", 1)[1]
        if raw == "inf":
            return SignalTrigger(math.inf)
        try:
            k = int(raw)
        except ValueError:
            raise DomainError(
                f"signal_trigger threshold must be an integer or 'inf', got {raw!r}"
            )
        return SignalTrigger(k)
    raise DomainError(
        f"unknown strategy {name!r}; available: {', '.join(_STRATEGY_NAMES)}"
    )


def cmd_simulate(args) -> int:
    loaded = load_game_spec(args.spec)
    spec = loaded.spec
    seed = _resolve_seed(args, loaded)
    validate_count(args.horizon, "--T")
    validate_count(args.replicas, "--replicas")
    # The engine clones the repeated instance for each firm.
    strategies = [_make_strategy(args, spec)] * spec.n_firms
    promise = args.strategy == "promise"
    if args.replicas > 1:
        mc = monte_carlo(spec, strategies, args.replicas, args.horizon, seed, mode=args.mode)
        with _output(args) as fh:
            _write_mc(fh, mc)
        if promise:
            what = f"promise MC over {mc.replicas} replicas ({mc.backend} backend)"
            halted = f", halted {mc.n_halted}"
        else:
            what, halted = f"MC over {mc.replicas} replicas", ""
        print(
            f"simulate: {what}: mean {_fmt_vec(mc.mean)}, stderr {_fmt_vec(mc.stderr)}"
            f"{halted}, truncation bias bound {mc.truncation_bias_bound:.3g}",
            file=sys.stderr,
        )
        return 0
    trace = run_episode(spec, strategies, args.horizon, seed, mode=args.mode)
    with _output(args) as fh:
        _write_trace(trace, fh)
    print(
        f"simulate: {'promise run, ' if promise else ''}discounted average "
        f"{_fmt_vec(trace.discounted_average())}, truncation bias bound "
        f"{trace.truncation_bias_bound():.3g}",
        file=sys.stderr,
    )
    return 0


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{float(x):.6g}" for x in v) + ")"


def _write_mc(fh, mc) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    n = mc.per_replica.shape[1]
    header = ["replica"] + [f"payoff_{i + 1}" for i in range(n)]
    if mc.halt_periods is not None:
        header.append("halt_period")
    writer.writerow(header)
    columns = [range(mc.replicas), *map(_reprs, mc.per_replica.T)]
    if mc.halt_periods is not None:
        columns.append(mc.halt_periods.tolist())
    writer.writerows(zip(*columns))


def _reprs(values) -> list[str]:
    """Each float of ``values`` as its repr, the text csv writes for it, so
    the file round-trips.  Each distinct value is formatted once: values
    are keyed by their bits, so -0.0 and 0.0 stay apart and every NaN
    prints as its own repr."""
    keys = values.view(np.int64).tolist()
    text = dict.fromkeys(keys)
    distinct = np.array(list(text), dtype=np.int64).view(np.float64).tolist()
    for key, x in zip(text, distinct):
        text[key] = repr(x)
    return list(map(text.__getitem__, keys))


def cmd_sweep(args) -> int:
    a_lo, a_hi, a_steps = _parse_grid(args.alpha_grid, "alpha-grid")
    e_lo, e_hi, e_steps = _parse_grid(args.epsilon_grid, "epsilon-grid")
    validate_positive(args.loss, "--L")
    for end, a, e in (("min", a_lo, e_lo), ("max", a_hi, e_hi)):
        validate_accuracy(f"--alpha-grid {end}", a, f"--epsilon-grid {end}", e)
    alphas, epsilons = np.linspace(a_lo, a_hi, a_steps), np.linspace(e_lo, e_hi, e_steps)
    rows = [
        [a, e, float(table2_gamma_bar(args.loss, a, e, (1.0, 1.0))[1, 0])]
        for a in alphas.tolist()
        for e in epsilons.tolist()
    ]
    with _output(args) as fh:
        fh.write(
            "# gamma_bar_1_10: firm 1 continuation reward on signal b=(1,0) at "
            "full disclosure, L/(epsilon*alpha*kappa)\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "epsilon", "gamma_bar_1_10"])
        writer.writerows(rows)
    print(
        f"sweep: {len(alphas)}x{len(epsilons)} grid, L={args.loss}", file=sys.stderr
    )
    return 0


# ---------------------------------------------------------------------------
# parser


# Built once per process: parsing leaves the parser unchanged.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npdshare",
        description="Repeated information-sharing games: checks, decomposition, "
        "payoff sets, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="game spec JSON file")
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
    p.add_argument("--seed", type=int, default=None, help="RNG seed, an integer in [0, 2**64)")
    p.add_argument("--strategy", required=True,
                   help=f"one of: {', '.join(_STRATEGY_NAMES)}")
    p.add_argument("--T", dest="horizon", type=int, default=1000)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--mode", choices=("public", "private"), default="public")
    p.add_argument("--v0", default=None, help="initial promise (promise strategy)")
    p.add_argument("--direction", default=None,
                   help="direction (promise strategy), default all 1s")
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
    except DomainError as exc:
        print(f"npdshare {args.command}: {exc}", file=sys.stderr)
        return 2
    except NpdShareError as exc:
        print(f"npdshare {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
