"""Spans around the public functions of each npdshare layer, from outside.

The tracer replaces a function with a recording wrapper wherever an npdshare
module binds it: ``_kernels`` binds ``uniforms`` by name, ``decompose`` binds
``linprog`` and ``cli`` binds every layer entry point, so patching only the
defining module would miss calls.  Methods are patched on their class.

A span is ``(name, start, end, parent)``; the parent is the index of the
enclosing span, or -1.  Spans stay in memory until the run ends.  A layer's
self time is the time of its spans minus the time of their direct children.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Metric prefix of each layer; a metric name must start with a letter, so the
# ``_kernels`` module reports as ``kernels``.
LAYERS = (
    "rng", "monitoring", "conditions", "decompose", "geometry",
    "engine", "kernels", "game", "specfile", "cli",
)

ROOT_SPAN = "cli.main"


def _count_draws(res, args, kwargs):
    return {"draws": int(np.size(res))}


def _count_dense(res, args, kwargs):
    # 8 bytes per float64 outcome of the expansion, computed from its size.
    return {"bytes": 8 * 2 ** args[0].n_bits}


def _count_solve(res, args, kwargs):
    out = {"infeasible" if not res.feasible else res.mode: 1}
    if res.orthogonal:
        out["orthogonal_tried"] = 1
        out["orthogonal_ok"] = int(res.feasible)
    return out


def _count_episode(res, args, kwargs):
    return {"periods": int(res.horizon)}


def _count_trace_write(res, args, kwargs):
    return {"bytes": os.path.getsize(args[1])}


def _count_promise_mc(res, args, kwargs):
    _, halt = res
    replicas, horizon = int(kwargs["replicas"]), int(kwargs["horizon"])
    n = int(np.size(kwargs["v0"]))
    live = int(np.where(halt >= 0, halt, horizon).sum())
    # The kernel draws for every replica until the last one halts.
    draw_periods = horizon if np.any(halt < 0) else int(halt.max())
    computed = replicas * draw_periods
    return {
        "replica_periods": replicas * horizon,
        "live": live,
        "computed": computed,
        "halted": int(np.sum(halt >= 0)),
        "replicas": replicas,
        "wasted_draws": n * (computed - live),
    }


def _targets():
    """(owner, attribute, span name, counter) for every traced entry point."""
    from npdshare import (
        _kernels, conditions, decompose, engine, game, geometry, monitoring,
        rng, specfile,
    )

    return [
        (rng, "uniforms", "rng.uniforms", _count_draws),
        (monitoring, "public_profile_distribution_raw", "monitoring.public_dist", None),
        (monitoring, "marginal_excluding", "monitoring.marginal", None),
        (monitoring.FactoredBernoulli, "dense", "monitoring.dense", _count_dense),
        (monitoring.FactoredBernoulli, "sup_diff", "monitoring.sup_diff", None),
        (monitoring.FactoredBernoulli, "l2_diff", "monitoring.l2_diff", None),
        (conditions, "theorem_preconditions", "conditions.theorem", None),
        (conditions, "individual_full_rank", "conditions.rank", None),
        (conditions, "pairwise_full_rank", "conditions.rank", None),
        (conditions, "check_c1", "conditions.c1", None),
        (conditions, "check_c2", "conditions.c2", None),
        (conditions, "check_c3", "conditions.c3", None),
        (decompose, "solve_enforceability", "decompose.solve", _count_solve),
        (decompose, "linprog", "decompose.linprog", None),
        (decompose, "k_star", "decompose.k_star", None),
        (decompose, "ppe_payoff_set", "decompose.payoff_set", None),
        (decompose.PromiseDecomposition, "__init__", "decompose.promise_setup", None),
        (decompose.PromiseDecomposition, "gamma_bar_for", "decompose.gamma_bar_for", None),
        (geometry, "halfplane_intersection_2d", "geometry.halfplane", None),
        (geometry, "ensure_ccw", "geometry.ensure_ccw", None),
        (geometry, "point_in_hull", "geometry.point_in_hull", None),
        (geometry, "linprog", "geometry.linprog", None),
        (engine, "run_episode", "engine.run_episode", _count_episode),
        (engine, "monte_carlo", "engine.monte_carlo", None),
        (engine, "monte_carlo_promise", "engine.monte_carlo_promise", None),
        (engine, "write_trace_csv", "engine.trace_write", _count_trace_write),
        (_kernels, "promise_mc", "kernels.promise_mc", _count_promise_mc),
        (game, "profile_payoff", "game.profile_payoff", None),
        (game, "minmax", "game.minmax", None),
        (game, "extreme_profiles", "game.extreme_profiles", None),
        (game, "check_assumptions", "game.check_assumptions", None),
        (specfile, "load_game_spec", "specfile.load", None),
    ]


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if counter is not None:
                for key, val in counter(res, args, kwargs).items():
                    counts[f"{name}.{key}"] += val
            return res

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "npdshare" or key.startswith("npdshare."))
        ]
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, counter)
            if isinstance(owner, type) or not original.__module__.startswith("npdshare"):
                # Methods live on their class; a foreign function such as
                # scipy's linprog is attributed to the module that calls it.
                holders = [owner]
            else:
                holders = [m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def task(self, fn, *args):
        """Run one task under the root span."""
        return self._wrap(fn, ROOT_SPAN, None)(*args)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")

    def layer_metrics(self, passes: int, stdout_bytes: int, reports: int) -> dict:
        """Per-layer metrics per pass of the task list, as (value, unit)."""
        spans, counts = self.spans, self.counts
        dur = [end - start for (_, start, end, _) in spans]
        child = [0.0] * len(spans)
        under_engine = [False] * len(spans)
        for sid, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[sid]
                under_engine[sid] = (
                    under_engine[parent] or spans[parent][0].startswith("engine.")
                )
        busy = defaultdict(float)
        self_by_name = defaultdict(float)
        calls = Counter()
        layer_self = defaultdict(float)
        game_busy = 0.0
        engine_payoff_calls = 0
        for sid, (name, _, _, parent) in enumerate(spans):
            own = dur[sid] - child[sid]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            self_by_name[name] += own
            layer_self[layer] += own
            parent_name = spans[parent][0] if parent >= 0 else ""
            # Count a span's busy time once when it recurses into itself.
            if parent_name != name:
                busy[name] += dur[sid]
            if layer == "game" and not under_engine[sid] and not parent_name.startswith("game."):
                game_busy += dur[sid]
            if name == "game.profile_payoff" and parent_name.startswith("engine."):
                engine_payoff_calls += 1
        total = busy[ROOT_SPAN]
        p = float(passes)

        def per(x):
            return x / p

        def ratio(num, den):
            return num / den if den else 0.0

        rng_draws = counts["rng.uniforms.draws"]
        mc = "kernels.promise_mc"
        periods = counts["engine.run_episode.periods"]
        m = {
            "rng.calls": (per(calls["rng.uniforms"]), "count"),
            "rng.draws": (per(rng_draws), "count"),
            "rng.busy_s": (per(busy["rng.uniforms"]), "s"),
            "rng.draws_per_s": (ratio(rng_draws, busy["rng.uniforms"]), "1/s"),
            "rng.useful_draw_ratio": (
                ratio(rng_draws - counts[f"{mc}.wasted_draws"], rng_draws), "ratio"),
            "monitoring.public_dist.calls": (per(calls["monitoring.public_dist"]), "count"),
            "monitoring.public_dist.busy_s": (per(busy["monitoring.public_dist"]), "s"),
            "monitoring.marginal.calls": (per(calls["monitoring.marginal"]), "count"),
            "monitoring.marginal.busy_s": (per(busy["monitoring.marginal"]), "s"),
            "monitoring.dense.calls": (per(calls["monitoring.dense"]), "count"),
            "monitoring.dense.busy_s": (per(busy["monitoring.dense"]), "s"),
            "monitoring.dense.bytes": (per(counts["monitoring.dense.bytes"]), "bytes"),
            "monitoring.sup_diff.busy_s": (per(busy["monitoring.sup_diff"]), "s"),
            "conditions.reports": (per(reports), "count"),
            "conditions.rank.calls": (per(calls["conditions.rank"]), "count"),
            "conditions.rank.busy_s": (per(busy["conditions.rank"]), "s"),
            "conditions.c1.busy_s": (per(busy["conditions.c1"]), "s"),
            "conditions.c2.busy_s": (per(busy["conditions.c2"]), "s"),
            "conditions.c3.busy_s": (per(busy["conditions.c3"]), "s"),
            "decompose.solve.calls": (per(calls["decompose.solve"]), "count"),
            "decompose.solve.busy_s": (per(busy["decompose.solve"]), "s"),
            "decompose.solve.self_s": (per(self_by_name["decompose.solve"]), "s"),
            "decompose.solve.equality": (per(counts["decompose.solve.equality"]), "count"),
            "decompose.solve.lp_feasibility": (
                per(counts["decompose.solve.lp_feasibility"]), "count"),
            "decompose.solve.lp_general": (per(counts["decompose.solve.lp_general"]), "count"),
            "decompose.solve.infeasible": (per(counts["decompose.solve.infeasible"]), "count"),
            "decompose.orthogonal_success_ratio": (
                ratio(counts["decompose.solve.orthogonal_ok"],
                      counts["decompose.solve.orthogonal_tried"]), "ratio"),
            "decompose.linprog.calls": (per(calls["decompose.linprog"]), "count"),
            "decompose.linprog.busy_s": (per(busy["decompose.linprog"]), "s"),
            "decompose.k_star.calls": (per(calls["decompose.k_star"]), "count"),
            "decompose.k_star.busy_s": (per(busy["decompose.k_star"]), "s"),
            "decompose.promise_setup_s": (per(busy["decompose.promise_setup"]), "s"),
            "geometry.halfplane.busy_s": (per(busy["geometry.halfplane"]), "s"),
            "engine.episodes": (per(calls["engine.run_episode"]), "count"),
            "engine.periods": (per(periods), "count"),
            "engine.run_episode.busy_s": (per(busy["engine.run_episode"]), "s"),
            "engine.run_episode.self_s": (per(self_by_name["engine.run_episode"]), "s"),
            "engine.period_us": (1e6 * ratio(busy["engine.run_episode"], periods), "us"),
            "engine.profile_payoff.calls": (per(engine_payoff_calls), "count"),
            "engine.monte_carlo.busy_s": (per(busy["engine.monte_carlo"]), "s"),
            "engine.trace_write.busy_s": (per(busy["engine.trace_write"]), "s"),
            "engine.trace_write.bytes": (per(counts["engine.trace_write.bytes"]), "bytes"),
            "kernels.promise_mc.calls": (per(calls[mc]), "count"),
            "kernels.promise_mc.busy_s": (per(busy[mc]), "s"),
            "kernels.promise_mc.self_s": (per(self_by_name[mc]), "s"),
            "kernels.replica_periods": (per(counts[f"{mc}.replica_periods"]), "count"),
            "kernels.live_ratio": (
                ratio(counts[f"{mc}.live"], counts[f"{mc}.computed"]), "ratio"),
            "kernels.halt_frac": (
                ratio(counts[f"{mc}.halted"], counts[f"{mc}.replicas"]), "ratio"),
            "game.busy_s": (per(game_busy), "s"),
            "specfile.load.busy_s": (per(busy["specfile.load"]), "s"),
            "cli.stdout_bytes": (per(stdout_bytes), "bytes"),
            "trace.spans": (per(len(spans)), "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (per(layer_self[layer]), "s")
            m[f"{layer}.self_share"] = (ratio(layer_self[layer], total), "ratio")
        return m
