"""Exhaustive oracle for ``npdshare.decompose.k_star``.

The package computes every profile's level in closed form.  This oracle
builds the constraint system of each of the 2^N pure profiles and solves it,
by orthogonal enforcement first and the general HiGHS LP only if that fails,
then takes the best level with the same tie-break, so tests can check the
closed form against the solver bit for bit.
"""

import numpy as np
from scipy.optimize import linprog

from npdshare.decompose import (
    SOLVE_TOL,
    KStarResult,
    _direction,
    _profile_table,
    _result,
    _solve,
    _system,
)
from npdshare.game import all_profiles


def _profile_tables(spec):
    """The tables of all 2^N pure profiles, in ``all_profiles`` order."""
    return {r: _profile_table(spec, r) for r in all_profiles(spec.n_firms)}


def general_lp(t, lam):
    """The best level of a map with lambda . gamma_bar(b) <= 0 on every
    signal that enforces t's profile: maximize E[lambda . gamma_bar | r]
    subject to the incentive rows, by HiGHS.  An EnforceabilityResult with
    mode ``lp_general``, or None when HiGHS finds no map."""
    n, s = len(t.u_r), len(t.pi_eq)
    orth, cons, dev, _ = _system(t, lam)
    res = linprog(
        c=-(lam[:, None] * t.pi_eq).ravel(), A_ub=np.vstack([dev - cons, orth]),
        b_ub=np.concatenate([-t.gains, np.zeros(s)]), bounds=[(None, None)] * (n * s),
        method="highs",
    )
    if not res.success:
        return None
    # res.fun = -E[lam . gamma_bar(b) | r] >= 0 on the half-space, so the
    # level is at most lam . u(r); HiGHS may return 0 as -1e-16.
    level = float(lam @ t.u_r) - max(float(res.fun), 0.0)
    return _result(t, lam, "lp_general", res.x.reshape(n, s).T, level)


def exhaustive_k_star(spec, direction):
    """(KStarResult, {profile: level}, {profile: solve result}) over every
    enforceable profile."""
    tables = _profile_tables(spec)
    lam = _direction(direction, spec.n_firms)
    levels, maps = {}, {}
    for r, t in tables.items():
        res = _solve(t, lam, None)
        if not res.feasible:
            res = general_lp(t, lam)
        if res is not None:
            levels[r] = float(res.k_star)
            maps[r] = res
    best_value = max(levels.values())
    best = min(r for r, kv in levels.items() if kv >= best_value - SOLVE_TOL)
    result = KStarResult(
        direction=tuple(lam), value=levels[best], best_profile=best,
        orthogonal_at_best=maps[best].orthogonal,
    )
    return result, levels, maps
