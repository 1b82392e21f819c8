"""Exhaustive oracle for ``npdshare.decompose.k_star``.

The package computes every profile's level in closed form.  This oracle
builds the constraint system of each of the 2^N pure profiles and solves it,
by orthogonal enforcement first and the general LP only if that fails, then
takes the best level with the same tie-break, so tests can check the closed
form against the solver bit for bit.
"""

from npdshare.decompose import (
    SOLVE_TOL,
    KStarResult,
    _direction,
    _orth_rows,
    _profile_table,
    _solve,
)
from npdshare.game import all_profiles


def _profile_tables(spec):
    """The tables of all 2^N pure profiles, in ``all_profiles`` order."""
    return {r: _profile_table(spec, r) for r in all_profiles(spec.n_firms)}


def exhaustive_k_star(spec, direction):
    """(KStarResult, {profile: level}, {profile: solve result}) over every
    enforceable profile."""
    tables = _profile_tables(spec)
    lam = _direction(direction, spec.n_firms)
    orth = _orth_rows(lam)
    levels, maps = {}, {}
    for r, t in tables.items():
        res = _solve(t, lam, orth, True, None)
        if not res.feasible:
            res = _solve(t, lam, orth, False, None)
        if res.feasible:
            levels[r] = float(res.k_star)
            maps[r] = res
    best_value = max(levels.values())
    best = min(r for r, kv in levels.items() if kv >= best_value - SOLVE_TOL)
    result = KStarResult(
        direction=tuple(lam), value=levels[best], best_profile=best,
        orthogonal_at_best=maps[best].orthogonal,
    )
    return result, levels, maps
