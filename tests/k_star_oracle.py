"""Exhaustive oracle for ``npdshare.decompose.k_star``.

The package tries profiles in descending lambda . u(r) order and stops once
no remaining profile can reach the best level.  This oracle solves every
one of the 2^N pure profiles, each by orthogonal enforcement first and the
general LP only if that fails, and takes the best level with the same
tie-break, so tests can check the lazy search against the full one bit for
bit.
"""

from npdshare.decompose import (
    SOLVE_TOL,
    KStarResult,
    _direction,
    _orth_rows,
    _profile_tables,
    _solve,
)


def exhaustive_k_star(spec, direction):
    """(KStarResult, {profile: level}) over every enforceable profile."""
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
        orthogonal_at_best=maps[best].orthogonal, best_map=maps[best],
    )
    return result, levels
