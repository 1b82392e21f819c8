"""``marginal_excluding`` oracle for the C1-C3 evidence of
``npdshare.conditions``.

The package reads C1-C3 from arrays of P(bit = 0) over the held bits.  This
oracle builds a validated ``FactoredBernoulli`` for every marginal, as the
checks once did, and returns the evidence each check reports, so tests can
compare the two float for float.
"""

import math

import numpy as np

from npdshare.game import STRICT_TOL, minmax
from npdshare.monitoring import displacement_moments, marginal_excluding


def _gap(p, q):
    p._check_same_space(q)
    return float(np.max(np.abs(p.p_zero - q.p_zero)))


def _flip(profile, firm):
    dev = np.array(profile, dtype=np.int64)
    dev[firm] = 1 - dev[firm]
    return dev


def c1_evidence(spec, minmaxed_firm):
    base = np.asarray(minmax(spec, minmaxed_firm).profile, dtype=np.int64)
    x = base.sum()
    per_firm = []
    for j in range(spec.n_firms):
        if j == minmaxed_firm:
            continue
        p = marginal_excluding(spec, base, excluded=(j,))
        q = marginal_excluding(spec, _flip(base, j), excluded=(j,))
        gap = _gap(p, q)
        a = base[j]
        gain = float(spec.stage[1 - a, x + 1 - 2 * a] - spec.stage[a, x])
        detectable, unprofitable = gap > 0, gain <= STRICT_TOL
        per_firm.append({
            "firm": j + 1,
            "holds": detectable or unprofitable,
            "clause": "detectable" if detectable else ("unprofitable" if unprofitable else "none"),
            "signal_gap": gap,
            "deviation_gain": gain,
        })
    return {"deviators": per_firm}


def _pair(spec, profile, i, j):
    return [marginal_excluding(spec, r, excluded=(i, j))
            for r in (profile, _flip(profile, i), _flip(profile, j))]


def c2_evidence(spec, profile, i, j):
    p, q_i, q_j = _pair(spec, profile, i, j)
    ev = {"deviation_marginals_gap": _gap(q_i, q_j)}
    ev["intersection_empty"] = ev["deviation_marginals_gap"] > 0
    if not ev["intersection_empty"]:
        ev["equilibrium_to_intersection_gap"] = _gap(p, q_i)
    return ev


def _block_cosine(p, q):
    moved = p.p_zero != q.p_zero
    pp, dp, dd = displacement_moments(p.p_zero[moved], q.p_zero[moved])
    return dp / math.sqrt(pp * dd)


def c3_evidence(spec, profile, i, j):
    p, q_i, q_j = _pair(spec, profile, i, j)
    ev = {"displacement_norm_i": p.l2_diff(q_i), "displacement_norm_j": p.l2_diff(q_j)}
    if np.array_equal(p.p_zero, q_i.p_zero) or np.array_equal(p.p_zero, q_j.p_zero):
        ev["degenerate_displacement"] = True
    else:
        ev["cosine"] = float(_block_cosine(p, q_i) * _block_cosine(p, q_j))
    return ev

