"""``marginal_excluding`` oracle for the C1-C3 evidence of
``npdshare.conditions``.

The package decides C2 and C3 for every (profile, pair) at once, from
stacked arrays of P(bit = 0) over the held bits.  This oracle builds a
validated ``FactoredBernoulli`` for every marginal of one (profile, pair),
as the checks once did, takes C3's moments with a scalar loop over the bits
(``scalar_displacement_moments``), and returns the evidence each check
reports, so tests can compare the two float for float.
"""

import math

import numpy as np

from npdshare.game import STRICT_TOL, minmax
from npdshare.monitoring import marginal_excluding


def scalar_displacement_moments(a, b):
    """(<P, P>, <Q - P, P>, ||Q - P||^2) of the product measures with
    P(bit = 0) ``a`` and ``b``, one Python float operation at a time, in
    the order of ``npdshare.monitoring.displacement_moments``."""
    pp, dp, dd = 1.0, 0.0, 0.0
    for ak, bk in zip(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()):
        d = bk - ak
        dd = (dd * (bk * bk + (1 - bk) * (1 - bk)) + 2 * dp * d * (2 * bk - 1)
              + 2 * pp * d * d)
        dp = dp * (ak * bk + (1 - ak) * (1 - bk)) + pp * d * (2 * ak - 1)
        pp = pp * (ak * ak + (1 - ak) * (1 - ak))
    return pp, dp, dd


def per_bit_gap(a, b):
    """max_k |a_k - b_k| of two P(bit = 0) arrays: zero exactly when the
    product measures are equal."""
    return float(np.max(np.abs(a - b)))


def _gap(p, q):
    p._check_same_space(q)
    return per_bit_gap(p.p_zero, q.p_zero)


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


def _c2(p, q_i, q_j):
    ev = {"deviation_marginals_gap": _gap(q_i, q_j)}
    ev["intersection_empty"] = ev["deviation_marginals_gap"] > 0
    if not ev["intersection_empty"]:
        ev["equilibrium_to_intersection_gap"] = _gap(p, q_i)
    return ev


def _block_cosine(p, q):
    moved = p.p_zero != q.p_zero
    pp, dp, dd = scalar_displacement_moments(p.p_zero[moved], q.p_zero[moved])
    return dp / math.sqrt(pp * dd)


def _norm(p, q):
    p._check_same_space(q)
    return math.sqrt(scalar_displacement_moments(p.p_zero, q.p_zero)[2])


def _c3(p, q_i, q_j):
    ev = {"displacement_norm_i": _norm(p, q_i), "displacement_norm_j": _norm(p, q_j)}
    if np.array_equal(p.p_zero, q_i.p_zero) or np.array_equal(p.p_zero, q_j.p_zero):
        ev["degenerate_displacement"] = True
    else:
        ev["cosine"] = float(_block_cosine(p, q_i) * _block_cosine(p, q_j))
    return ev


def c2_c3_evidence(spec, profile, i, j):
    """The C2 and C3 evidence of one (profile, pair), from one set of
    marginals."""
    marginals = _pair(spec, profile, i, j)
    return _c2(*marginals), _c3(*marginals)
