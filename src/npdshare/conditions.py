"""Folk-theorem preconditions under imperfect monitoring.

Public monitoring: individual and pairwise full rank of the stacked
signal distributions.  A firm's matrix A_i(r) has one row per own action
(0 then 1), holding the public-signal distribution when the rest of the
profile is fixed; the pairwise matrix stacks A_i and A_j and always
contains a duplicate row (both firms' prescribed rows reproduce the
equilibrium distribution), so its maximal achievable rank is
|R_i| + |R_j| - 1 = 3.  The rows are product measures that differ only in
the tested firms' bits, so the rank is decided exactly from the monitor's
per-bit kernel (``_stacked_rank``), with no matrix built.

Private monitoring with communication: the identifiability conditions are
(C1) at each firm's minmax profile every other firm's deviation is either
statistically detectable by the rest or unprofitable; (C2) deviations by i
and by j are attributable to the right suspect from the viewpoint of the
others; (C3) jointly, the others' signal geometry separates the two suspects
(no positive collinearity of the deviation displacement directions).  C2 and
C3 quantify over firms outside the pair and are undefined for N = 2.

Every marginal compared here is a product-Bernoulli measure on one label
set, so C1 and C2 decide detectability exactly from the per-bit kernels: two
marginals differ exactly when some bit's P(bit = 0) differs, which is when
the reported gap (``signal_gap``, ``deviation_marginals_gap``,
``equilibrium_to_intersection_gap``, the max per-bit |delta P(bit = 0)|) is
positive.  C3 is degenerate exactly when no held bit moved, and otherwise
takes its displacement norms and its cosine from moments accumulated bit by
bit from the per-bit differences (``monitoring.displacement_moments``).  No
check expands the 2**bits outcome table, and no distance is compared with a
tolerance; only C3's collinearity test uses one (``COLLINEAR_TOL``).

Reports serialize to an indented key-value text document via ``to_text``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionInapplicableError, DomainError
from .game import (
    GameSpec,
    STRICT_TOL,
    all_profile_payoffs,
    extreme_profiles,
    minmax,
    validate_profile,
)
from .monitoring import (
    MODE_PUBLIC,
    FactoredBernoulli,
    displacement_moments,
    marginal_excluding,
    signal_kernel,
)

COLLINEAR_TOL = 1e-9  # cosines above 1 - this count as positively collinear


# ---------------------------------------------------------------------------
# report type


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    holds: bool
    context: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"condition: {self.condition_id}", f"holds: {str(self.holds).lower()}"]
        if self.context:
            lines.append("context:")
            lines.extend(_format_mapping(self.context, 1))
        if self.evidence:
            lines.append("evidence:")
            lines.extend(_format_mapping(self.evidence, 1))
        return "\n".join(lines)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    return str(v)


def _format_mapping(d: dict, depth: int) -> list[str]:
    pad = "  " * depth
    out = []
    for key, val in d.items():
        if isinstance(val, dict):
            out.append(f"{pad}{key}:")
            out.extend(_format_mapping(val, depth + 1))
        elif isinstance(val, ConditionReport):
            out.append(f"{pad}{key}:")
            out.extend(("  " * (depth + 1)) + ln for ln in val.to_text().splitlines())
        elif isinstance(val, (list, tuple)) and any(
            isinstance(x, (dict, ConditionReport)) for x in val
        ):
            out.append(f"{pad}{key}:")
            for x in val:
                if isinstance(x, ConditionReport):
                    block = x.to_text().splitlines()
                else:
                    block = _format_mapping(x, 0)
                out.append(f"{pad}  - {block[0]}")
                out.extend(f"{pad}    {ln}" for ln in block[1:])
        else:
            out.append(f"{pad}{key}: {_format_value(val)}")
    return out


# ---------------------------------------------------------------------------
# public-monitoring rank conditions


def _stacked_rank(spec: GameSpec, profile, firms) -> tuple[np.ndarray, int]:
    """Validated profile, and the rank of the public-signal distributions
    under each action of each firm in ``firms`` with the rest of ``profile``
    fixed.

    Every such row is a product measure over the N public bits that differs
    from the equilibrium row in at most the tested firm's bit.  If that
    bit's P(bit = 0) moves with the firm's action, the firms' deviation rows
    and the equilibrium row are linearly independent tensor products, and
    otherwise every row is the equilibrium row, so the rank is exactly
    1 + len(firms) * [P(0 | conceal) != P(0 | disclose)].
    """
    r = validate_profile(spec, profile)
    for firm in firms:
        if not 0 <= firm < spec.n_firms:
            raise DomainError(f"firm index {firm} out of range")
    kernel = signal_kernel(spec, MODE_PUBLIC)
    return r, 1 + len(firms) * int(kernel[0] != kernel[1])


def individual_full_rank(spec: GameSpec, profile, firm: int) -> ConditionReport:
    r, rank = _stacked_rank(spec, profile, (firm,))
    return ConditionReport(
        condition_id="individual_full_rank",
        holds=rank == 2,
        context={"profile": list(r), "firm": firm + 1},
        evidence={"rank": rank, "required": 2},
    )


def pairwise_full_rank(spec: GameSpec, profile, firm_i: int, firm_j: int) -> ConditionReport:
    """Stacked-pair rank check; maximal achievable rank is 3.

    Both firms' prescribed-action rows equal the equilibrium signal
    distribution, so one row is always redundant.
    """
    if firm_i == firm_j:
        raise DomainError("pairwise matrix needs two distinct firms")
    r, rank = _stacked_rank(spec, profile, (firm_i, firm_j))
    return ConditionReport(
        condition_id="pairwise_full_rank",
        holds=rank == 3,
        context={"profile": list(r), "pair": [firm_i + 1, firm_j + 1]},
        evidence={"rank": rank, "required": 3},
    )


def rank_reports(spec: GameSpec, extremes):
    """Individual rank at each firm's minmax profile, then pairwise rank at
    every profile of ``extremes`` for every pair, in that order."""
    for i in range(spec.n_firms):
        yield individual_full_rank(spec, minmax(spec, i).profile, i)
    for r in extremes:
        for i in range(spec.n_firms):
            for j in range(i + 1, spec.n_firms):
                yield pairwise_full_rank(spec, r, i, j)


# ---------------------------------------------------------------------------
# private-monitoring conditions


def _marginal_gap(p: FactoredBernoulli, q: FactoredBernoulli) -> float:
    """max_k |P(bit k = 0) - Q(bit k = 0)|: zero exactly when P == Q."""
    p._check_same_space(q)
    return float(np.max(np.abs(p.p_zero - q.p_zero)))


def check_c1(spec: GameSpec, minmaxed_firm: int) -> ConditionReport:
    """Deviations from the minmax profile are detectable or unprofitable.

    A deviation by j is detectable when the marginal of the firms other
    than j moves; ``signal_gap`` is its max per-bit |delta P(bit = 0)|.
    Mixed deviations reduce to the pure check: signal marginals and stage
    payoffs are both affine in a firm's mixing probability, so a mixed
    deviation is undetectable-and-profitable only if the pure one is.
    """
    mm = minmax(spec, minmaxed_firm)
    base = np.asarray(mm.profile, dtype=np.int64)
    x = base.sum()
    per_firm = []
    holds = True
    for j in range(spec.n_firms):
        if j == minmaxed_firm:
            continue
        p = marginal_excluding(spec, base, excluded=(j,))
        dev = base.copy()
        dev[j] = 1 - dev[j]
        q = marginal_excluding(spec, dev, excluded=(j,))
        gap = _marginal_gap(p, q)
        detectable = gap > 0
        a = base[j]
        gain = float(spec.stage[1 - a, x + 1 - 2 * a] - spec.stage[a, x])
        unprofitable = gain <= STRICT_TOL
        ok = detectable or unprofitable
        holds = holds and ok
        per_firm.append(
            {
                "firm": j + 1,
                "holds": ok,
                "clause": "detectable" if detectable else ("unprofitable" if unprofitable else "none"),
                "signal_gap": gap,
                "deviation_gain": gain,
            }
        )
    return ConditionReport(
        condition_id="c1_minmax_detectable_or_unprofitable",
        holds=holds,
        context={"minmaxed_firm": minmaxed_firm + 1, "profile": list(mm.profile)},
        evidence={"deviators": per_firm},
    )


def _pair_marginals(spec: GameSpec, profile, firm_i: int, firm_j: int):
    if spec.n_firms <= 2:
        raise ConditionInapplicableError(
            "pairwise attribution conditions quantify over firms outside the "
            "pair and require N > 2"
        )
    if firm_i == firm_j:
        raise DomainError("pair must consist of two distinct firms")
    r = validate_profile(spec, profile)
    excl = (firm_i, firm_j)
    p = marginal_excluding(spec, r, excluded=excl)
    dev_i = r.copy()
    dev_i[firm_i] = 1 - dev_i[firm_i]
    dev_j = r.copy()
    dev_j[firm_j] = 1 - dev_j[firm_j]
    q_i = marginal_excluding(spec, dev_i, excluded=excl)
    q_j = marginal_excluding(spec, dev_j, excluded=excl)
    return p, q_i, q_j


def check_c2(spec: GameSpec, profile, firm_i: int, firm_j: int) -> ConditionReport:
    """Equilibrium marginal not confusable with a common deviation marginal.

    With binary actions each suspect reaches exactly one alternative
    marginal, so the convex hulls are singletons: the intersection is
    nonempty only if both suspects induce the same marginal, and C2 then
    requires the equilibrium marginal to differ from it.  Both gaps
    (``deviation_marginals_gap``, ``equilibrium_to_intersection_gap``) are
    max per-bit |delta P(bit = 0)| between the marginals.
    """
    p, q_i, q_j = _pair_marginals(spec, profile, firm_i, firm_j)
    gap_ij = _marginal_gap(q_i, q_j)
    intersection_empty = gap_ij > 0
    if intersection_empty:
        holds = True
        gap_p = None
    else:
        gap_p = _marginal_gap(p, q_i)
        holds = gap_p > 0
    evidence = {
        "deviation_marginals_gap": gap_ij,
        "intersection_empty": intersection_empty,
    }
    if gap_p is not None:
        evidence["equilibrium_to_intersection_gap"] = gap_p
    return ConditionReport(
        condition_id="c2_attributable",
        holds=holds,
        context={"profile": list(validate_profile(spec, profile)), "pair": [firm_i + 1, firm_j + 1]},
        evidence=evidence,
    )


def _block_cosine(p: FactoredBernoulli, q: FactoredBernoulli) -> float:
    """cos(q - p, p) over the bits where q differs from p."""
    moved = p.p_zero != q.p_zero
    pp, dp, dd = displacement_moments(p.p_zero[moved], q.p_zero[moved])
    return dp / math.sqrt(pp * dd)


def check_c3(spec: GameSpec, profile, firm_i: int, firm_j: int) -> ConditionReport:
    """Suspect-deviation segments meet only at the equilibrium marginal.

    co({q_i} u {p}) and co({q_j} u {p}) are segments sharing endpoint p;
    they overlap beyond p iff the displacement directions q_i - p and
    q_j - p are positively collinear.  Degenerate displacements (q = p)
    collapse a segment to the point p and cannot create overlap.

    q_i and q_j move disjoint blocks of bits, the bits about i and about j
    held by the observers outside the pair.  Every other bit cancels, so
    the cosine of the two displacements is the product of each block's
    cos(q - p, p) (``_block_cosine``).
    """
    p, q_i, q_j = _pair_marginals(spec, profile, firm_i, firm_j)
    norm_i = p.l2_diff(q_i)
    norm_j = p.l2_diff(q_j)
    evidence: dict = {
        "displacement_norm_i": float(norm_i),
        "displacement_norm_j": float(norm_j),
    }
    if np.array_equal(p.p_zero, q_i.p_zero) or np.array_equal(p.p_zero, q_j.p_zero):
        holds = True
        evidence["degenerate_displacement"] = True
    else:
        cosine = _block_cosine(p, q_i) * _block_cosine(p, q_j)
        holds = cosine <= 1.0 - COLLINEAR_TOL
        evidence["cosine"] = float(cosine)
    return ConditionReport(
        condition_id="c3_jointly_attributable",
        holds=holds,
        context={"profile": list(validate_profile(spec, profile)), "pair": [firm_i + 1, firm_j + 1]},
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# theorem precondition bundles


def _interior_dimension_report(spec: GameSpec) -> ConditionReport:
    pts = all_profile_payoffs(spec)
    rank = int(np.linalg.matrix_rank(pts - pts.mean(axis=0), tol=1e-9))
    return ConditionReport(
        condition_id="feasible_set_full_dimension",
        holds=rank == spec.n_firms,
        evidence={"affine_dimension": rank, "required": spec.n_firms},
    )


def theorem_preconditions(spec: GameSpec, theorem: str) -> ConditionReport:
    """Precondition bundle for the public ('flm') or private ('km') folk theorem."""
    if theorem not in ("flm", "km"):
        raise DomainError(f"theorem must be 'flm' or 'km', got {theorem!r}")
    # extreme_profiles refuses N above its cap before the 2^N payoffs of the
    # dimension report are enumerated.
    extremes = extreme_profiles(spec)
    subs: list[ConditionReport] = [_interior_dimension_report(spec)]
    report_a2 = ConditionReport(
        condition_id="minmax_profile_inefficient",
        holds=spec.disclose_payoff(spec.n_firms) > STRICT_TOL,
        evidence={"full_disclosure_payoff": spec.disclose_payoff(spec.n_firms)},
    )
    subs.append(report_a2)
    if theorem == "flm":
        subs.extend(rank_reports(spec, extremes))
    else:
        if spec.n_firms <= 2:
            return ConditionReport(
                condition_id="km_preconditions",
                holds=False,
                context={"n_firms": spec.n_firms},
                evidence={
                    "reason": "private-monitoring folk theorem requires more than two firms"
                },
            )
        support = ConditionReport(
            condition_id="private_signals_full_support",
            holds=(0 < spec.epsilon) and (spec.alpha < 1),
            evidence={"alpha": spec.alpha, "epsilon": spec.epsilon},
        )
        subs.append(support)
        for i in range(spec.n_firms):
            subs.append(check_c1(spec, i))
        for r in extremes:
            for i in range(spec.n_firms):
                for j in range(i + 1, spec.n_firms):
                    subs.append(check_c2(spec, r, i, j))
                    subs.append(check_c3(spec, r, i, j))
    holds = all(s.holds for s in subs)
    return ConditionReport(
        condition_id=f"{theorem}_preconditions",
        holds=holds,
        context={"n_firms": spec.n_firms, "n_extreme_profiles": len(extremes)},
        evidence={"checks": subs},
    )
