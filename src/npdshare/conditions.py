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

The checks work on arrays of P(bit = 0), one entry per bit held outside the
excluded firms: the cached layout ``monitoring.held_private_bits`` gives each
held bit's observed firm, the profile indexes the private kernel with it,
and a deviation swaps only the bits about the deviator.  These are the
``p_zero`` vectors of ``monitoring.marginal_excluding``, built without its
labels and validation; each check validates its profile once.

Reports serialize to an indented key-value text document via ``to_text``,
written in one pass with nested reports in place.  Numpy scalars print like
their Python counterparts.
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
    MODE_PRIVATE,
    MODE_PUBLIC,
    displacement_moments,
    held_private_bits,
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
        out: list[str] = []
        _write_report(self, out, "", "")
        return "\n".join(out)


def _format_value(v) -> str:
    fmt = _FORMATS.get(type(v))
    if fmt is not None:
        return fmt(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    if isinstance(v, (list, tuple)):
        return _format_list(v)
    return str(v)


def _format_list(v) -> str:
    return "[" + ", ".join([_format_value(x) for x in v]) + "]"


# Exact types that need no isinstance chain; numpy scalars and subclasses
# take the chain in _format_value.
_FORMATS = {
    bool: lambda v: "true" if v else "false",
    int: str,
    float: repr,
    str: str,
    list: _format_list,
    tuple: _format_list,
}


def _write_report(rep: ConditionReport, out: list[str], first: str, pad: str) -> None:
    """Append ``rep``'s lines to ``out``, the first prefixed by ``first`` and
    the rest by ``pad``; nested reports and mappings are written in place,
    one level ("  ") deeper."""
    out.append(f"{first}condition: {rep.condition_id}")
    out.append(f"{pad}holds: {_format_value(rep.holds)}")
    for name, mapping in (("context", rep.context), ("evidence", rep.evidence)):
        if mapping:
            out.append(f"{pad}{name}:")
            _write_mapping(mapping, out, pad + "  ", pad + "  ")


def _write_mapping(d: dict, out: list[str], first: str, pad: str) -> None:
    """``key: value`` lines in the same prefix scheme as ``_write_report``.
    A list of reports or mappings is written as a block per item, the
    item's first line after ``- ``."""
    for key, val in d.items():
        head, first = first, pad
        if isinstance(val, dict):
            out.append(f"{head}{key}:")
            _write_mapping(val, out, pad + "  ", pad + "  ")
        elif isinstance(val, ConditionReport):
            out.append(f"{head}{key}:")
            _write_report(val, out, pad + "  ", pad + "  ")
        elif isinstance(val, (list, tuple)) and val and isinstance(val[0], (dict, ConditionReport)):
            out.append(f"{head}{key}:")
            for x in val:
                write = _write_report if isinstance(x, ConditionReport) else _write_mapping
                write(x, out, pad + "  - ", pad + "    ")
        else:
            out.append(f"{head}{key}: {_format_value(val)}")


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
        context={"profile": r.tolist(), "firm": firm + 1},
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
        context={"profile": r.tolist(), "pair": [firm_i + 1, firm_j + 1]},
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


def _gap(p: np.ndarray, q: np.ndarray) -> float:
    """max_k |P(bit k = 0) - Q(bit k = 0)|: zero exactly when P == Q."""
    return float(np.max(np.abs(p - q)))


def _deviation(kernel: np.ndarray, r: np.ndarray, observed: np.ndarray,
               p: np.ndarray, firm: int) -> np.ndarray:
    """The held bits' P(bit = 0) when ``firm`` deviates from ``r``: ``p``
    with the bits about ``firm`` read under its other action."""
    q = p.copy()
    q[observed == firm] = kernel[1 - r[firm]]
    return q


def check_c1(spec: GameSpec, minmaxed_firm: int) -> ConditionReport:
    """Deviations from the minmax profile are detectable or unprofitable.

    A deviation by j is detectable when the marginal of the firms other
    than j moves; ``signal_gap`` is its max per-bit |delta P(bit = 0)|.
    Mixed deviations reduce to the pure check: signal marginals and stage
    payoffs are both affine in a firm's mixing probability, so a mixed
    deviation is undetectable-and-profitable only if the pure one is.
    """
    mm = minmax(spec, minmaxed_firm)
    base = validate_profile(spec, mm.profile)
    x = base.sum()
    kernel = signal_kernel(spec, MODE_PRIVATE)
    per_firm = []
    holds = True
    for j in range(spec.n_firms):
        if j == minmaxed_firm:
            continue
        _, observed = held_private_bits(spec, (j,))
        p = kernel[base[observed]]
        gap = _gap(p, _deviation(kernel, base, observed, p, j))
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
    """The validated profile, and P(bit = 0) of the bits held outside the
    pair at it and under each suspect's deviation."""
    if spec.n_firms <= 2:
        raise ConditionInapplicableError(
            "pairwise attribution conditions quantify over firms outside the "
            "pair and require N > 2"
        )
    if firm_i == firm_j:
        raise DomainError("pair must consist of two distinct firms")
    r = validate_profile(spec, profile)
    _, observed = held_private_bits(spec, (firm_i, firm_j))
    kernel = signal_kernel(spec, MODE_PRIVATE)
    p = kernel[r[observed]]
    return (
        r,
        p,
        _deviation(kernel, r, observed, p, firm_i),
        _deviation(kernel, r, observed, p, firm_j),
    )


def check_c2(spec: GameSpec, profile, firm_i: int, firm_j: int) -> ConditionReport:
    """Equilibrium marginal not confusable with a common deviation marginal.

    With binary actions each suspect reaches exactly one alternative
    marginal, so the convex hulls are singletons: the intersection is
    nonempty only if both suspects induce the same marginal, and C2 then
    requires the equilibrium marginal to differ from it.  Both gaps
    (``deviation_marginals_gap``, ``equilibrium_to_intersection_gap``) are
    max per-bit |delta P(bit = 0)| between the marginals.
    """
    r, p, q_i, q_j = _pair_marginals(spec, profile, firm_i, firm_j)
    gap_ij = _gap(q_i, q_j)
    intersection_empty = gap_ij > 0
    if intersection_empty:
        holds = True
        gap_p = None
    else:
        gap_p = _gap(p, q_i)
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
        context={"profile": r.tolist(), "pair": [firm_i + 1, firm_j + 1]},
        evidence=evidence,
    )


def _block_cosine(p: np.ndarray, q: np.ndarray) -> float:
    """cos(q - p, p) over the bits where q differs from p."""
    moved = p != q
    pp, dp, dd = displacement_moments(p[moved], q[moved])
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
    cos(q - p, p) (``_block_cosine``).  The norms ||q - p|| are over the
    joint outcomes of all held bits (``displacement_moments``).
    """
    r, p, q_i, q_j = _pair_marginals(spec, profile, firm_i, firm_j)
    evidence: dict = {
        "displacement_norm_i": math.sqrt(displacement_moments(p, q_i)[2]),
        "displacement_norm_j": math.sqrt(displacement_moments(p, q_j)[2]),
    }
    if np.array_equal(p, q_i) or np.array_equal(p, q_j):
        holds = True
        evidence["degenerate_displacement"] = True
    else:
        cosine = _block_cosine(p, q_i) * _block_cosine(p, q_j)
        holds = cosine <= 1.0 - COLLINEAR_TOL
        evidence["cosine"] = float(cosine)
    return ConditionReport(
        condition_id="c3_jointly_attributable",
        holds=holds,
        context={"profile": r.tolist(), "pair": [firm_i + 1, firm_j + 1]},
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
