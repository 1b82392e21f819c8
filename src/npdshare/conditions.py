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
set, and a deviation by firm j moves only the bits about j, each from
kernel[r_j] to kernel[1 - r_j] of the private kernel.  Every comparison that
C1 and C2 make keeps at least one of those bits, so each of their gaps
(``signal_gap``, ``deviation_marginals_gap``,
``equilibrium_to_intersection_gap``, the max per-bit |delta P(bit = 0)|) is
the one number |kernel[0] - kernel[1]| (``_kernel_gap``), and a marginal
moves exactly when it is positive.  C3 is degenerate exactly when that gap
is zero.  Otherwise C3's cosine is the product of two block cosines, each a
function of one suspect's action, read from a two-entry table.  Only C3's
displacement norms, over the joint outcomes of all held bits, depend on the
whole profile: they are accumulated bit by bit from the per-bit differences
(``monitoring.displacement_moments``) in one array pass over every
(profile, pair), on arrays of P(bit = 0) laid out as
``monitoring._held_private_bits`` lists each pair's held bits.  No check
expands the 2**bits outcome table, and no distance is compared with a
tolerance; only C3's collinearity test uses one (``COLLINEAR_TOL``).

The bundle and ``rank_reports`` read the profiles as ``minmax`` and
``extreme_profiles`` build them, and check none again.  ``check_c1`` and
``check_c2`` read the kernel gap alone; ``check_c3`` and
``pairwise_full_rank`` validate their arguments and return the bundle's
report for their one (profile, pair).

Reports serialize to an indented key-value text document via ``to_text``,
written in one pass with nested reports in place.  Numpy scalars print like
their Python counterparts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionInapplicableError, DomainError
from .game import (
    GameSpec,
    STRICT_TOL,
    all_profile_payoffs,
    deviation_payoffs,
    extreme_profiles,
    minmax,
    validate_firm,
    validate_profile,
)
from .monitoring import (
    MODE_PRIVATE,
    MODE_PUBLIC,
    _held_private_bits,
    displacement_moments,
    signal_kernel,
)

COLLINEAR_TOL = 1e-9  # cosines above 1 - this count as positively collinear
# Extreme profiles per C3 array pass.  Every array of a pass then holds
# fewer than 2**16 entries up to N = 8 (32 profiles, 28 pairs, 42 held
# bits), and N <= 5, with at most 32 extreme profiles, takes one pass.
_PROFILE_BLOCK = 32


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


def _kernel_gap(spec: GameSpec, mode: str) -> float:
    """|P(bit = 0 | conceal) - P(bit = 0 | disclose)| of ``mode``'s bits:
    how far one firm's deviation moves each bit about it."""
    kernel = signal_kernel(spec, mode)
    return float(abs(kernel[0] - kernel[1]))


def _stacked_rank(spec: GameSpec, n_tested: int) -> int:
    """The rank of the public-signal distributions under each action of each
    of ``n_tested`` firms, with the rest of a profile fixed.

    Every such row is a product measure over the N public bits that differs
    from the equilibrium row in at most the tested firm's bit.  If that
    bit's P(bit = 0) moves with the firm's action, the firms' deviation rows
    and the equilibrium row are linearly independent tensor products, and
    otherwise every row is the equilibrium row, so the rank is exactly
    1 + n_tested * [public kernel gap > 0] at every profile.
    """
    return 1 + n_tested * int(_kernel_gap(spec, MODE_PUBLIC) > 0)


def individual_full_rank(spec: GameSpec, profile, firm: int) -> ConditionReport:
    r = validate_profile(spec, profile)
    validate_firm(spec, firm)
    return _individual_report(r.tolist(), firm, _stacked_rank(spec, 1))


def _individual_report(profile: list, firm, rank: int) -> ConditionReport:
    return ConditionReport(
        condition_id="individual_full_rank",
        holds=rank == 2,
        context={"profile": list(profile), "firm": firm + 1},
        evidence={"rank": rank, "required": 2},
    )


def _pair_context(profile: list, firm_i, firm_j) -> dict:
    return {"profile": list(profile), "pair": [firm_i + 1, firm_j + 1]}


def _pairwise_report(profile: list, firm_i, firm_j, rank: int) -> ConditionReport:
    return ConditionReport(
        condition_id="pairwise_full_rank",
        holds=rank == 3,
        context=_pair_context(profile, firm_i, firm_j),
        evidence={"rank": rank, "required": 3},
    )


def pairwise_full_rank(spec: GameSpec, profile, firm_i: int, firm_j: int) -> ConditionReport:
    """Stacked-pair rank check; maximal achievable rank is 3.

    Both firms' prescribed-action rows equal the equilibrium signal
    distribution, so one row is always redundant.
    """
    r = _validate_pair(spec, profile, firm_i, firm_j)
    return _pairwise_report(r.tolist(), firm_i, firm_j, _stacked_rank(spec, 2))


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def rank_reports(spec: GameSpec, extremes):
    """Individual rank at each firm's minmax profile, then pairwise rank at
    every profile of ``extremes`` for every pair, in that order.

    Each rank is the same at every profile, so it is decided once.  The
    profiles are read as ``minmax`` and ``extreme_profiles`` build them,
    tuples of N bits, and not checked again.
    """
    rank = _stacked_rank(spec, 1)
    for i in range(spec.n_firms):
        yield _individual_report(minmax(spec, i).profile, i, rank)
    rank = _stacked_rank(spec, 2)
    pairs = _pairs(spec.n_firms)
    for r in extremes:
        profile = list(r)
        for i, j in pairs:
            yield _pairwise_report(profile, i, j, rank)


# ---------------------------------------------------------------------------
# private-monitoring conditions


def check_c1(spec: GameSpec, minmaxed_firm: int) -> ConditionReport:
    """Deviations from the minmax profile are detectable or unprofitable.

    A deviation by j is detectable when the marginal of the firms other
    than j moves.  It moves only the bits about j, at least one of which
    another firm holds, each by the private kernel gap, so ``signal_gap``
    (the max per-bit |delta P(bit = 0)|) is that gap for every deviator.
    Mixed deviations reduce to the pure check: signal marginals and stage
    payoffs are both affine in a firm's mixing probability, so a mixed
    deviation is undetectable-and-profitable only if the pure one is.
    """
    mm = minmax(spec, minmaxed_firm)
    base = np.array(mm.profile)
    gains = deviation_payoffs(spec, base) - spec.stage[base, base.sum()]
    gap = _kernel_gap(spec, MODE_PRIVATE)
    detectable = gap > 0
    per_firm = []
    holds = True
    for j in range(spec.n_firms):
        if j == minmaxed_firm:
            continue
        gain = float(gains[j])
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


def _c2_report(profile: list, firm_i, firm_j, gap: float) -> ConditionReport:
    """C2 for one (profile, pair) from the private kernel ``gap``.

    Each suspect's deviation moves its own n - 2 held bits by the gap, so
    the two deviation marginals, and each of them and the equilibrium
    marginal, are ``gap`` apart, and C2 holds exactly when it is positive.
    """
    empty = gap > 0
    evidence = {"deviation_marginals_gap": gap, "intersection_empty": empty}
    if not empty:
        evidence["equilibrium_to_intersection_gap"] = gap
    return ConditionReport(
        condition_id="c2_attributable",
        holds=empty,
        context=_pair_context(profile, firm_i, firm_j),
        evidence=evidence,
    )


def _c2_reports(spec: GameSpec, profiles: list, pairs) -> list:
    """The C2 reports of every (profile, pair), profile-major: no array is
    built, since every one reads the same kernel gap."""
    gap = _kernel_gap(spec, MODE_PRIVATE)
    return [_c2_report(profile, i, j, gap) for profile in profiles for i, j in pairs]


def _c3_reports(spec: GameSpec, profiles: np.ndarray, pairs) -> list:
    """C3 reports for every (profile, pair), profile-major.

    ``profiles`` is an (M, N) array of validated profiles and ``pairs`` a
    list of (i, j) firm pairs.  Row (m, k) of ``p`` is P(bit = 0) of the
    bits held outside pair k at profile m, and ``q_i`` and ``q_j`` are the
    same under each suspect's deviation, which swaps only the bits about
    the deviator.  The norms are rows of ``displacement_moments``, so each
    report equals the one computed from its own row alone.  The cosine is
    the product of the suspects' block cosines, and a block (the n - 2
    bits about one suspect, all moved from kernel[a] to kernel[1 - a])
    depends only on that suspect's action a, so it is read from a
    two-entry table.  With a zero kernel gap no bit moves and every
    report is degenerate.
    """
    fi, fj = np.array(pairs).T
    observed = np.array(
        [_held_private_bits(spec.n_firms, (min(i, j), max(i, j)))[1] for i, j in pairs]
    )
    kernel = signal_kernel(spec, MODE_PRIVATE)
    p = kernel[profiles[:, observed]]
    q_i = np.where(observed == fi[:, None], kernel[1 - profiles[:, fi]][..., None], p)
    q_j = np.where(observed == fj[:, None], kernel[1 - profiles[:, fj]][..., None], p)
    q = np.stack((q_i, q_j))
    norm_i, norm_j = np.sqrt(displacement_moments(np.broadcast_to(p, q.shape), q)[2]).tolist()
    cosine = None  # degenerate
    if _kernel_gap(spec, MODE_PRIVATE) > 0:
        block = np.repeat(kernel[:, None], spec.n_firms - 2, axis=1)
        pp, dp, dd = displacement_moments(block, block[::-1])
        table = dp / np.sqrt(pp * dd)
        cosine = (table[profiles[:, fi]] * table[profiles[:, fj]]).tolist()

    reports = []
    for m, profile in enumerate(profiles.tolist()):
        for k, (i, j) in enumerate(pairs):
            evidence = {"displacement_norm_i": norm_i[m][k], "displacement_norm_j": norm_j[m][k]}
            if cosine is None:
                evidence["degenerate_displacement"] = True
            else:
                evidence["cosine"] = cosine[m][k]
            reports.append(ConditionReport(
                condition_id="c3_jointly_attributable",
                holds=cosine is None or cosine[m][k] <= 1.0 - COLLINEAR_TOL,
                context=_pair_context(profile, i, j),
                evidence=evidence,
            ))
    return reports


def _validate_pair(spec: GameSpec, profile, firm_i: int, firm_j: int) -> np.ndarray:
    """The validated profile of one (profile, pair): each firm index is
    checked before the two are compared."""
    r = validate_profile(spec, profile)
    if validate_firm(spec, firm_i, "pair firm index") == validate_firm(
        spec, firm_j, "pair firm index"
    ):
        raise DomainError(f"a pair must be two distinct firms, got firm index {firm_i} twice")
    return r


def _validate_attribution_pair(spec: GameSpec, profile, firm_i: int, firm_j: int) -> np.ndarray:
    """The validated profile of one C2/C3 (profile, pair)."""
    if spec.n_firms <= 2:
        raise ConditionInapplicableError(
            "pairwise attribution conditions quantify over firms outside the "
            "pair and require N > 2"
        )
    return _validate_pair(spec, profile, firm_i, firm_j)


def check_c2(spec: GameSpec, profile, firm_i: int, firm_j: int) -> ConditionReport:
    """Equilibrium marginal not confusable with a common deviation marginal.

    With binary actions each suspect reaches exactly one alternative
    marginal, so the convex hulls are singletons: the intersection is
    nonempty only if both suspects induce the same marginal, and C2 then
    requires the equilibrium marginal to differ from it.  Both gaps
    (``deviation_marginals_gap``, ``equilibrium_to_intersection_gap``) are
    max per-bit |delta P(bit = 0)| between the marginals: the private
    kernel gap (``_c2_report``).
    """
    r = _validate_attribution_pair(spec, profile, firm_i, firm_j)
    return _c2_report(r.tolist(), firm_i, firm_j, _kernel_gap(spec, MODE_PRIVATE))


def check_c3(spec: GameSpec, profile, firm_i: int, firm_j: int) -> ConditionReport:
    """Suspect-deviation segments meet only at the equilibrium marginal.

    co({q_i} u {p}) and co({q_j} u {p}) are segments sharing endpoint p;
    they overlap beyond p iff the displacement directions q_i - p and
    q_j - p are positively collinear.  Degenerate displacements (q = p)
    collapse a segment to the point p and cannot create overlap.

    q_i and q_j move disjoint blocks of bits, the bits about i and about j
    held by the observers outside the pair.  Every other bit cancels, so
    the cosine of the two displacements is the product of each block's
    cos(q - p, p) = <q - p, p> / sqrt(<p, p> ||q - p||^2).  The norms
    ||q - p|| are over the joint outcomes of all held bits.  Both come
    from ``displacement_moments``.
    """
    r = _validate_attribution_pair(spec, profile, firm_i, firm_j)
    return _c3_reports(spec, r[None], [(firm_i, firm_j)])[0]


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
        profiles = np.array(extremes)
        pairs = _pairs(spec.n_firms)
        for start in range(0, len(profiles), _PROFILE_BLOCK):
            block = profiles[start:start + _PROFILE_BLOCK]
            c2 = _c2_reports(spec, block.tolist(), pairs)
            for pair_reports in zip(c2, _c3_reports(spec, block, pairs)):
                subs += pair_reports
    holds = all(s.holds for s in subs)
    return ConditionReport(
        condition_id=f"{theorem}_preconditions",
        holds=holds,
        context={"n_firms": spec.n_firms, "n_extreme_profiles": len(extremes)},
        evidence={"checks": subs},
    )
