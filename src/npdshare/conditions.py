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
excluded firms: a cached layout gives each held bit's observed firm
(``monitoring.held_private_bits`` for C1, ``_pair_layout`` for every pair
at once), the profile indexes the private kernel with it, and a deviation
swaps only the bits about the deviator.  These are the ``p_zero`` vectors
of ``monitoring.marginal_excluding``, built without its labels and
validation.  The bundle validates each extreme profile once and decides
C2, C3 and pairwise rank as arrays over every pair: C2's gaps are row
maxima, and C3's moments come from one recurrence run down the bit columns
for every row at once.  ``check_c2``, ``check_c3`` and
``pairwise_full_rank`` validate their arguments and return the bundle's
report for their one (profile, pair).

Reports serialize to an indented key-value text document via ``to_text``,
written in one pass with nested reports in place.  Numpy scalars print like
their Python counterparts.
"""

from __future__ import annotations

import functools
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
    validate_profile,
)
from .monitoring import (
    MODE_PRIVATE,
    MODE_PUBLIC,
    _held_private_bits,
    displacement_moments,
    held_private_bits,
    signal_kernel,
)

COLLINEAR_TOL = 1e-9  # cosines above 1 - this count as positively collinear
# Extreme profiles per C2/C3 array pass.  Every array of a pass then holds
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


def _stacked_rank(spec: GameSpec, n_tested: int) -> int:
    """The rank of the public-signal distributions under each action of each
    of ``n_tested`` firms, with the rest of a profile fixed.

    Every such row is a product measure over the N public bits that differs
    from the equilibrium row in at most the tested firm's bit.  If that
    bit's P(bit = 0) moves with the firm's action, the firms' deviation rows
    and the equilibrium row are linearly independent tensor products, and
    otherwise every row is the equilibrium row, so the rank is exactly
    1 + n_tested * [P(0 | conceal) != P(0 | disclose)] at every profile.
    """
    kernel = signal_kernel(spec, MODE_PUBLIC)
    return 1 + n_tested * int(kernel[0] != kernel[1])


def _check_firms(spec: GameSpec, firms, label: str) -> None:
    for firm in firms:
        if not 0 <= firm < spec.n_firms:
            raise DomainError(f"{label} {firm} out of range")


def individual_full_rank(spec: GameSpec, profile, firm: int) -> ConditionReport:
    r = validate_profile(spec, profile)
    _check_firms(spec, (firm,), "firm index")
    rank = _stacked_rank(spec, 1)
    return ConditionReport(
        condition_id="individual_full_rank",
        holds=rank == 2,
        context={"profile": r.tolist(), "firm": firm + 1},
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
    if firm_i == firm_j:
        raise DomainError("pairwise matrix needs two distinct firms")
    r = validate_profile(spec, profile)
    _check_firms(spec, (firm_i, firm_j), "firm index")
    return _pairwise_report(r.tolist(), firm_i, firm_j, _stacked_rank(spec, 2))


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def rank_reports(spec: GameSpec, extremes):
    """Individual rank at each firm's minmax profile, then pairwise rank at
    every profile of ``extremes`` for every pair, in that order.

    The pairwise rank is the same at every profile, so it is decided once,
    and each profile is validated once for all its pairs.
    """
    for i in range(spec.n_firms):
        yield individual_full_rank(spec, minmax(spec, i).profile, i)
    rank = _stacked_rank(spec, 2)
    pairs = _pairs(spec.n_firms)
    for r in extremes:
        profile = validate_profile(spec, r).tolist()
        for i, j in pairs:
            yield _pairwise_report(profile, i, j, rank)


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
    gains = deviation_payoffs(spec, base) - spec.stage[base, base.sum()]
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


@functools.lru_cache(maxsize=16)
def _pair_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index layout of the pairwise checks among ``n`` firms, read-only.

    ``observed[i, j]`` is the observed firm of each private bit held by the
    firms outside {i, j}, in layout order ((n - 2)(n - 1) bits, the bits of
    ``held_private_bits(spec, (i, j))``), and ``about[i, j]`` the positions
    in that row of the n - 2 bits about firm i.  Diagonal entries are unused.
    """
    observed = np.zeros((n, n, (n - 2) * (n - 1)), dtype=np.int64)
    about = np.zeros((n, n, n - 2), dtype=np.int64)
    for i, j in itertools.permutations(range(n), 2):
        observed[i, j] = _held_private_bits(n, (min(i, j), max(i, j)))[1]
        about[i, j] = np.flatnonzero(observed[i, j] == i)
    for a in (observed, about):
        a.flags.writeable = False
    return observed, about


def _attribution_reports(spec: GameSpec, profiles: np.ndarray, pairs) -> list:
    """(C2, C3) reports for every (profile, pair), profile-major.

    ``profiles`` is an (M, N) array of validated profiles and ``pairs`` a
    list of (i, j) firm pairs.  Row (m, k) of ``p`` is P(bit = 0) of the
    bits held outside pair k at profile m, and ``q_i`` and ``q_j`` are the
    same under each suspect's deviation, which swaps only the bits about
    the deviator.  Every evidence value is a row maximum or a row of
    ``displacement_moments``, so each report equals the one computed from
    its own row alone.
    """
    observed_by_pair, about_by_pair = _pair_layout(spec.n_firms)
    fi = np.array([i for i, _ in pairs])
    fj = np.array([j for _, j in pairs])
    observed = observed_by_pair[fi, fj]
    kernel = signal_kernel(spec, MODE_PRIVATE)
    p = kernel[profiles[:, observed]]
    q_i = np.where(observed == fi[:, None], kernel[1 - profiles[:, fi]][..., None], p)
    q_j = np.where(observed == fj[:, None], kernel[1 - profiles[:, fj]][..., None], p)
    gap_ij = np.max(np.abs(q_i - q_j), axis=-1)
    gap_p = np.max(np.abs(p - q_i), axis=-1)
    q = np.stack((q_i, q_j))
    norms = np.sqrt(displacement_moments(np.broadcast_to(p, q.shape), q)[2])
    degenerate = np.all(p == q_i, axis=-1) | np.all(p == q_j, axis=-1)
    # A suspect's deviation moves all of its n - 2 bits or none, so off the
    # degenerate rows its moved block is exactly the bits about it.
    about = np.stack((about_by_pair[fi, fj], about_by_pair[fj, fi]))[:, None]
    pp, dp, dd = displacement_moments(
        np.take_along_axis(p[None], about, -1), np.take_along_axis(q, about, -1)
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate rows
        block_cosine = dp / np.sqrt(pp * dd)
    cosine = block_cosine[0] * block_cosine[1]

    reports = []
    columns = (gap_ij, gap_p, norms[0], norms[1], degenerate, cosine)
    for profile, *row in zip(profiles.tolist(), *(c.tolist() for c in columns)):
        for (i, j), g_ij, g_p, norm_i, norm_j, deg, cos in zip(pairs, *row):
            empty = g_ij > 0
            c2 = {"deviation_marginals_gap": g_ij, "intersection_empty": empty}
            if not empty:
                c2["equilibrium_to_intersection_gap"] = g_p
            c3 = {"displacement_norm_i": norm_i, "displacement_norm_j": norm_j}
            if deg:
                c3["degenerate_displacement"] = True
            else:
                c3["cosine"] = cos
            reports.append((
                ConditionReport(
                    condition_id="c2_attributable",
                    holds=empty or g_p > 0,
                    context=_pair_context(profile, i, j),
                    evidence=c2,
                ),
                ConditionReport(
                    condition_id="c3_jointly_attributable",
                    holds=deg or cos <= 1.0 - COLLINEAR_TOL,
                    context=_pair_context(profile, i, j),
                    evidence=c3,
                ),
            ))
    return reports


def _pair_reports(spec: GameSpec, profile, firm_i: int, firm_j: int):
    """Validate one (profile, pair) and return its (C2, C3) reports, as the
    bundle computes them."""
    if spec.n_firms <= 2:
        raise ConditionInapplicableError(
            "pairwise attribution conditions quantify over firms outside the "
            "pair and require N > 2"
        )
    if firm_i == firm_j:
        raise DomainError("pair must consist of two distinct firms")
    r = validate_profile(spec, profile)
    _check_firms(spec, (firm_i, firm_j), "excluded firm index")
    return _attribution_reports(spec, r[None], [(firm_i, firm_j)])[0]


def check_c2(spec: GameSpec, profile, firm_i: int, firm_j: int) -> ConditionReport:
    """Equilibrium marginal not confusable with a common deviation marginal.

    With binary actions each suspect reaches exactly one alternative
    marginal, so the convex hulls are singletons: the intersection is
    nonempty only if both suspects induce the same marginal, and C2 then
    requires the equilibrium marginal to differ from it.  Both gaps
    (``deviation_marginals_gap``, ``equilibrium_to_intersection_gap``) are
    max per-bit |delta P(bit = 0)| between the marginals.
    """
    return _pair_reports(spec, profile, firm_i, firm_j)[0]


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
    return _pair_reports(spec, profile, firm_i, firm_j)[1]


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
        profiles = np.array([validate_profile(spec, r) for r in extremes])
        pairs = _pairs(spec.n_firms)
        for start in range(0, len(profiles), _PROFILE_BLOCK):
            block = profiles[start:start + _PROFILE_BLOCK]
            for c2, c3 in _attribution_reports(spec, block, pairs):
                subs += (c2, c3)
    holds = all(s.holds for s in subs)
    return ConditionReport(
        condition_id=f"{theorem}_preconditions",
        holds=holds,
        context={"n_firms": spec.n_firms, "n_extreme_profiles": len(extremes)},
        evidence={"checks": subs},
    )
