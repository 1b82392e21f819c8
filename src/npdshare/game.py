"""Stage game for repeated security-information sharing.

N firms simultaneously decide whether to disclose (1) or conceal (0) their
security information.  A firm that discloses when x firms disclose in total
earns ``disclose_payoff(x) = gain(x - 1) - loss`` (it benefits from the other
x - 1 disclosures and pays the leakage loss); a firm that conceals while x
firms disclose earns ``conceal_payoff(x) = gain(x)``.  Two gain families are
supported: linear ``gain(z) = z * G`` and concave ``gain(z) = f(z) * G`` with
a tabulated nondecreasing concave ``f`` satisfying ``f(0) = 0``.

``GameSpec.stage`` tabulates both payoffs once, by own action and discloser
count; profile payoffs, the engine's flow payoffs and deviation payoffs all
read that table.  ``profile_array`` is the one list of the 2^N pure profiles
and the one cap on it, and ``deviation_payoffs`` the one statement of what a
firm earns by deviating alone.  The discount factor ``GameSpec.delta`` is the
one δ of the package: a caller that needs another δ passes
``dataclasses.replace(spec, delta=d)``.

The module also classifies the stage game: one-shot dominance of concealing
(A1), efficiency of full disclosure over the all-conceal minmax point (A2),
strictly increasing social welfare in the number of disclosers (A2'), the
minmax profile and value, the extreme profiles (decided exactly, by
symmetry) and the feasible payoff polytope.  Its vertices are the payoffs
of the extreme profiles; for two firms it can also be clipped, exactly, to
the individually rational payoffs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CapacityError, DomainError

# Strict inequalities are classified with this absolute margin; boundary
# (tied) cases count as failures.
STRICT_TOL = 1e-12

# profile_array lists all 2^N pure profiles; the cap keeps that list, and
# every answer read from it, at most 256 rows long.
PROFILE_MAX_FIRMS = 8


@dataclass(frozen=True)
class LinearGain:
    """gain(z) = z * G for a marginal per-disclosure benefit G > 0."""

    G: float

    def __post_init__(self):
        validate_positive(self.G, "linear gain G")

    kind = "linear"

    def gain(self, z: int) -> float:
        return z * self.G

    def max_index(self) -> int | None:
        return None


@dataclass(frozen=True)
class ConcaveGain:
    """gain(z) = f(z) * G for a tabulated f over z = 0 .. len(f) - 1.

    f must start at 0 (no disclosures, no benefit), be nondecreasing, and
    have nonincreasing increments.  Violations are reported with the
    offending indices.
    """

    G: float
    f: tuple[float, ...]

    def __post_init__(self):
        validate_positive(self.G, "concave gain G")
        f = _reals(self.f, "concave gain table")
        if f.ndim != 1 or f.size < 2:
            raise DomainError(f"concave gain table needs a list of at least two entries, "
                              f"got shape {f.shape}")
        f = tuple(f.tolist())
        object.__setattr__(self, "f", f)
        if not all(map(math.isfinite, f)):
            raise DomainError("concave gain table contains non-finite entries")
        if f[0] != 0.0:
            raise DomainError(
                f"concave gain table must have f(0) = 0 (zero disclosures yield "
                f"zero benefit), got f(0)={f[0]}"
            )
        bad_monotone = [z for z in range(1, len(f)) if f[z] < f[z - 1]]
        if bad_monotone:
            raise DomainError(f"concave gain table decreases at indices {bad_monotone}")
        bad_concave = [
            z
            for z in range(2, len(f))
            if (f[z] - f[z - 1]) > (f[z - 1] - f[z - 2]) + STRICT_TOL
        ]
        if bad_concave:
            raise DomainError(
                f"concave gain table has increasing increments at indices {bad_concave}"
            )

    kind = "concave"

    def gain(self, z: int) -> float:
        if z >= len(self.f):
            raise DomainError(
                f"concave gain table has {len(self.f)} entries; index {_shown(z)} requested"
            )
        return self.f[z] * self.G

    def max_index(self) -> int | None:
        return len(self.f) - 1


GainFamily = LinearGain | ConcaveGain


@dataclass(frozen=True)
class GameSpec:
    """Parameters of one repeated information-sharing game.

    ``alpha`` and ``epsilon`` are the firms' monitoring accuracies: a
    disclosure is mis-read as concealment with probability epsilon in
    (0, 1/2), a concealment is read as concealment with probability alpha in
    (1/2, 1).  ``monitor_alpha`` / ``monitor_epsilon`` optionally give the
    public monitor its own accuracy pair; by default it matches the firms'.
    ``delta`` in (0, 1) is the discount factor, checked by
    ``validate_discount`` here and in the trace reader; every function of
    the package that discounts reads it from the spec (or from a trace's
    ``delta``).
    """

    n_firms: int
    gain: GainFamily
    loss: float
    alpha: float
    epsilon: float
    delta: float
    monitor_alpha: float | None = None
    monitor_epsilon: float | None = None

    def __post_init__(self):
        validate_count(self.n_firms, "n_firms", lo=2)
        validate_positive(self.loss, "loss")
        validate_accuracy("alpha", self.alpha, "epsilon", self.epsilon)
        if self.monitor_alpha is not None or self.monitor_epsilon is not None:
            ma = self.alpha if self.monitor_alpha is None else self.monitor_alpha
            me = self.epsilon if self.monitor_epsilon is None else self.monitor_epsilon
            validate_accuracy("monitor_alpha", ma, "monitor_epsilon", me)
        validate_discount(self.delta)
        mi = self.gain.max_index()
        if mi is not None and mi < self.n_firms - 1:
            raise DomainError(
                f"concave gain table covers z <= {mi}; need z up to n_firms - 1 = "
                f"{self.n_firms - 1}"
            )

    # -- effective monitor accuracies -------------------------------------
    @property
    def m_alpha(self) -> float:
        return self.alpha if self.monitor_alpha is None else self.monitor_alpha

    @property
    def m_epsilon(self) -> float:
        return self.epsilon if self.monitor_epsilon is None else self.monitor_epsilon

    # -- role payoffs ------------------------------------------------------
    def disclose_payoff(self, x: int) -> float:
        """Payoff to a disclosing firm when x firms disclose in total, 1 <= x <= N."""
        if not 1 <= x <= self.n_firms:
            raise DomainError(
                f"disclose_payoff domain is 1 <= x <= {self.n_firms}, got x={_shown(x)}"
            )
        return self.gain.gain(x - 1) - self.loss

    def conceal_payoff(self, x: int) -> float:
        """Payoff to a concealing firm when x other firms disclose, 0 <= x <= N-1."""
        if not 0 <= x <= self.n_firms - 1:
            raise DomainError(
                f"conceal_payoff domain is 0 <= x <= {self.n_firms - 1}, got x={_shown(x)}"
            )
        return self.gain.gain(x)

    @cached_property
    def stage(self) -> np.ndarray:
        """Read-only (2, N + 1) table: stage[a, x] is the payoff of a firm
        playing a when x firms disclose in total.  NaN at (0, N) and (1, 0),
        the two roles no profile has.  Built once per spec and not a field,
        so equality and hashing compare the parameters only."""
        n = self.n_firms
        table = np.full((2, n + 1), np.nan)
        for x in range(n):
            table[0, x] = self.conceal_payoff(x)
            table[1, x + 1] = self.disclose_payoff(x + 1)
        table.flags.writeable = False
        return table

    def max_abs_payoff(self) -> float:
        """max |payoff| over all roles and discloser counts."""
        return float(np.nanmax(np.abs(self.stage)))


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a bool is not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_))


def _real(x) -> float | None:
    """``x`` as a float if it is a Python or numpy real number, not a bool,
    else None: the one way the validators read a number.  An integer past
    the float range reads as inf or -inf, so a finiteness test refuses it."""
    if not (_is_integer(x) or isinstance(x, (float, np.floating))):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _shown(x) -> str:
    """``x`` as a refusal prints it: a string with its quotes, any other
    value as ``str`` prints it.  A value that cannot be printed, such as an
    integer past Python's 4300-digit limit, is described instead."""
    try:
        return repr(x) if isinstance(x, str) else str(x)
    except ValueError:  # Python's limit on the digits of an integer's text
        if isinstance(x, int):
            return f"an integer of {x.bit_length()} bits"
        return f"an unprintable {type(x).__name__}"


def _inside(x, lo: float, hi: float) -> bool:
    """Whether ``x`` is a real number, not a bool, in the open (lo, hi)."""
    v = _real(x)
    return v is not None and lo < v < hi


def validate_count(x, name: str, lo: int = 1, hi: int | None = None) -> None:
    """DomainError unless ``x`` is an integer, not a bool, with lo <= x and,
    when ``hi`` is given, x < hi: a horizon, a replica count, a seed."""
    if _is_integer(x) and lo <= x and (hi is None or x < hi):
        return
    if hi is None:
        raise DomainError(f"{name} must be an integer >= {lo}, got {_shown(x)}")
    raise DomainError(f"{name} must lie in [{lo}, {hi}) and be an integer, got {_shown(x)}")


def validate_firm(spec: GameSpec, firm, name: str = "firm index") -> int:
    """``firm`` as an int if it is an integer, not a bool, in [0, N)."""
    if not (_is_integer(firm) and 0 <= firm < spec.n_firms):
        raise DomainError(
            f"{name} {_shown(firm)} out of range: not an integer in [0, {spec.n_firms})"
        )
    return int(firm)


def validate_positive(x, name: str) -> None:
    """DomainError unless ``x`` is a finite number > 0, not a bool: a loss, a
    gain or a trace's payoff scale."""
    if not _inside(x, 0, math.inf):
        raise DomainError(f"{name} must be a finite number > 0, got {_shown(x)}")


def validate_accuracy(an: str, a: float, en: str, e: float) -> None:
    """DomainError unless epsilon ``e`` is a real number, not a bool, in
    (0, 1/2) and alpha ``a`` one in (1/2, 1): a monitoring accuracy pair."""
    if not _inside(e, 0, 0.5):
        raise DomainError(f"{en} must be a finite number in (0, 1/2), got {_shown(e)}")
    if not _inside(a, 0.5, 1):
        raise DomainError(f"{an} must be a finite number in (1/2, 1), got {_shown(a)}")


def validate_discount(x, name: str = "delta") -> None:
    """DomainError unless ``x`` is a real number, not a bool, in (0, 1): a
    discount factor, the firms' patience."""
    if not _inside(x, 0, 1):
        raise DomainError(f"{name} must lie in (0, 1), got {_shown(x)}")


def _as_array(values, name: str, dtype=None) -> np.ndarray:
    try:
        return np.asarray(values, dtype=dtype)
    except ValueError:  # a ragged nesting of sequences
        raise DomainError(f"{name} must be an array, not a ragged sequence") from None


def _refuse_entry(values: np.ndarray, ok, name: str, rule: str):
    """DomainError naming the first entry of ``values`` whose flat ``ok`` is
    False, and its index: a count table or a trace holds too many entries
    to print them all."""
    k = int(np.argmin(ok, axis=None))
    index = tuple(map(int, np.unravel_index(k, values.shape)))
    at = f" at index {index[0] if len(index) == 1 else index}" if index else ""
    x = values.ravel()[k:k + 1].tolist()[0]
    raise DomainError(f"{name} entries must be {rule}, got {_shown(x)}{at}")


def _reals(values, name: str) -> np.ndarray:
    """``values`` as a float array, each entry read as ``_real`` reads a
    number.  An int or float array goes through one cast; anything else (a
    list, a tuple, an object array) entry by entry, so a bool or a string
    is refused even where numpy would read it as a number."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float, copy=False)
    raw = _as_array(values, name, object)
    reals = [_real(x) for x in raw.ravel().tolist()]
    if None in reals:
        _refuse_entry(raw, [r is not None for r in reals], name, "numbers")
    return np.array(reals, dtype=float).reshape(raw.shape)


def validate_bits(values, name: str) -> np.ndarray:
    """``values`` as an int64 array of 0s and 1s: an action profile, a count
    table's actions, a trace's bits.  A number equal to 0 or 1 is a bit,
    True and 1.0 too; entries are compared before the cast, so 0.5 or 1.7
    is refused rather than truncated."""
    raw = _as_array(values, name)
    ok = (raw == 0) | (raw == 1) if raw.dtype.kind in "biufO" else np.zeros(raw.shape, bool)
    if not ok.all():
        _refuse_entry(raw, ok, name, "0 or 1")
    return raw.astype(np.int64, copy=False)


def validate_probabilities(values, name: str) -> np.ndarray:
    """``values`` as a float array of numbers (``_reals``) in [0, 1]: a
    kernel's P(bit = 0) pair, a product measure's bit laws, a
    distribution's outcome probabilities."""
    p = _reals(values, name)
    ok = (p >= 0) & (p <= 1)
    if not ok.all():
        _refuse_entry(p, ok, name, "probabilities in [0, 1]")
    return p


def _listed(values, name: str, what: str) -> list:
    """``values`` as a list, else DomainError naming it: an argument that
    must be ``what`` and cannot be iterated."""
    try:
        entries = iter(values)
    except TypeError:
        raise DomainError(f"{name} must be {what}, got {_shown(values)}") from None
    return list(entries)


def validate_profile(spec: GameSpec, profile: Iterable[int],
                     name: str = "action profile") -> np.ndarray:
    """The profile as an int64 array of N bits (``validate_bits``)."""
    r = validate_bits(_listed(profile, name, f"a sequence of {spec.n_firms} bits"), name)
    if r.shape != (spec.n_firms,):
        raise DomainError(f"{name} must have length {spec.n_firms}, got shape {r.shape}")
    return r


def validate_vector(value, n_firms: int, name: str) -> np.ndarray:
    """``value`` as a float array of ``n_firms`` finite numbers, read as
    ``_reals`` reads them, else DomainError naming it: a payoff point, a
    promise or a direction."""
    v = _reals(value, name)
    if v.shape != (n_firms,):
        raise DomainError(f"{name} must have length {n_firms}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must be finite, got {v.tolist()}")
    return v


def all_profiles(n_firms: int):
    """All pure action profiles as tuples (r_1, ..., r_N)."""
    return itertools.product((0, 1), repeat=n_firms)


def profile_payoff(spec: GameSpec, profile: Iterable[int]) -> np.ndarray:
    """Stage payoff vector for a pure action profile."""
    r = validate_profile(spec, profile)
    return spec.stage[r, r.sum()]


@functools.cache
def profile_array(n_firms: int) -> np.ndarray:
    """All 2^N pure profiles, one row each in ``all_profiles`` order: a
    read-only (2^N, N) int64 array, built once per N.  More than
    PROFILE_MAX_FIRMS firms raises CapacityError before anything is listed."""
    if n_firms > PROFILE_MAX_FIRMS:
        raise CapacityError(f"listing the 2^N pure profiles is capped at N <= "
                            f"{PROFILE_MAX_FIRMS}; got N = {n_firms}")
    r = np.array(list(all_profiles(n_firms)), dtype=np.int64)
    r.flags.writeable = False
    return r


def deviation_payoffs(spec: GameSpec, r: np.ndarray) -> np.ndarray:
    """What each firm earns by deviating alone from profile(s) ``r``, an
    int array of 0s and 1s of shape (..., N): firm i plays 1 - r_i, and
    the discloser count moves by 1 - 2 r_i."""
    return spec.stage[1 - r, r.sum(axis=-1, keepdims=True) + 1 - 2 * r]


def all_profile_payoffs(spec: GameSpec) -> np.ndarray:
    """Every pure profile's stage payoff vector, one row per profile in
    ``all_profiles`` order: a (2^N, N) array."""
    r = profile_array(spec.n_firms)
    return spec.stage[r, r.sum(axis=1, keepdims=True)]


# ---------------------------------------------------------------------------
# one-shot classification


@dataclass(frozen=True)
class AssumptionReport:
    a1_holds: bool
    a2_holds: bool
    a2prime_holds: bool
    witnesses: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"a1_concealing_dominant: {str(self.a1_holds).lower()}",
            f"a2_full_disclosure_efficient: {str(self.a2_holds).lower()}",
            f"a2prime_welfare_increasing: {str(self.a2prime_holds).lower()}",
        ]
        for key, vals in sorted(self.witnesses.items()):
            lines.append(f"{key}:")
            for v in vals:
                lines.append(f"  - {v}")
        return "\n".join(lines)


def check_assumptions(spec: GameSpec) -> AssumptionReport:
    """Classify the stage game; strict inequalities use STRICT_TOL margins.

    A1: concealing is a dominant one-shot action, D(x-1) > C(x) for all x.
    A2: full disclosure beats the all-conceal minmax point, C(N) > 0.
    A2': total welfare strictly increases in the number of disclosers
    (implies A2 by telescoping).  Ties count as failures and are reported.
    """
    n = spec.n_firms
    stage = spec.stage
    witnesses: dict[str, list] = {}

    # conceal_payoff(x - 1) - disclose_payoff(x) for x = 1 .. N
    a1_margin = stage[0, :n] - stage[1, 1:]
    a1_bad = [x for x in range(1, n + 1) if not a1_margin[x - 1] > STRICT_TOL]
    if a1_bad:
        witnesses["a1_failing_x"] = a1_bad

    a2 = stage[1, n] > STRICT_TOL
    if not a2:
        witnesses["a2_full_disclosure_payoff"] = [float(stage[1, n])]

    # Total welfare at each discloser count; the NaN role at 0 and N adds 0.
    counts = np.arange(n + 1)
    welfare = np.nansum([counts * stage[1], (n - counts) * stage[0]], axis=0)
    a2p_bad = [x for x in range(1, n + 1) if not welfare[x] - welfare[x - 1] > STRICT_TOL]
    if a2p_bad:
        witnesses["a2prime_failing_x"] = a2p_bad

    return AssumptionReport(
        a1_holds=not a1_bad,
        a2_holds=bool(a2),
        a2prime_holds=not a2p_bad,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class MinmaxResult:
    firm: int
    profile: tuple[int, ...]
    value: float


def minmax(spec: GameSpec, firm: int) -> MinmaxResult:
    """Minmax the given firm: everyone else conceals, the firm best-responds.

    The best-response value is max(C(0), D(1)) = max(stage[0, 0], stage[1, 1]):
    concealing with no discloser earns C(0) = 0, disclosing alone earns
    D(1) = -L < 0, so the value is 0 for every spec and the minmax profile is
    all-conceal.
    """
    firm = validate_firm(spec, firm)
    value = float(max(spec.stage[0, 0], spec.stage[1, 1]))
    return MinmaxResult(firm=firm, profile=(0,) * spec.n_firms, value=value)


# ---------------------------------------------------------------------------
# feasible payoff polytope


@dataclass(frozen=True)
class PayoffPolytope:
    """Convex hull of pure-profile payoffs, for two firms optionally clipped
    to the individually-rational orthant {v : v_i >= 0}.

    For two firms the vertices are an exact CCW polygon; in higher dimension
    they are the distinct payoffs of ``extreme_profiles``, sorted
    lexicographically.  ``degenerate`` flags a hull with empty interior
    (zero area/volume).
    """

    vertices: tuple[tuple[float, ...], ...]
    n_firms: int
    clipped_to_ir: bool
    degenerate: bool


def feasible_hull(spec: GameSpec, clip_to_ir: bool = False) -> PayoffPolytope:
    """The convex hull of the pure-profile payoffs, its vertices decided
    exactly, with no LP.  ``clip_to_ir`` intersects it with {v : v_i >= 0}, in exact
    arithmetic; only the two-firm hull can be clipped, and N > 2 raises
    DomainError, and more than PROFILE_MAX_FIRMS firms CapacityError."""
    profile_array(spec.n_firms)
    if spec.n_firms == 2:
        return _hull_2d(spec, clip_to_ir)
    if clip_to_ir:
        raise DomainError(
            f"feasible_hull clips to the individually rational payoffs only for "
            f"two firms; got N = {spec.n_firms}"
        )
    return _hull_nd(spec)


def _hull_2d(spec: GameSpec, clip_to_ir: bool) -> PayoffPolytope:
    from .geometry import clip_polygon_halfplane, convex_hull_2d_exact, dedup_vertices

    # Fraction(float) is exact, and the clip only adds, multiplies, divides
    # and compares, so the chain and the clip are exact rational arithmetic
    # on whatever binary rationals the payoffs happen to be.
    pts = [(Fraction(float(a)), Fraction(float(b))) for a, b in all_profile_payoffs(spec)]
    poly = convex_hull_2d_exact(pts)
    if clip_to_ir:
        # v_1 >= 0 then v_2 >= 0, as normal . v <= 0; a vertex on an axis
        # can come out twice.
        poly = np.array(poly, dtype=object)
        for normal in ((-1, 0), (0, -1)):
            poly = clip_polygon_halfplane(poly, normal, 0)
        poly = dedup_vertices(poly, 0)
    verts = tuple((float(a), float(b)) for a, b in poly)
    degenerate = len(verts) < 3
    return PayoffPolytope(
        vertices=verts, n_firms=2, clipped_to_ir=clip_to_ir, degenerate=degenerate
    )


def _hull_nd(spec: GameSpec) -> PayoffPolytope:
    # Every vertex is some profile's payoff, and extreme_profiles keeps
    # exactly the profiles whose payoff is one.  Profile r is row
    # sum_i r_i 2^(N - 1 - i) of all_profile_payoffs.
    rows = np.array(extreme_profiles(spec)) @ (1 << np.arange(spec.n_firms)[::-1])
    verts = np.unique(all_profile_payoffs(spec)[rows], axis=0)
    degenerate = np.linalg.matrix_rank(verts - verts[0], tol=1e-9) < spec.n_firms
    return PayoffPolytope(
        vertices=tuple(tuple(float(c) for c in v) for v in verts),
        n_firms=spec.n_firms,
        clipped_to_ir=False,
        degenerate=bool(degenerate),
    )


def extreme_profiles(spec: GameSpec) -> list[tuple[int, ...]]:
    """Pure profiles whose payoff vector is a vertex of the feasible hull,
    decided exactly, with no LP.

    A firm's payoff depends only on its action and the discloser count, so
    whether a profile with x disclosers is extreme depends only on x.  Let
    S be the profile where the first x firms disclose, with payoff p.
    Averaging any other profile T over the permutations that fix S keeps it
    in the hull and makes it constant on S's disclosers and on its
    concealers; scaling those two blocks by x and N - x leaves a point in
    the plane.  If T has y disclosers, z of them in S, that point is

        (z D(y) + (x - z) C(y), (y - z) D(y) + (N - x - y + z) C(y)),

    with D = stage[1] and C = stage[0], and p becomes (x D(x), (N - x) C(x)).
    p is in the hull of the other payoffs exactly when it is in the hull of
    these (y, z) class points, which ``geometry.in_convex_hull_2d_exact``
    decides exactly, on the payoffs scaled to integers by their common
    power-of-two denominator (at x = 0 and x = N every point lies on one
    axis and the test is an interval).  "Other" means a payoff more than
    1e-12 from p in some coordinate: a class is dropped when each role it
    has is within 1e-12 of p's value for that role.  More than
    PROFILE_MAX_FIRMS firms raises CapacityError, before any test runs.
    """
    from .geometry import in_convex_hull_2d_exact

    n = spec.n_firms
    profiles = profile_array(n)
    conceal, disclose = spec.stage.tolist()
    # Every payoff is a binary rational, so one power-of-two denominator
    # turns them all into exact integers.
    scale = max(v.as_integer_ratio()[1] for v in conceal[:n] + disclose[1:])

    def exact(v):
        num, den = v.as_integer_ratio()
        return num * (scale // den)

    def block_sum(n_d, n_c, y):
        # n_d disclosers and n_c concealers with y disclosers in all; a count
        # of 0 reads no stage cell, so the NaN roles are never touched.
        return (n_d and n_d * exact(disclose[y])) + (n_c and n_c * exact(conceal[y]))

    extreme_counts = []
    for x in range(n + 1):
        on_s, off_s = disclose[x], conceal[x]  # p's role values on and off S
        others = []
        for y in range(n + 1):
            for z in range(max(0, y - (n - x)), min(x, y) + 1):
                # T's disclosers and concealers on S and off S, with p's value there
                blocks = ((z, x - z, on_s), (y - z, n - x - y + z, off_s))
                if all(
                    abs(v - ref) <= 1e-12
                    for n_d, n_c, ref in blocks
                    for count, v in ((n_d, disclose[y]), (n_c, conceal[y]))
                    if count
                ):
                    continue
                others.append(tuple(block_sum(n_d, n_c, y) for n_d, n_c, _ in blocks))
        p = (block_sum(x, 0, x), block_sum(0, n - x, x))
        if not in_convex_hull_2d_exact(p, others):
            extreme_counts.append(x)
    return [tuple(r) for r in profiles[np.isin(profiles.sum(1), extreme_counts)].tolist()]
