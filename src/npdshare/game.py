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
        if not np.isfinite(self.G) or self.G <= 0:
            raise DomainError(f"linear gain requires G > 0, got G={self.G}")

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
        if not np.isfinite(self.G) or self.G <= 0:
            raise DomainError(f"concave gain requires G > 0, got G={self.G}")
        f = tuple(float(v) for v in self.f)
        object.__setattr__(self, "f", f)
        if len(f) < 2:
            raise DomainError("concave gain table needs at least two entries")
        if not all(np.isfinite(v) for v in f):
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
                f"concave gain table has {len(self.f)} entries; index {z} requested"
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
    ``delta`` in (0, 1) is the discount factor; this constructor is the only
    place that validates it, and every function of the package that
    discounts reads it from the spec (or from a trace's ``delta``).
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
        if not isinstance(self.n_firms, (int, np.integer)) or self.n_firms < 2:
            raise DomainError(f"n_firms must be an integer >= 2, got {self.n_firms}")
        if not np.isfinite(self.loss) or self.loss <= 0:
            raise DomainError(f"loss must be > 0, got {self.loss}")
        _validate_accuracy("alpha", self.alpha, "epsilon", self.epsilon)
        if self.monitor_alpha is not None or self.monitor_epsilon is not None:
            ma = self.alpha if self.monitor_alpha is None else self.monitor_alpha
            me = self.epsilon if self.monitor_epsilon is None else self.monitor_epsilon
            _validate_accuracy("monitor_alpha", ma, "monitor_epsilon", me)
        if not np.isfinite(self.delta) or not (0 < self.delta < 1):
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
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
                f"disclose_payoff domain is 1 <= x <= {self.n_firms}, got x={x}"
            )
        return self.gain.gain(x - 1) - self.loss

    def conceal_payoff(self, x: int) -> float:
        """Payoff to a concealing firm when x other firms disclose, 0 <= x <= N-1."""
        if not 0 <= x <= self.n_firms - 1:
            raise DomainError(
                f"conceal_payoff domain is 0 <= x <= {self.n_firms - 1}, got x={x}"
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


def _validate_accuracy(an: str, a: float, en: str, e: float) -> None:
    if not np.isfinite(e) or not (0 < e < 0.5):
        raise DomainError(f"{en} must lie in (0, 1/2), got {e}")
    if not np.isfinite(a) or not (0.5 < a < 1):
        raise DomainError(f"{an} must lie in (1/2, 1), got {a}")


def validate_profile(spec: GameSpec, profile: Iterable[int]) -> np.ndarray:
    """The profile as an int64 array of N entries, each equal to 0 or 1.

    Entries are compared before the cast, so 0.5 or 1.7 is refused rather
    than truncated."""
    raw = np.asarray(list(profile))
    if raw.shape != (spec.n_firms,):
        raise DomainError(
            f"action profile must have length {spec.n_firms}, got shape {raw.shape}"
        )
    if not ((raw == 0) | (raw == 1)).all():
        raise DomainError(f"action profile entries must be 0 or 1, got {raw.tolist()}")
    return raw.astype(np.int64, copy=False)


def validate_vector(value, n_firms: int, name: str) -> np.ndarray:
    """``value`` as a float array of ``n_firms`` finite entries, else
    DomainError naming it: a payoff point, a promise or a direction."""
    v = np.asarray(value, dtype=float)
    if v.shape != (n_firms,):
        raise DomainError(f"{name} must have length {n_firms}")
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
    if not 0 <= firm < spec.n_firms:
        raise DomainError(f"firm index must lie in [0, {spec.n_firms}), got {firm}")
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

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)


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
    from .geometry import clip_polygon_halfplane_exact, convex_hull_2d_exact

    # Fraction(float) is exact, so the chain and the clip are exact rational
    # arithmetic on whatever binary rationals the payoffs happen to be.
    pts = [(Fraction(float(a)), Fraction(float(b))) for a, b in all_profile_payoffs(spec)]
    poly = convex_hull_2d_exact(pts)
    if clip_to_ir:
        # v_1 >= 0 then v_2 >= 0
        poly = clip_polygon_halfplane_exact(poly, (Fraction(1), Fraction(0)), Fraction(0))
        poly = clip_polygon_halfplane_exact(poly, (Fraction(0), Fraction(1)), Fraction(0))
    verts = tuple((float(a), float(b)) for a, b in poly)
    degenerate = len(verts) < 3
    return PayoffPolytope(
        vertices=verts, n_firms=2, clipped_to_ir=clip_to_ir, degenerate=degenerate
    )


def _hull_nd(spec: GameSpec) -> PayoffPolytope:
    # Every vertex is some profile's payoff, and extreme_profiles keeps
    # exactly the profiles whose payoff is one.
    verts = np.unique([profile_payoff(spec, r) for r in extreme_profiles(spec)], axis=0)
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
