"""Half-space decomposition of equilibrium continuation payoffs.

A payoff vector v is decomposed on direction lambda by a current action
profile r and a normalized continuation map gamma_bar over public signals:

    v_i = u_i(r) + E[gamma_bar_i(b) | r]            (consistency)
    v_i >= u_i(dev_i) + E[gamma_bar_i(b) | dev_i]    (incentives)
    lambda . gamma_bar(b) <= 0 for every b           (half-space)

Orthogonal enforcement pins lambda . gamma_bar(b) = 0 pointwise, in which
case the supported level is exactly lambda . u(r).  The best supported level
over action profiles, k*(lambda), bounds the equilibrium payoff set: the
attainable set is approximated by intersecting the half-spaces
{v : lambda . v <= k*(lambda)} over many directions.

k* has a closed form (Fudenberg-Levine-Maskin 1994): the N public bits are
independent and a deviation moves only the deviator's bit, so each
profile's level follows from ``GameSpec.stage`` and the monitor kernel, as
``k_star`` states.  General mode adds no LP: where lambda = c e_k
punishes firm k, each profitable firm is paid on its own bit at k*'s level,
and elsewhere the orthogonal map at u(r) reaches the bound lambda . u(r).

``solve_enforceability``, ``verify_decomposition`` and
``PromiseDecomposition`` read one private table per profile r: the laws and
payoffs that no direction changes, that is P(bit j = 0) at r and after j
deviates, the N + 1 signal distributions (r and its N unilateral
deviations), the payoffs and the deviation gains.  The orthogonal equality
solve builds the rows of the system over the 2^N public signals
(``_system``): profitable deviations bind (the construction behind the
two-firm closed form), and gamma_bar is pinned to zero at the all-ones
signal.  Where its minimum-norm solution misses, the per-bit map pays each
profitable firm on its own bit and a partner firm offsets it in lambda, so
orthogonal mode fails exactly where k* punishes the profile.  No solve runs
an LP.  The table stops at SYSTEM_MAX_FIRMS firms.  k* builds none: it
reads ``game.profile_array`` and ``game.deviation_payoffs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .game import GameSpec, STRICT_TOL, all_profile_payoffs, deviation_payoffs
from .game import profile_array, validate_profile, validate_vector
from .geometry import ensure_ccw, halfplane_intersection_2d
from .monitoring import MODE_PUBLIC, public_profile_distribution_raw, signal_kernel

SOLVE_TOL = 1e-9
SYSTEM_MAX_FIRMS = 8
# Slack of the promise region {lam . v <= k* + tol, v_i >= -tol}.
REGION_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.  Nothing in
    the package calls it; it stays only because the benchmark tracer
    (``perfbench/tracing.py``) binds it by name."""
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


def kappa(alpha: float, epsilon: float) -> float:
    """Likelihood-contrast ratio (1-e)/e - (1-a)/a; positive on the domain.

    Satisfies the identity epsilon * alpha * kappa = alpha(1-e) - e(1-a)
    = alpha - epsilon, so punishment magnitudes L/(e a kappa) shrink as the
    monitor sharpens (alpha up, epsilon down).
    """
    if not (0 < epsilon < 0.5):
        raise DomainError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if not (0.5 < alpha < 1):
        raise DomainError(f"alpha must lie in (1/2, 1), got {alpha}")
    return (1 - epsilon) / epsilon - (1 - alpha) / alpha


def table2_gamma_bar(loss: float, alpha: float, epsilon: float, direction) -> np.ndarray:
    """Closed-form continuation map for two firms at full disclosure.

    Rows are signal indices (b_1 + 2 b_2), columns are firms.  Pinned at
    gamma_bar(1,1) = 0; valid for any direction with both components
    nonzero.  A firm is punished only on signals where it alone looks
    deviant, so the two firms are never punished simultaneously.
    """
    lam = np.asarray(direction, dtype=float)
    if lam.shape != (2,):
        raise DomainError("closed form is for two firms; direction must have length 2")
    if lam[0] == 0.0 or lam[1] == 0.0:
        raise DomainError(
            "closed form requires both direction components nonzero; "
            "use k_star / solve_enforceability for coordinate directions"
        )
    if loss <= 0:
        raise DomainError(f"loss must be > 0, got {loss}")
    scale = loss / (epsilon * alpha * kappa(alpha, epsilon))
    rho = (1 - epsilon) / epsilon
    g = np.zeros((4, 2))
    g[0, 0] = scale * rho * (lam[1] / lam[0] - 1.0)  # b = (0,0)
    g[0, 1] = scale * rho * (lam[0] / lam[1] - 1.0)
    g[1, 0] = scale  # b = (1,0): firm 2 looks deviant
    g[1, 1] = -(lam[0] / lam[1]) * scale
    g[2, 0] = -(lam[1] / lam[0]) * scale  # b = (0,1): firm 1 looks deviant
    g[2, 1] = scale
    return g


# ---------------------------------------------------------------------------
# general solver


@dataclass(frozen=True)
class EnforceabilityResult:
    feasible: bool
    gamma_bar: np.ndarray | None
    k_star: float | None
    orthogonal: bool
    mode: str  # "equality" | "per_bit" (orthogonal) | "own_bit" (general)
    action: tuple[int, ...]
    direction: tuple[float, ...]
    target: tuple[float, ...] | None
    binding: tuple[bool, ...] | None
    residual: float | None
    failure_reason: str | None = None


@dataclass(frozen=True)
class _ProfileTable:
    """Everything about one pure profile r that no direction changes: the
    public laws at r and after each unilateral deviation, and the payoffs.
    ``_system`` builds the rows of the constraint system from it."""

    spec: GameSpec
    action: tuple[int, ...]
    p: np.ndarray  # (n,): P(bit j = 0) at r
    pi_eq: np.ndarray  # (s,)
    u_r: np.ndarray  # (n,)
    pi_dev: np.ndarray  # (n, s): row i is firm i's unilateral deviation
    u_dev: np.ndarray  # (n,)
    gains: np.ndarray  # u_dev - u_r
    profitable: np.ndarray  # gains > STRICT_TOL: these deviations bind
    slope: np.ndarray  # g_j / (P(b_j = 0) at r - after j deviates) if profitable, else 0


def _profile_table(spec: GameSpec, profile) -> _ProfileTable:
    n = spec.n_firms
    # The orthogonality rows of the system over 2^N signals alone are
    # 8 N 4^N bytes: 1.6 GB at N = 12.
    if n > SYSTEM_MAX_FIRMS:
        raise CapacityError(
            f"the constraint system over 2^N public signals is capped at "
            f"N <= {SYSTEM_MAX_FIRMS}"
        )
    r = validate_profile(spec, profile)
    kernel = signal_kernel(spec, MODE_PUBLIC)
    pi_eq = public_profile_distribution_raw(r, spec.m_alpha, spec.m_epsilon)
    u_r = spec.stage[r, r.sum()]
    u_dev = deviation_payoffs(spec, r)
    # Row i of r ^ I is the profile where firm i alone deviates.
    pi_dev = np.array([public_profile_distribution_raw(d, spec.m_alpha, spec.m_epsilon)
                       for d in r ^ np.eye(n, dtype=np.int64)])
    gains = u_dev - u_r
    profitable = gains > STRICT_TOL
    return _ProfileTable(
        spec=spec, action=tuple(int(a) for a in r), p=kernel[r], pi_eq=pi_eq, u_r=u_r,
        pi_dev=pi_dev, u_dev=u_dev, gains=gains, profitable=profitable,
        slope=np.where(profitable, gains / (kernel[r] - kernel[1 - r]), 0.0),
    )


def _system(t: _ProfileTable, lam: np.ndarray) -> tuple[np.ndarray, ...]:
    """(orth, cons, dev, pin): the rows of t's system on lam over the 2^N
    public signals, acting on x = gamma_bar.T.ravel() (firm-major blocks of
    s signals).  orth[b] . x = lambda . gamma_bar(b), cons[i] . x =
    E[gamma_bar_i | r], dev[i] . x = E[gamma_bar_i | dev_i] and pin[i] . x =
    gamma_bar_i at the all-ones signal.  Rows are built by assignment, so
    every entry outside a block is +0.0."""
    n, s = len(t.u_r), len(t.pi_eq)
    firms = np.arange(n)
    orth = np.zeros((s, n * s))
    orth.reshape(s, n, s)[np.arange(s), :, np.arange(s)] = lam
    cons = np.zeros((n, n * s))
    cons.reshape(n, n, s)[firms, firms] = t.pi_eq
    dev = np.zeros((n, n * s))
    dev.reshape(n, n, s)[firms, firms] = t.pi_dev
    pin = np.zeros((n, n * s))
    pin[firms, firms * s + s - 1] = 1.0
    return orth, cons, dev, pin


def _direction(direction, n: int) -> np.ndarray:
    lam = validate_vector(direction, n, "direction")
    if not np.any(lam != 0):
        raise DomainError("direction must be nonzero")
    return lam


def solve_enforceability(
    spec: GameSpec, profile, direction, orthogonal: bool = True, target=None
) -> EnforceabilityResult:
    """Solve for a continuation map enforcing ``profile`` on ``direction``.

    Orthogonal mode imposes lambda . gamma_bar(b) = 0 pointwise at the level
    k* = lambda . u(r), with an ``equality`` or a ``per_bit`` map; ``target``
    selects the payoff on that hyperplane (default u(r)).  It fails where k*
    punishes the profile, or for a target off the hyperplane.  General mode
    relaxes to lambda . gamma_bar(b) <= 0 at k*'s level: an ``own_bit`` map
    where lambda = c e_k punishes, else the orthogonal map at u(r).  No mode
    runs an LP.  A non-finite direction or target raises DomainError.
    """
    table = _profile_table(spec, profile)
    lam = _direction(direction, spec.n_firms)
    if not orthogonal:
        # The orthogonal map at u(r) reaches the bound lambda . u(r) wherever
        # k* does not punish the profile.
        res = _solve(table, lam, None)
        return res if res.feasible else _own_bit(table, lam, *_coordinate(lam))
    v = None if target is None else validate_vector(target, spec.n_firms, "target payoff")
    return _solve(table, lam, v)


def _solve(t: _ProfileTable, lam: np.ndarray, target) -> EnforceabilityResult:
    """Enforce t's profile orthogonally on lam, unless k* punishes it;
    ``target`` is a checked payoff array or None."""
    n, s = len(t.u_r), len(t.pi_eq)
    v = t.u_r.copy() if target is None else target
    bound = float(lam @ t.u_r)
    if abs(float(lam @ v) - bound) > SOLVE_TOL * max(1.0, abs(bound)):
        return _result(
            t, lam, "equality", target=v,
            failure="target is off the supporting hyperplane lambda.v = lambda.u(r)",
        )
    coordinate = _coordinate(lam)
    if coordinate is not None and t.profitable[coordinate[0]]:
        return _result(t, lam, "per_bit", target=v, failure="orthogonal enforcement infeasible")

    # Equality solve: profitable deviations bind, the all-ones signal is
    # pinned.  A miss (residual or incentive slack, NaN included) takes the
    # per-bit map.
    orth, cons, dev, pin = _system(t, lam)
    a = np.vstack([orth, cons, dev[t.profitable], pin])
    rhs = np.concatenate([np.zeros(s), v - t.u_r, (v - t.u_dev)[t.profitable], np.zeros(n)])
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    residual = float(np.max(np.abs(a @ x - rhs)))
    if residual <= SOLVE_TOL * max(1.0, float(np.max(np.abs(rhs)))):
        gamma = x.reshape(n, s).T
        if np.min(_ic_slacks(t, gamma)) >= -SOLVE_TOL:
            return _result(t, lam, "equality", gamma, float(lam @ v), v, residual)
    return _result(t, lam, "per_bit", _per_bit_map(t, lam, v), float(lam @ v), v)


def _per_bit_map(t: _ProfileTable, lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The orthogonal map at v: gamma_bar(b) = (v - u(r)) + sum_j T_j(b_j)
    (e_j - (lambda_j / lambda_k) e_k), T_j(b_j) = s_j (1{b_j = 0} - p_j).  T_j
    binds j's incentive and has mean 0; the partner k != j, the kept
    component (zero rule) of largest |lambda_k|, lowest index on ties,
    cancels lambda_j T_j, and b_j's law does not depend on a_k.  The caller
    has checked that every profitable j with lambda_j != 0 has a partner."""
    transfers = _per_bit(t, t.p)
    gamma = (v - t.u_r) + transfers
    order = np.argsort(-np.abs(lam), kind="stable")
    for j in np.flatnonzero((t.slope != 0.0) & (lam != 0.0)):
        k = order[1] if j == order[0] else order[0]
        gamma[:, k] -= lam[j] / lam[k] * transfers[:, j]
    return gamma + 0.0


def _result(t: _ProfileTable, lam: np.ndarray, mode: str, gamma=None, level=None,
            target=None, residual=None, failure=None) -> EnforceabilityResult:
    """The result for t's profile on lam: the map ``gamma`` at ``level``,
    or, with no map, the failure."""
    return EnforceabilityResult(
        feasible=gamma is not None, gamma_bar=gamma, k_star=level,
        orthogonal=mode in ("equality", "per_bit"), mode=mode, action=t.action,
        direction=tuple(lam), target=None if target is None else tuple(target),
        binding=None if gamma is None else _binding(_ic_slacks(t, gamma)),
        residual=residual, failure_reason=failure,
    )


def _ic_slacks(t: _ProfileTable, gamma) -> np.ndarray:
    return np.array([float((t.pi_eq - t.pi_dev[i]) @ gamma[:, i]) - t.gains[i]
                     for i in range(len(t.gains))])


def _binding(slacks) -> tuple[bool, ...]:
    return tuple(bool(abs(sl) <= SOLVE_TOL) for sl in slacks)


def _own_bit(t: _ProfileTable, lam: np.ndarray, k: int, c: float) -> EnforceabilityResult:
    """General mode where lambda = c e_k punishes firm k, at k*'s level.

    Each profitable firm j is paid on its own bit, gamma_bar_j(b) =
    s_j (1{b_j = 0} - theta_j), so j's incentive binds.
    theta_j = 1{lambda_j s_j > 0} keeps lambda_j gamma_bar_j(b) <= 0 on every
    signal, also for a component the zero rule drops; theta_j = p_j where
    lambda_j = 0 makes j's transfer mean-zero.
    """
    theta = np.where(lam * t.slope == 0.0, t.p, lam * t.slope > 0.0)
    level = float(float(lam @ t.u_r) - _own_bit_penalty(t.spec, c, t.gains[k]))
    return _result(t, lam, "own_bit", _per_bit(t, theta), level)


def _per_bit(t: _ProfileTable, theta) -> np.ndarray:
    """s_j (1{b_j = 0} - theta_j): one row per public signal b, one column
    per firm j."""
    bits = (np.arange(len(t.pi_eq))[:, None] >> np.arange(len(t.p))) & 1
    return t.slope * (1 - bits - theta) + 0.0  # + 0.0: no -0.0 entries


# ---------------------------------------------------------------------------
# best supported level over action profiles


@dataclass(frozen=True)
class KStarResult:
    """k*(lambda), its best profile and how that profile is enforced, as
    ``k_star`` decides them."""

    direction: tuple[float, ...]
    value: float
    best_profile: tuple[int, ...]
    orthogonal_at_best: bool


def k_star(spec: GameSpec, direction) -> KStarResult:
    """Best supported half-space level over all pure action profiles.

    A profile's level is lambda . u(r), enforced orthogonally, unless
    lambda = c e_k (a component with |lambda_i| <= SOLVE_TOL max|lambda|
    counts as zero) and firm k gains g > STRICT_TOL by deviating at r: then
    it is lambda . u(r) - |c| g m / (m_alpha - m_epsilon), m = m_epsilon if
    c > 0 else 1 - m_epsilon, and not orthogonal.  Ties within SOLVE_TOL go
    to the lexicographically smallest profile.  Nothing is solved.  The
    tie-break is absolute, so rescaling lambda far from unit length can
    change the best profile.  A non-finite direction raises DomainError,
    and more than PROFILE_MAX_FIRMS firms ``game.profile_array``'s
    CapacityError.
    """
    lam = _direction(direction, spec.n_firms)
    profiles, levels, orthogonal = _profile_levels(spec, lam)
    i = int(np.flatnonzero(levels >= levels.max() - SOLVE_TOL)[0])
    best = tuple(profiles[i].tolist())
    return KStarResult(tuple(lam), float(levels[i]), best, bool(orthogonal[i]))


def _profile_levels(spec: GameSpec, lam: np.ndarray) -> tuple[np.ndarray, ...]:
    """(profiles, levels, orthogonal): ``game.profile_array``'s (2^N, N)
    profiles, in ``all_profiles`` (lexicographic) order, with each one's
    level and whether it is enforced orthogonally."""
    profiles, payoffs = profile_array(spec.n_firms), all_profile_payoffs(spec)
    # One dot per profile: a batched payoffs @ lam rounds differently (with
    # numpy 2.4, matmul disagreed with the scalar two-term dot in 1847 of
    # 2000 random trials).
    levels = np.array([float(lam @ u) for u in payoffs])
    punished = np.zeros(len(profiles), dtype=bool)
    coordinate = _coordinate(lam)
    if coordinate is not None:
        k, c = coordinate
        g = deviation_payoffs(spec, profiles)[:, k] - payoffs[:, k]
        punished = g > STRICT_TOL
        levels[punished] -= _own_bit_penalty(spec, c, g[punished])
    return profiles, levels, ~punished


def _coordinate(lam: np.ndarray) -> tuple[int, float] | None:
    """(k, c) when lambda = c e_k under the zero rule, else None."""
    nonzero = np.flatnonzero(np.abs(lam) > SOLVE_TOL * np.max(np.abs(lam)))
    return (int(nonzero[0]), float(lam[nonzero[0]])) if len(nonzero) == 1 else None


def _own_bit_penalty(spec: GameSpec, c: float, g):
    """lambda . u(r) less the level where lambda = c e_k punishes firm k's
    deviation gain g.  Only k's own bit can punish k, and a profitable
    deviation is a discloser's: its bit reads 0 w.p. m_epsilon, m_alpha after."""
    m = spec.m_epsilon if c > 0 else 1.0 - spec.m_epsilon
    return abs(c) * g * m / (spec.m_alpha - spec.m_epsilon)


def k_star_formula_linear_n2(G: float, L: float, direction) -> float:
    """Closed-form k*(lambda) for two firms with linear gains, positive
    quadrant directions: asymmetric profiles win when the direction is
    lopsided enough, full disclosure in between."""
    lam = np.asarray(direction, dtype=float)
    l1, l2 = lam
    if l1 < 0 or l2 < 0:
        raise DomainError("formula covers the positive quadrant only")
    if L * l2 >= G * l1:
        return G * l2 - L * l1
    if L * l1 >= G * l2:
        return G * l1 - L * l2
    return (G - L) * (l1 + l2)


# ---------------------------------------------------------------------------
# payoff-set approximation (two firms)


@dataclass(frozen=True)
class PayoffSetApprox:
    directions: np.ndarray  # (n, N) unit directions
    k_values: np.ndarray  # (n,)
    best_profiles: tuple[tuple[int, ...], ...]
    vertices: np.ndarray | None  # (m, 2) CCW polygon; None when N > 2
    degenerate: bool = False  # empty interior (polygon collapsed or empty)

    def contains(self, point, tol: float = 1e-9) -> bool:
        """Is ``point`` in every half-space?  A point that is not N finite
        numbers raises DomainError."""
        p = validate_vector(point, self.directions.shape[1], "point")
        return bool(np.all(self.directions @ p <= self.k_values + tol))


def _circle_directions(n: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _sphere_directions(n: int, dim: int) -> np.ndarray:
    """Deterministic directions on the unit sphere: normalised standard
    Gaussian draws from a Philox stream with key 0."""
    rng = np.random.Generator(np.random.Philox(key=0))
    pts = rng.standard_normal((n, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def ppe_payoff_set(spec: GameSpec, n_directions: int = 360) -> PayoffSetApprox:
    """Intersect supporting half-spaces over uniformly spread directions.

    For two firms the directions sweep the unit circle and the intersection
    polygon is returned; in higher dimension the half-space list is produced
    without vertex enumeration.  Each sampled direction contributes
    {v : lambda . v <= k*(lambda)}, a half-space that contains the limit
    set, so the intersection approximates it from outside.  A half-space
    need not touch the individually rational part of the feasible hull: at
    N = 3..5 a level can exceed that hull's maximum on the direction by
    close to 1.
    """
    if n_directions < 8:
        raise DomainError(f"need at least 8 directions, got {n_directions}")
    if spec.n_firms == 2:
        dirs = _circle_directions(n_directions)
    else:
        dirs = _sphere_directions(n_directions, spec.n_firms)
    results = [k_star(spec, lam) for lam in dirs]
    ks = np.array([res.value for res in results])
    best = [res.best_profile for res in results]
    if spec.n_firms != 2:
        return PayoffSetApprox(
            directions=dirs, k_values=ks, best_profiles=tuple(best), vertices=None
        )
    bound = 10.0 * (1.0 + float(np.max(np.abs(ks))) + spec.max_abs_payoff())
    poly = halfplane_intersection_2d(dirs, ks, bound=bound, tol=1e-9)
    degenerate = len(poly) < 3
    if not degenerate:
        poly = ensure_ccw(poly)
    return PayoffSetApprox(
        directions=dirs,
        k_values=ks,
        best_profiles=tuple(best),
        vertices=poly,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# decomposition verification and promise support


@dataclass(frozen=True)
class DecompositionCheck:
    holds: bool
    equality_residual: float
    ic_slacks: tuple[float, ...]
    binding: tuple[bool, ...]


def verify_decomposition(
    spec: GameSpec, v, profile, gamma_bar: np.ndarray
) -> DecompositionCheck:
    """Check the discounted decomposition identity and incentive slacks at
    the spec's discount factor delta.

    gamma(b) = v + ((1-delta)/delta) gamma_bar(b); the identity
    v = (1-delta) u(r) + delta E[gamma(b) | r] must hold per firm, and each
    unilateral deviation must not gain.  IC slack is measured as the
    distribution-difference form
    (1-delta)(u_i(r) - u_i(dev)) + delta (pi_eq - pi_dev) . gamma_i, which
    does not depend on the promised v and equals (1-delta) times the
    normalized slack; a perturbation of gamma_bar_i(b) by h therefore moves
    the slack by (1-delta) h times the probability gap at b.  A v that is
    not N finite numbers, or a non-finite gamma_bar, raises DomainError.
    """
    delta = spec.delta
    t = _profile_table(spec, profile)
    n, s = spec.n_firms, 2**spec.n_firms
    v = validate_vector(v, n, "v")
    gamma_bar = np.asarray(gamma_bar, dtype=float)
    if gamma_bar.shape != (s, n) or not np.all(np.isfinite(gamma_bar)):
        raise DomainError(f"gamma_bar must be a finite ({s}, {n}) array")
    gamma = v + (1 - delta) / delta * gamma_bar
    lhs = (1 - delta) * t.u_r + delta * (t.pi_eq @ gamma)
    eq_res = float(np.max(np.abs(v - lhs)))
    slacks = (1 - delta) * (t.u_r - t.u_dev) + delta * np.einsum(
        "is,si->i", t.pi_eq - t.pi_dev, gamma)
    return DecompositionCheck(
        holds=eq_res <= SOLVE_TOL and bool(np.min(slacks) >= -SOLVE_TOL),
        equality_residual=eq_res, ic_slacks=tuple(float(x) for x in slacks),
        binding=_binding(slacks),
    )


class PromiseDecomposition:
    """Affine family of continuation maps decomposing payoffs near u(r*).

    r* is ``k_star``'s best profile, and it must be enforced orthogonally.
    The orthogonal equality system is linear in the target payoff, so the
    pinned minimum-norm solution is an affine function of the displacement
    d = v - u(r*).  The family is built on r*'s one profile table from the
    base map solved at u(r*) plus one solve per hyperplane basis vector;
    displacements off the hyperplane are absorbed by a constant shift
    (allowed in the half-space since lambda . d <= 0).

    ``outside`` and ``step`` are the promise walk of the automaton and of the
    Monte Carlo kernel.  They take one (N,) promise or a firm-major (N, R)
    block, whose row k holds firm k's promise in every replica; a column
    runs the same numpy ops in the same order as its own (N,) call, so it
    gives the same bits.
    """

    def __init__(self, spec: GameSpec, direction):
        lam = _direction(direction, spec.n_firms)
        ks = k_star(spec, lam)
        self.spec = spec
        self.direction = lam
        self.k_star = ks.value
        self.action = ks.best_profile
        if not ks.orthogonal_at_best:
            raise DomainError(
                "promise decomposition requires an orthogonally enforceable "
                "best profile for the chosen direction"
            )
        table = _profile_table(spec, self.action)
        self.u_r = table.u_r
        self.gamma_base = _solve(table, lam, None).gamma_bar  # (S, N): the map at u(r*)
        n = spec.n_firms
        lam_unit = lam / np.linalg.norm(lam)
        # An orthonormal basis of the hyperplane: proj's singular vectors of
        # singular value 1.
        proj = np.eye(n) - np.outer(lam_unit, lam_unit)
        vecs, sv, _ = np.linalg.svd(proj)
        basis = [vecs[:, k] for k in range(n) if sv[k] > 0.5]
        shifts = [_solve(table, lam, self.u_r + e).gamma_bar - self.gamma_base for e in basis]
        # tensor[b, i, :] maps a hyperplane displacement to the gamma_bar shift
        pinv = np.linalg.pinv(np.asarray(basis).T)  # (n-1, n)
        tensor = np.einsum("mbi,mk->bik", np.asarray(shifts), pinv)
        # Fold the hyperplane projection and the rigid perpendicular shift
        # into one matrix per signal: gamma_bar(v) = base + affine[b] @ (v - u).
        self.affine = np.einsum("bik,kl->bil", tensor, proj) + np.outer(
            lam_unit, lam_unit
        )[None, :, :]
        # gamma_base.T over each firm k's affine[:, :, k].T, (N + 1) (N, S)
        # blocks: one gather of signals b serves a whole step, and the rows
        # of an (N, R) block of promises stay contiguous.
        self._table = np.concatenate(
            [self.gamma_base.T] + [self.affine[:, :, k].T for k in range(n)]
        )
        self._u_col = self.u_r[:, None]
        self._level_max = self.k_star + REGION_TOL

    def outside(self, v):
        """Whether promise(s) v left {lam . v <= k* + tol, v_i >= -tol}."""
        lam = self.direction
        level = v[0] * lam[0]
        for k in range(1, len(lam)):
            level = level + v[k] * lam[k]
        return (level > self._level_max) | (v.min(axis=0) < -REGION_TOL)

    def step(self, v, b, c):
        """Promise(s) after public signal(s) b: v + c gamma_bar(v)[b]."""
        rows = self._gamma_rows(v, b)
        rows *= c
        rows += v
        return rows

    def gamma_bar_for(self, v) -> np.ndarray:
        """Continuation map for promise v, one row per public signal: the
        rows that ``step`` adds, bit for bit."""
        v = np.asarray(v, dtype=float)
        return self._gamma_rows(v, np.arange(len(self.gamma_base))).T.copy()

    def _gamma_rows(self, v, b):
        # gamma_base[b] + sum_k affine[b, :, k] (v - u)_k, summed in k order,
        # firm-major: (N,) for one promise, (N, R) for a block.
        n = len(self.u_r)
        d = v - (self.u_r if v.ndim == 1 else self._u_col)
        g = self._table.take(b, axis=1)
        rows = g[:n]
        for k in range(n):
            rows += g[n * (k + 1) : n * (k + 2)] * d[k]
        return rows
