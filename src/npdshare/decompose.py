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

For profitable deviations the incentive constraints are imposed as
equalities (the construction that yields the two-firm closed form); for
unprofitable deviations equality would punish compliance, so those
constraints are verified as slack inequalities instead, with an LP
feasibility fallback.  Underdetermined systems are resolved by pinning
gamma_bar at the all-ones signal to zero and taking the minimum-norm
solution.

What no direction changes is built once per spec: for each of the 2^N
pure profiles r, one private table holds r's N + 1 public signal
distributions (r and its N unilateral deviations), the stage payoffs, the
deviation gains, and the consistency, deviation and pin rows of the
constraint system.  ``k_star``, ``ppe_payoff_set`` and
``PromiseDecomposition`` build the 2^N tables once and pass them down;
``solve_enforceability`` and ``verify_decomposition`` build the one table
they need.  Per direction only the orthogonality rows (one block, shared by
every profile) and the right-hand sides are built.  The equality solve, the
orthogonal feasibility LP and the general LP each stack a subset of these
rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import CapacityError, DomainError
from .game import GameSpec, STRICT_TOL, all_profiles, profile_payoff, validate_profile
from .geometry import ensure_ccw, halfplane_intersection_2d
from .monitoring import public_profile_distribution_raw

SOLVE_TOL = 1e-9
K_STAR_MAX_FIRMS = 8


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
    mode: str  # "equality" | "lp_feasibility" | "lp_general"
    action: tuple[int, ...]
    direction: tuple[float, ...]
    target: tuple[float, ...] | None
    binding: tuple[bool, ...] | None
    residual: float | None
    failure_reason: str | None = None


@dataclass(frozen=True)
class _ProfileTable:
    """Everything about one pure profile r that no direction changes.

    The row blocks act on x = gamma_bar.T.ravel() (firm-major blocks of s
    signals): cons[i] . x = E[gamma_bar_i | r] and dev[i] . x =
    E[gamma_bar_i | dev_i].  ``lower`` stacks [cons; dev[profitable]; pin],
    the rows of the equality system below the orthogonality rows.  Rows are
    built by assignment, so every entry outside a block is +0.0.
    """

    action: tuple[int, ...]
    pi_eq: np.ndarray  # (s,)
    u_r: np.ndarray  # (n,)
    pi_dev: np.ndarray  # (n, s): row i is firm i's unilateral deviation
    u_dev: np.ndarray  # (n,)
    gains: np.ndarray  # u_dev - u_r
    profitable: np.ndarray  # gains > STRICT_TOL: these deviations bind
    cons: np.ndarray  # (n, n s)
    incentives: np.ndarray  # dev - cons; incentives @ x <= -gains
    lower: np.ndarray


def _profile_table(spec: GameSpec, profile) -> _ProfileTable:
    r = validate_profile(spec, profile)
    n = spec.n_firms
    s = 2**n
    pi_eq = public_profile_distribution_raw(r, spec.m_alpha, spec.m_epsilon)
    u_r = profile_payoff(spec, r)
    pi_dev = np.empty((n, s))
    u_dev = np.empty(n)
    for i in range(n):
        d = r.copy()
        d[i] = 1 - d[i]
        pi_dev[i] = public_profile_distribution_raw(d, spec.m_alpha, spec.m_epsilon)
        u_dev[i] = profile_payoff(spec, d)[i]
    gains = u_dev - u_r
    profitable = gains > STRICT_TOL
    nv = n * s
    firms = np.arange(n)
    cons = np.zeros((n, nv))
    cons.reshape(n, n, s)[firms, firms] = pi_eq
    dev = np.zeros((n, nv))
    dev.reshape(n, n, s)[firms, firms] = pi_dev
    pin = np.zeros((n, nv))
    pin[firms, firms * s + s - 1] = 1.0
    return _ProfileTable(
        action=tuple(int(a) for a in r), pi_eq=pi_eq, u_r=u_r, pi_dev=pi_dev,
        u_dev=u_dev, gains=gains, profitable=profitable, cons=cons,
        incentives=dev - cons, lower=np.vstack([cons, dev[profitable], pin]),
    )


def _profile_tables(spec: GameSpec) -> dict[tuple[int, ...], _ProfileTable]:
    """The tables of all 2^N pure profiles, in ``all_profiles`` order."""
    if spec.n_firms > K_STAR_MAX_FIRMS:
        raise CapacityError(
            f"k_star enumerates 2^N profiles and is capped at N <= {K_STAR_MAX_FIRMS}"
        )
    return {r: _profile_table(spec, r) for r in all_profiles(spec.n_firms)}


def _direction(direction, n: int) -> np.ndarray:
    lam = np.asarray(direction, dtype=float)
    if lam.shape != (n,):
        raise DomainError(f"direction must have length {n}")
    if not np.any(lam != 0):
        raise DomainError("direction must be nonzero")
    if not np.all(np.isfinite(lam)):
        raise DomainError(f"direction must be finite, got {lam.tolist()}")
    return lam


def _orth_rows(lam: np.ndarray) -> np.ndarray:
    """orth[b] . x = lambda . gamma_bar(b); the same rows for every profile."""
    n = len(lam)
    s = 2**n
    orth = np.zeros((s, n * s))
    orth.reshape(s, n, s)[np.arange(s), :, np.arange(s)] = lam
    return orth


def solve_enforceability(
    spec: GameSpec,
    profile,
    direction,
    orthogonal: bool = True,
    target=None,
) -> EnforceabilityResult:
    """Solve for a continuation map enforcing ``profile`` on ``direction``.

    Orthogonal mode imposes lambda . gamma_bar(b) = 0 pointwise and reaches
    the level k* = lambda . u(r) when feasible; ``target`` selects which
    payoff on that hyperplane the consistency equalities hit (default
    u(r)).  General mode relaxes to lambda . gamma_bar(b) <= 0 and
    maximizes the supported level by LP.  A non-finite direction or target
    raises DomainError.
    """
    table = _profile_table(spec, profile)
    n = spec.n_firms
    lam = _direction(direction, n)
    v = None
    if orthogonal and target is not None:
        v = np.asarray(target, dtype=float)
        if v.shape != (n,):
            raise DomainError(f"target payoff must have length {n}")
        if not np.all(np.isfinite(v)):
            raise DomainError(f"target payoff must be finite, got {v.tolist()}")
    return _solve(table, lam, _orth_rows(lam), orthogonal, v)


def _solve(
    t: _ProfileTable, lam: np.ndarray, orth: np.ndarray, orthogonal: bool, target
) -> EnforceabilityResult:
    """Enforce t's profile on lam; ``orth`` is ``_orth_rows(lam)`` and
    ``target`` a checked payoff array or None."""
    n, s = len(t.u_r), len(t.pi_eq)
    free = [(None, None)] * (n * s)

    if not orthogonal:
        res = linprog(
            c=-(lam[:, None] * t.pi_eq).ravel(), A_ub=np.vstack([t.incentives, orth]),
            b_ub=np.concatenate([-t.gains, np.zeros(s)]), bounds=free, method="highs",
        )
        if not res.success:
            return _failure(
                t.action, lam, None, orthogonal, "no enforceable continuation map"
            )
        gamma = res.x.reshape(n, s).T
        return EnforceabilityResult(
            feasible=True, gamma_bar=gamma,
            k_star=float(lam @ t.u_r) - float(res.fun), orthogonal=False,
            mode="lp_general", action=t.action, direction=tuple(lam), target=None,
            binding=_binding(_ic_slacks(t, gamma)), residual=None,
        )

    v = t.u_r.copy() if target is None else target
    if abs(float(lam @ v) - float(lam @ t.u_r)) > SOLVE_TOL * max(
        1.0, float(np.abs(lam @ t.u_r))
    ):
        return _failure(
            t.action, lam, v, orthogonal,
            "target is off the supporting hyperplane lambda.v = lambda.u(r)",
        )

    # Equality solve: profitable deviations bind, the all-ones signal is
    # pinned.  Both comparisons read "not >" so that NaN residuals and slacks
    # are accepted here rather than handed to HiGHS, which rejects NaN input.
    a = np.vstack([orth, t.lower])
    rhs = np.concatenate(
        [np.zeros(s), v - t.u_r, (v - t.u_dev)[t.profitable], np.zeros(n)]
    )
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    residual = float(np.max(np.abs(a @ x - rhs)))
    if not residual > SOLVE_TOL * max(1.0, float(np.max(np.abs(rhs)))):
        gamma = x.reshape(n, s).T
        slacks = _ic_slacks(t, gamma)
        if not np.min(slacks) < -SOLVE_TOL:
            return EnforceabilityResult(
                feasible=True, gamma_bar=gamma, k_star=float(lam @ v),
                orthogonal=True, mode="equality", action=t.action,
                direction=tuple(lam), target=tuple(v), binding=_binding(slacks),
                residual=residual,
            )

    res = linprog(
        c=np.zeros(n * s), A_eq=np.vstack([orth, t.cons]),
        b_eq=np.concatenate([np.zeros(s), v - t.u_r]), A_ub=t.incentives, b_ub=-t.gains,
        bounds=free, method="highs",
    )
    if not res.success:
        return _failure(
            t.action, lam, v, orthogonal, "orthogonal enforcement infeasible"
        )
    gamma = res.x.reshape(n, s).T
    return EnforceabilityResult(
        feasible=True, gamma_bar=gamma, k_star=float(lam @ v), orthogonal=True,
        mode="lp_feasibility", action=t.action, direction=tuple(lam),
        target=tuple(v), binding=_binding(_ic_slacks(t, gamma)), residual=None,
    )


def _ic_slacks(t: _ProfileTable, gamma) -> np.ndarray:
    return np.array(
        [
            float((t.pi_eq - t.pi_dev[i]) @ gamma[:, i]) - t.gains[i]
            for i in range(len(t.gains))
        ]
    )


def _binding(slacks) -> tuple[bool, ...]:
    return tuple(bool(abs(sl) <= SOLVE_TOL) for sl in slacks)


def _failure(action, lam, v, orthogonal, reason) -> EnforceabilityResult:
    return EnforceabilityResult(
        feasible=False, gamma_bar=None, k_star=None, orthogonal=orthogonal,
        mode="equality" if orthogonal else "lp_general",
        action=action, direction=tuple(lam), target=None if v is None else tuple(v),
        binding=None, residual=None, failure_reason=reason,
    )


# ---------------------------------------------------------------------------
# best supported level over action profiles


@dataclass(frozen=True)
class KStarResult:
    direction: tuple[float, ...]
    value: float
    best_profile: tuple[int, ...]
    per_profile: dict[tuple[int, ...], float]
    orthogonal_at_best: bool
    best_map: EnforceabilityResult


def k_star(spec: GameSpec, direction) -> KStarResult:
    """Best supported half-space level over all pure action profiles.

    Orthogonal enforcement is attempted first (level = lambda . u(r),
    computed exactly); profiles that cannot be orthogonally enforced fall
    back to the general LP.  Ties within SOLVE_TOL go to the
    lexicographically smallest profile.  The direction is used as given.
    The tie-break and the solver tolerances are absolute while the levels
    and the orthogonality rows scale with lambda, so k* is positively
    homogeneous in lambda only for moderately scaled directions: a very
    small or very large rescaling can change the best profile or the
    enforcement mode.  ppe_payoff_set passes unit directions.  A
    non-finite direction raises DomainError.
    """
    tables = _profile_tables(spec)
    lam = _direction(direction, spec.n_firms)
    return _best_level(tables, lam, _orth_rows(lam))


def _best_level(
    tables: dict[tuple[int, ...], _ProfileTable], lam: np.ndarray, orth: np.ndarray
) -> KStarResult:
    per: dict[tuple[int, ...], float] = {}
    maps: dict[tuple[int, ...], EnforceabilityResult] = {}
    for r, t in tables.items():
        res = _solve(t, lam, orth, True, None)
        if not res.feasible:
            res = _solve(t, lam, orth, False, None)
        if res.feasible:
            per[r] = float(res.k_star)
            maps[r] = res
    if not per:
        raise DomainError("no action profile is enforceable in this direction")
    best_value = max(per.values())
    candidates = sorted(r for r, kv in per.items() if kv >= best_value - SOLVE_TOL)
    best = candidates[0]
    return KStarResult(
        direction=tuple(lam),
        value=per[best],
        best_profile=best,
        per_profile=per,
        orthogonal_at_best=maps[best].orthogonal,
        best_map=maps[best],
    )


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
        p = np.asarray(point, dtype=float)
        return bool(np.all(self.directions @ p <= self.k_values + tol))


def _circle_directions(n: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _sphere_directions(n: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere."""
    rng = np.random.Generator(np.random.Philox(key=0))
    pts = rng.standard_normal((n, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def ppe_payoff_set(spec: GameSpec, n_directions: int = 360) -> PayoffSetApprox:
    """Intersect supporting half-spaces over uniformly spread directions.

    For two firms the directions sweep the unit circle and the intersection
    polygon is returned; in higher dimension the half-space list is produced
    without vertex enumeration.  Each sampled direction contributes
    {v : lambda . v <= k*(lambda)}; every half-space supports the limit set
    tightly, so the polygon converges to it from outside as directions are
    refined.
    """
    if n_directions < 8:
        raise DomainError(f"need at least 8 directions, got {n_directions}")
    if spec.n_firms == 2:
        dirs = _circle_directions(n_directions)
    else:
        dirs = _sphere_directions(n_directions, spec.n_firms)
    tables = _profile_tables(spec)
    ks = np.empty(n_directions)
    best: list[tuple[int, ...]] = []
    for idx in range(n_directions):
        res = _best_level(tables, dirs[idx], _orth_rows(dirs[idx]))
        ks[idx] = res.value
        best.append(res.best_profile)
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
    spec: GameSpec, v, profile, gamma_bar: np.ndarray, delta: float | None = None
) -> DecompositionCheck:
    """Check the discounted decomposition identity and incentive slacks.

    gamma(b) = v + ((1-delta)/delta) gamma_bar(b); the identity
    v = (1-delta) u(r) + delta E[gamma(b) | r] must hold per firm, and each
    unilateral deviation must not gain.  IC slack is measured as the
    distribution-difference form
    (1-delta)(u_i(r) - u_i(dev)) + delta (pi_eq - pi_dev) . gamma_i, which
    does not depend on the promised v and equals (1-delta) times the
    normalized slack; a perturbation of gamma_bar_i(b) by h therefore moves
    the slack by (1-delta) h times the probability gap at b.
    """
    if delta is None:
        delta = spec.delta
    if not (0 < delta < 1):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    t = _profile_table(spec, profile)
    n, s = spec.n_firms, 2**spec.n_firms
    pi_eq, u_r, pi_dev, u_dev = t.pi_eq, t.u_r, t.pi_dev, t.u_dev
    v = np.asarray(v, dtype=float)
    gamma_bar = np.asarray(gamma_bar, dtype=float)
    if gamma_bar.shape != (s, n):
        raise DomainError(f"gamma_bar must have shape ({s}, {n})")
    scale = (1 - delta) / delta
    gamma = v[None, :] + scale * gamma_bar
    eq_res = 0.0
    slacks = []
    for i in range(n):
        lhs = (1 - delta) * u_r[i] + delta * float(pi_eq @ gamma[:, i])
        eq_res = max(eq_res, abs(v[i] - lhs))
        slacks.append(
            (1 - delta) * (u_r[i] - u_dev[i])
            + delta * float((pi_eq - pi_dev[i]) @ gamma[:, i])
        )
    slacks_arr = np.asarray(slacks)
    holds = eq_res <= SOLVE_TOL and bool(np.min(slacks_arr) >= -SOLVE_TOL)
    return DecompositionCheck(
        holds=holds,
        equality_residual=float(eq_res),
        ic_slacks=tuple(float(x) for x in slacks_arr),
        binding=tuple(bool(abs(x) <= SOLVE_TOL) for x in slacks_arr),
    )


class PromiseDecomposition:
    """Affine family of continuation maps decomposing payoffs near u(r*).

    The orthogonal equality system is linear in the target payoff, so the
    pinned minimum-norm solution is an affine function of the displacement
    d = v - u(r*).  The family is assembled from the base map k* already
    solved at u(r*) plus one solve per hyperplane basis vector, all on one
    set of profile tables; displacements off the hyperplane are absorbed by
    a constant shift (allowed in the half-space since lambda . d <= 0
    there).
    """

    def __init__(self, spec: GameSpec, direction):
        tables = _profile_tables(spec)
        lam = _direction(direction, spec.n_firms)
        orth = _orth_rows(lam)
        ks = _best_level(tables, lam, orth)
        self.spec = spec
        self.direction = lam
        self.k_star = ks.value
        self.action = ks.best_profile
        if not ks.orthogonal_at_best:
            raise DomainError(
                "promise decomposition requires an orthogonally enforceable "
                "best profile for the chosen direction"
            )
        table = tables[self.action]
        self.u_r = table.u_r
        self.gamma_base = ks.best_map.gamma_bar  # (S, N): k*'s orthogonal map at u(r*)
        n = spec.n_firms
        lam_unit = lam / np.linalg.norm(lam)
        basis = _hyperplane_basis(lam_unit)
        shifts = []
        for e in basis:
            res = _solve(table, lam, orth, True, self.u_r + e)
            if not res.feasible:
                raise DomainError("displacement decomposition infeasible")
            shifts.append(res.gamma_bar - self.gamma_base)
        # tensor[b, i, :] maps a hyperplane displacement to the gamma_bar shift
        pinv = np.linalg.pinv(np.asarray(basis).T)  # (n-1, n)
        tensor = np.einsum("mbi,mk->bik", np.asarray(shifts), pinv)
        # Fold the hyperplane projection and the rigid perpendicular shift
        # into one matrix per signal: gamma_bar(v) = base + affine[b] @ (v - u).
        proj = np.eye(n) - np.outer(lam_unit, lam_unit)
        self.affine = np.einsum("bik,kl->bil", tensor, proj) + np.outer(
            lam_unit, lam_unit
        )[None, :, :]

    def gamma_bar_for(self, v) -> np.ndarray:
        """Continuation map for promise v; accumulation order is fixed so the
        simulation kernels reproduce it bit for bit."""
        v = np.asarray(v, dtype=float)
        d = v - self.u_r
        gamma = self.gamma_base.copy()
        for k in range(len(d)):
            gamma += self.affine[:, :, k] * d[k]
        return gamma


def _hyperplane_basis(lam_unit: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the hyperplane orthogonal to lam_unit."""
    n = len(lam_unit)
    proj = np.eye(n) - np.outer(lam_unit, lam_unit)
    u, s, _ = np.linalg.svd(proj)
    return [u[:, k] for k in range(n) if s[k] > 0.5]
