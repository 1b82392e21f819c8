"""Hot Monte Carlo kernel of the promise automaton, vectorized over replicas.

The kernel simulates the promise-keeping automaton: each period it checks
the promise against the admissible region {lam . v <= k* + tol, v_i >= -tol},
accrues the stage payoff, samples the public signal from per-firm Bernoulli
bits, and applies the affine continuation update
v <- v + ((1-delta)/delta) (gamma_base[b] + affine[b] @ (v - u)).
Replicas that leave the region stop accruing payoff (the halt period is
recorded), which matches reverting to the all-conceal static equilibrium.

Only replicas still inside the region are carried from period to period, and
only they draw.  Each draw is addressed by its (period, slot, replica)
counter, so dropping halted replicas leaves every other draw, and hence
every replica's trajectory, bit for bit as if it ran alone.
"""

from __future__ import annotations

import numpy as np

from .rng import DOMAIN_PUBLIC, uniforms


def backend_name() -> str:
    return "numpy"


def promise_mc(
    seed: int,
    replicas: int,
    horizon: int,
    delta: float,
    v0: np.ndarray,
    u_r: np.ndarray,
    p_zero: np.ndarray,
    gamma_base: np.ndarray,
    affine: np.ndarray,
    lam: np.ndarray,
    k_star: float,
    tol: float = 1e-9,
):
    """Run the promise-automaton Monte Carlo.

    Returns (totals, halt_periods): totals[r] is the undiscounted-weighted
    sum over periods of delta^t u(r) accrued while replica r stayed in the
    admissible region; halt_periods[r] is the first period whose promise
    left the region, or -1.
    """
    seed, replicas, horizon = int(seed), int(replicas), int(horizon)
    delta, k_star, tol = float(delta), float(k_star), float(tol)
    v0, u_r, p_zero, gamma_base, affine, lam = (
        np.asarray(x, dtype=np.float64)
        for x in (v0, u_r, p_zero, gamma_base, affine, lam)
    )
    n = v0.shape[0]
    # Every live replica has accrued the same sum, so one running sum stands
    # for all of them and is copied out when a replica halts.
    accrued = np.zeros(n)
    totals = np.zeros((replicas, n))
    halt = np.full(replicas, -1, dtype=np.int64)
    live = np.arange(replicas)  # indices of the replicas still inside
    v = np.tile(v0, (replicas, 1))  # their promises, one row per live replica
    slots = np.arange(n)[:, None]
    bit_weights = np.int64(1) << np.arange(n)
    c = (1.0 - delta) / delta
    w = 1.0
    for t in range(horizon):
        lamdot = v[:, 0] * lam[0]
        for k in range(1, n):
            lamdot = lamdot + v[:, k] * lam[k]
        viol = (lamdot > k_star + tol) | (np.min(v, axis=1) < -tol)
        if np.any(viol):
            halt[live[viol]] = t
            totals[live[viol]] = accrued
            live = live[~viol]
            v = v[~viol]
            if live.size == 0:
                break
        accrued = accrued + w * u_r
        u = uniforms(seed, DOMAIN_PUBLIC, t, slots, live[None, :])
        idx = bit_weights @ (u >= p_zero[:, None])
        d = v - u_r
        shift = gamma_base[idx]
        for k in range(n):
            shift += affine[idx, :, k] * d[:, k : k + 1]
        v = v + c * shift
        w = w * delta
    totals[live] = accrued
    return totals, halt
