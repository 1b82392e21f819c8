"""Dense oracles for the exact signal comparisons in ``npdshare.conditions``.

The package decides the rank conditions from the per-bit kernels.  These
helpers build the stacked 2**N-column signal matrices and row-reduce them
numerically, so tests can check the exact rule against an independent
computation, and force a spec's monitor or private kernel to values that
validation refuses.
"""

import numpy as np

from npdshare.monitoring import public_profile_distribution_raw

RANK_TOL = 1e-9  # pivot threshold, relative to the largest entry


def numeric_rank(matrix, tol: float = RANK_TOL) -> int:
    """Row-reduction rank with partial pivoting.

    A pivot counts iff its magnitude exceeds ``tol`` times the largest
    absolute entry of the original matrix.  The scan stops once no entry
    right of and below the last pivot exceeds that threshold, since no
    later column could then pivot.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("numeric_rank expects a 2-D matrix")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return 0
    threshold = tol * scale
    rows, cols = a.shape
    rank = 0
    row = 0
    for col in range(cols):
        pivot = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot, col]) <= threshold:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        factors = a[row + 1 :, col] / a[row, col]
        a[row + 1 :] -= factors[:, None] * a[row]
        rank += 1
        row += 1
        if row == rows or not np.any(np.abs(a[row:, col + 1 :]) > threshold):
            break
    return rank


def signal_matrix(actions, firms, alpha: float, epsilon: float) -> np.ndarray:
    """Public-signal distributions under each action (0, then 1) of each
    firm in ``firms`` in turn, the rest of ``actions`` fixed."""
    actions = np.asarray(actions, dtype=np.int64)
    rows = []
    for firm in firms:
        for a in (0, 1):
            prof = actions.copy()
            prof[firm] = a
            rows.append(public_profile_distribution_raw(prof, alpha, epsilon))
    return np.asarray(rows)


def with_monitor_kernel(spec, alpha: float, epsilon: float):
    """``spec`` with its monitor kernel set to (alpha, epsilon) past
    validation, which refuses every uninformative kernel (alpha == epsilon)."""
    object.__setattr__(spec, "monitor_alpha", alpha)
    object.__setattr__(spec, "monitor_epsilon", epsilon)
    return spec


def with_private_kernel(spec, alpha: float, epsilon: float):
    """``spec`` with the firms' private kernel set to (alpha, epsilon) past
    validation.  Give the spec its own monitor kernel first, or the monitor
    follows the private one."""
    object.__setattr__(spec, "alpha", alpha)
    object.__setattr__(spec, "epsilon", epsilon)
    return spec
