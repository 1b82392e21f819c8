"""LP oracle for ``npdshare.game.extreme_profiles``.

The package decides each discloser count exactly in the plane, by symmetry.
This oracle asks the question it replaces on all 2^N payoff vectors: is the
payoff of the profile where the first x firms disclose in the convex hull of
every payoff more than 1e-12 away from it, by a HiGHS feasibility LP with
tolerance 1e-9 (``geometry.point_in_hull``)?
"""

import numpy as np

from npdshare.game import all_profile_payoffs, all_profiles
from npdshare.geometry import point_in_hull


def lp_extreme_profiles(spec):
    n = spec.n_firms
    all_pts = all_profile_payoffs(spec)
    extreme_counts = []
    for x in range(n + 1):
        # The profile where the first x firms disclose: its bits, firm 1
        # most significant, are the row's index in all_profiles order.
        p = all_pts[2**n - 2 ** (n - x)]
        others = all_pts[np.any(np.abs(all_pts - p) > 1e-12, axis=1)]
        if others.size == 0 or not point_in_hull(p, others, tol=1e-9):
            extreme_counts.append(x)
    return [r for r in all_profiles(n) if sum(r) in extreme_counts]
