"""Convex geometry helpers.

Two-firm payoff sets are polygons, so this module carries exact rational
monotone-chain hulls, hull membership and Sutherland-Hodgman clipping for
them, plus float versions used by the half-space payoff-set approximation.
``game.extreme_profiles`` reduces its vertex question to exact 2-D
membership by symmetry, and the feasible hull reads its N > 2 vertices from
that answer, so no LP finds a vertex.  The one LP left is ``point_in_hull``
(a convex-combination feasibility test that no package path calls; the
tests' hull oracle does); ``linprog`` imports scipy on its first call, so
importing the package does not load it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call, so importing
    the package does not load scipy."""
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


# ---------------------------------------------------------------------------
# exact rational polygon operations (2-D)


def convex_hull_2d_exact(points):
    """Monotone chain on exact (Fraction, Fraction) pairs.

    Returns the hull CCW starting from the lexicographically smallest vertex;
    collinear interior points are dropped.  Degenerate inputs yield fewer
    than three vertices.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_convex_hull_2d_exact(point, points) -> bool:
    """Is ``point`` in conv(points), boundary included?  Exact on pairs of
    ints or Fractions; a hull of one or two vertices is a point or a
    segment.  False for no points."""
    hull = convex_hull_2d_exact(points)
    if len(hull) == 1:
        return point == hull[0]
    px, py = point

    def cross(o, a):
        return (a[0] - o[0]) * (py - o[1]) - (a[1] - o[1]) * (px - o[0])

    if len(hull) == 2:
        a, b = hull
        return (
            cross(a, b) == 0
            and min(a[0], b[0]) <= px <= max(a[0], b[0])
            and min(a[1], b[1]) <= py <= max(a[1], b[1])
        )
    return bool(hull) and all(
        cross(hull[k], hull[(k + 1) % len(hull)]) >= 0 for k in range(len(hull))
    )


def clip_polygon_halfplane_exact(poly, normal, offset):
    """Keep the part of a CCW polygon with normal . p >= offset (exact)."""
    if not poly:
        return []
    nx, ny = normal

    def side(p):
        return nx * p[0] + ny * p[1] - offset

    out = []
    m = len(poly)
    for i in range(m):
        cur, nxt = poly[i], poly[(i + 1) % m]
        s_cur, s_nxt = side(cur), side(nxt)
        if s_cur >= 0:
            out.append(cur)
        if (s_cur > 0 and s_nxt < 0) or (s_cur < 0 and s_nxt > 0):
            t = s_cur / (s_cur - s_nxt)
            out.append(
                (
                    cur[0] + t * (nxt[0] - cur[0]),
                    cur[1] + t * (nxt[1] - cur[1]),
                )
            )
    # drop exact duplicates introduced when a vertex lies on the boundary
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


# ---------------------------------------------------------------------------
# float polygon operations (2-D)


def _clip_float(poly: np.ndarray, normal, offset: float) -> np.ndarray:
    """Keep the part of a CCW polygon with normal . p <= offset."""
    if len(poly) == 0:
        return poly
    s = poly @ np.asarray(normal) - offset
    out = []
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        if s[i] <= 0:
            out.append(poly[i])
        if (s[i] < 0 < s[j]) or (s[j] < 0 < s[i]):
            t = s[i] / (s[i] - s[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out) if out else np.empty((0, 2))


def dedup_vertices(poly: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Merge consecutive vertices closer than tol (cyclically)."""
    if len(poly) == 0:
        return poly
    out = [poly[0]]
    for p in poly[1:]:
        if np.max(np.abs(p - out[-1])) > tol:
            out.append(p)
    if len(out) > 1 and np.max(np.abs(out[0] - out[-1])) <= tol:
        out.pop()
    return np.asarray(out)


def halfplane_intersection_2d(
    normals: np.ndarray, offsets: np.ndarray, bound: float, tol: float = 1e-9
) -> np.ndarray:
    """Intersect half-planes {v : normal_k . v <= offset_k} within a bounding box.

    Returns CCW vertices (possibly empty).  ``bound`` must exceed the extent
    of the true intersection so the box never truncates it.
    """
    poly = np.array(
        [[-bound, -bound], [bound, -bound], [bound, bound], [-bound, bound]],
        dtype=float,
    )
    for nrm, off in zip(np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float)):
        poly = _clip_float(poly, nrm, float(off))
        if len(poly) == 0:
            return poly
    return dedup_vertices(poly, tol)


def polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def ensure_ccw(poly: np.ndarray) -> np.ndarray:
    return poly[::-1] if polygon_area(poly) < 0 else poly


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def point_polygon_distance(p: np.ndarray, poly: np.ndarray) -> float:
    """Distance from a point to a convex CCW polygon (0 if inside)."""
    m = len(poly)
    if m == 0:
        return float("inf")
    if m == 1:
        return float(np.linalg.norm(p - poly[0]))
    if m >= 3:
        inside = True
        for i in range(m):
            a, b = poly[i], poly[(i + 1) % m]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross < 0:
                inside = False
                break
        if inside:
            return 0.0
    return min(
        point_segment_distance(p, poly[i], poly[(i + 1) % m]) for i in range(m)
    )


def hausdorff_distance_polygons(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between convex polygons.

    For convex sets the supremum of the (convex) distance function over
    either set is attained at a vertex, so vertex sweeps in both directions
    are exact.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d_ab = max(point_polygon_distance(p, b) for p in a)
    d_ba = max(point_polygon_distance(p, a) for p in b)
    return max(d_ab, d_ba)


# ---------------------------------------------------------------------------
# n-dimensional membership (an LP; scipy loaded on first use)


def point_in_hull(point: np.ndarray, points: np.ndarray, tol: float = 1e-9) -> bool:
    """Is ``point`` in conv(points)?  Feasibility LP over convex weights."""
    points = np.asarray(points, dtype=float)
    point = np.asarray(point, dtype=float)
    m, d = points.shape
    a_eq = np.vstack([points.T, np.ones((1, m))])
    b_eq = np.concatenate([point, [1.0]])
    res = linprog(
        c=np.zeros(m),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * m,
        method="highs",
    )
    if not res.success:
        return False
    recon = points.T @ res.x
    return bool(np.max(np.abs(recon - point)) <= tol)
