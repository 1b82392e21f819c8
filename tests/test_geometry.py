"""Exact polygon arithmetic and distance helpers."""

from fractions import Fraction

import numpy as np

from npdshare.geometry import (
    clip_polygon_halfplane,
    convex_hull_2d_exact,
    ensure_ccw,
    halfplane_intersection_2d,
    hausdorff_distance_polygons,
    point_in_hull,
    point_polygon_distance,
    polygon_area,
)


def _frac_points(pts):
    return [(Fraction(a), Fraction(b)) for a, b in pts]


def test_hull_drops_interior_points():
    poly = convex_hull_2d_exact(
        _frac_points([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 1)])
    )
    assert len(poly) == 4


def test_clip_square_to_triangle():
    square = _frac_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    poly = np.array(convex_hull_2d_exact(square), dtype=object)
    # x + y <= 2, exact on an object array of Fractions
    clipped = clip_polygon_halfplane(poly, (1, 1), 2)
    assert set(map(tuple, clipped)) == {(0, 0), (2, 0), (0, 2)}
    assert all(isinstance(c, Fraction) for c in clipped.flat)


def test_halfplane_intersection_unit_square():
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    offsets = np.array([1.0, 1.0, 0.0, 0.0])
    poly = ensure_ccw(halfplane_intersection_2d(normals, offsets, bound=100.0))
    assert abs(polygon_area(poly) - 1.0) < 1e-9
    corners = set(map(tuple, np.round(poly, 9)))
    assert corners == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


def test_hausdorff_known_value():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    b = a + np.array([0.25, 0.0])
    assert abs(hausdorff_distance_polygons(a, b) - 0.25) < 1e-12
    assert hausdorff_distance_polygons(a, a) == 0.0


def test_point_polygon_distance():
    sq = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert point_polygon_distance(np.array([3.0, 1.0]), sq) == 1.0
    assert point_polygon_distance(np.array([1.0, 1.0]), sq) == 0.0  # inside
    assert point_polygon_distance(np.array([3.0, 3.0]), sq) == np.sqrt(2.0)


def test_point_in_hull():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert point_in_hull(np.array([0.2, 0.2]), pts)
    assert not point_in_hull(np.array([0.8, 0.8]), pts)


def test_ensure_ccw_idempotent():
    cw = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    ccw = ensure_ccw(cw)
    assert polygon_area(ccw) > 0
    assert np.array_equal(ensure_ccw(ccw), ccw)
