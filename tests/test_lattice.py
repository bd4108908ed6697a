import random
import re
from fractions import Fraction

import pytest

from tropnewton.corpus import SplitMix64
from tropnewton.errors import (
    DegenerateHullError,
    SchemaError,
    ZeroSegmentError,
)
from tropnewton.lattice import (
    ConvexPolygon,
    LatticePoint,
    LatticePolygon,
    convex_hull,
    convex_hull_of_sorted,
    cross,
    enumerate_lattice_points,
    lattice_key,
    lattice_length,
    lower_chain,
    on_segment,
    pick_interior_boundary,
    segment_lattice_points,
    segments_intersect,
    shoelace2,
)

from oracles import lower_chain_by_edges, primitive_direction, segments_cross_properly

QUINTIC_REGION = LatticePolygon([(0, 0), (5, 0), (2, 2), (0, 5)])
CUSP_REGION = LatticePolygon([(0, 0), (2, 0), (0, 3)])


def test_cross_orientation_signs():
    assert cross((0, 0), (1, 0), (0, 1)) == 1
    assert cross((0, 0), (0, 1), (1, 0)) == -1
    assert cross((0, 0), (2, 2), (4, 4)) == 0


def test_lattice_length_is_gcd_of_steps():
    assert lattice_length((0, 0), (4, 6)) == 2
    assert lattice_length((5, 0), (0, 5)) == 5
    assert lattice_length((2, 2), (5, 0)) == 1
    with pytest.raises(ZeroSegmentError):
        lattice_length((3, 3), (3, 3))


def test_segment_lattice_points_order_and_count():
    pts = segment_lattice_points((5, 0), (0, 5))
    assert pts == [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)]
    assert segment_lattice_points((0, 3), (2, 0)) == [(0, 3), (2, 0)]


def test_primitive_direction_handles_rationals():
    assert primitive_direction(Fraction(3, 2), Fraction(-9, 4)) == (2, -3)
    assert primitive_direction(0, -7) == (0, -1)
    assert primitive_direction(Fraction(-4), Fraction(6)) == (-2, 3)
    assert primitive_direction(-6, 4) == (-3, 2)
    assert primitive_direction(Fraction(-1, 2), 3) == (-1, 6)
    assert primitive_direction(4, Fraction(-2, 3)) == (6, -1)
    assert all(type(c) is int for c in primitive_direction(Fraction(3, 2), 6))
    with pytest.raises(ZeroSegmentError):
        primitive_direction(0, 0)
    with pytest.raises(ZeroSegmentError):
        primitive_direction(Fraction(0), 0)


def test_convex_hull_canonical_form():
    hull = convex_hull([(0, 0), (5, 0), (0, 5), (2, 2), (1, 1), (3, 1)])
    assert hull.vertices == ((0, 0), (5, 0), (0, 5))
    square = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert square.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert square.area2 == 2


def test_convex_hull_drops_collinear_boundary_points():
    hull = convex_hull([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4), (2, 4)])
    assert hull.vertices == ((0, 0), (4, 0), (4, 4), (0, 4))


def test_convex_hull_rejects_degenerate_input():
    with pytest.raises(DegenerateHullError):
        convex_hull([(0, 0), (1, 1), (2, 2), (5, 5)])
    with pytest.raises(DegenerateHullError):
        convex_hull([(1, 2), (1, 2)])


def test_three_point_hull_is_its_own_triangle():
    p, q, r = LatticePoint(0, 0), LatticePoint(1, 2), LatticePoint(3, 1)
    # (1,2) is left of (0,0)->(3,1): the triangle runs p, r, q
    assert convex_hull_of_sorted([p, q, r]).vertices == (p, r, q)
    assert convex_hull_of_sorted([p, LatticePoint(1, 0), r]).vertices == (p, (1, 0), r)
    assert convex_hull([q, r, p]) == convex_hull([q, r, p, (1, 1)])
    with pytest.raises(DegenerateHullError, match="all points collinear"):
        convex_hull_of_sorted([p, LatticePoint(1, 1), LatticePoint(2, 2)])


def test_trusted_hull_equals_validating_constructor():
    """The hull skips ConvexPolygon's checks; they must pass on it anyway.
    Point sets: general ones, 3-point ones, and collinear runs with an
    off-line point or two."""
    rng = SplitMix64(11)
    sets = []
    for _ in range(300):
        sets.append({(rng.below(12), rng.below(12)) for _ in range(rng.between(3, 14))})
        sets.append({(rng.below(12), rng.below(12)) for _ in range(3)})
        x0, y0 = rng.below(12), rng.below(12)
        dx, dy = rng.between(-2, 2), rng.between(-2, 2)
        run = {(x0 + k * dx, y0 + k * dy) for k in range(rng.between(2, 6))}
        sets.append(run | {(rng.below(12), rng.below(12))
                           for _ in range(rng.between(0, 2))})
    hulls = 0
    for pts in sets:
        try:
            hull = convex_hull_of_sorted(sorted(map(LatticePoint._make, pts)))
        except DegenerateHullError:
            continue
        hulls += 1
        assert hull == ConvexPolygon(hull.vertices)
        assert all(type(v) is LatticePoint for v in hull.vertices)
        assert set(hull.vertices) <= pts
        assert all(hull.locate(p) != "outside" for p in pts)
    assert hulls > 600


def test_lower_chain_matches_a_brute_force_walk():
    # seeded sorted point sets on a small grid, so columns repeat, and
    # collinear runs with a few points off them; both orders, as the hull
    # takes the upper chain from the reversed points
    rng = SplitMix64(22)
    sets = []
    for _ in range(150):
        sets.append({(rng.below(6), rng.below(6)) for _ in range(rng.between(2, 16))})
        x0, y0 = rng.below(6), rng.below(6)
        dx, dy = rng.between(-2, 2), rng.between(-2, 2)
        run = {(x0 + k * dx, y0 + k * dy) for k in range(rng.between(2, 7))}
        sets.append(run | {(rng.below(6), rng.below(6)) for _ in range(rng.below(3))})
    for pts in sets:
        pts = sorted(map(LatticePoint._make, pts))
        if len(pts) < 2:
            continue
        for seq in (pts, pts[::-1]):
            assert lower_chain(seq) == lower_chain_by_edges(seq), seq


def test_convex_hull_rejects_non_lattice_input():
    with pytest.raises(SchemaError, match=re.escape(
            "point (Fraction(1, 2), 0) is not a lattice point")):
        convex_hull([(Fraction(1, 2), 0), (1, 0), (0, 1)])
    assert convex_hull([(Fraction(2), 0), (1, 0.0), (0, 1)]).vertices == (
        (0, 1), (1, 0), (2, 0))


def test_lattice_key_checks_both_coordinates():
    for bad in [(1, Fraction(1, 2)), (Fraction(1, 2), 1), (2, 0.5)]:
        with pytest.raises(SchemaError, match="is not a lattice point"):
            lattice_key(bad)
        with pytest.raises(SchemaError, match="is not a lattice point"):
            segment_lattice_points((0, 0), bad)
    assert lattice_key((Fraction(2), 3)) == (2, 3)
    assert type(lattice_key((Fraction(2), 3.0)).j) is int


def test_polygon_classes_share_shape_but_not_equality():
    verts = [(0, 0), (2, 0), (0, 2)]
    convex, simple = ConvexPolygon(verts), LatticePolygon(verts)
    assert convex.vertices == simple.vertices
    assert list(convex.edges()) == list(simple.edges()) == [
        ((0, 0), (2, 0)), ((2, 0), (0, 2)), ((0, 2), (0, 0))]
    assert convex.area2 == simple.area2 == 4
    assert convex.bbox() == simple.bbox() == (0, 0, 2, 2)
    assert convex != simple and simple != convex
    assert convex == convex_hull(verts + [(1, 0)])
    assert hash(convex) == hash(simple) == hash(convex.vertices)
    assert repr(convex) == "ConvexPolygon([LatticePoint(i=0, j=0), " \
        "LatticePoint(i=2, j=0), LatticePoint(i=0, j=2)])"
    assert repr(simple) == "LatticePolygon" + repr(convex)[len("ConvexPolygon"):]
    for poly in (convex, simple):
        with pytest.raises(AttributeError, match=f"{type(poly).__name__} is immutable"):
            poly.vertices = ()
        assert not hasattr(poly, "__dict__")


def test_convex_polygon_validation():
    with pytest.raises(SchemaError, match=re.escape("strictly convex ccw at (2,0)")):
        ConvexPolygon([(0, 0), (2, 0), (4, 0), (0, 4)])  # collinear run
    with pytest.raises(SchemaError, match=re.escape("strictly convex ccw at (0,0)")):
        ConvexPolygon([(0, 0), (0, 4), (4, 0)])  # clockwise
    with pytest.raises(SchemaError, match=re.escape(
            "point (Fraction(3, 2), Fraction(2, 1)) is not a lattice point")):
        ConvexPolygon([(0, 0), (Fraction(3, 2), Fraction(2)), (0, 4)])
    # every turn is strictly left, yet the rings wind twice (a pentagram:
    # area2 26 and "outside" at (0,3), where the hull has 42 and "inside")
    # and three times (a 7-point star over a convex heptagon)
    heptagon = [(0, 0), (3, 0), (5, 2), (5, 4), (3, 6), (0, 5), (-2, 2)]
    for star in ([(0, 0), (5, 3), (-1, 3), (4, 0), (2, 5)],
                 [heptagon[3 * k % 7] for k in range(7)]):
        with pytest.raises(SchemaError, match="^vertices wind around more than once$"):
            ConvexPolygon(star)
        assert ConvexPolygon(convex_hull(star).vertices) == convex_hull(star)


def test_region_areas_match_hand_values():
    assert QUINTIC_REGION.area2 == 20
    assert CUSP_REGION.area2 == 6
    assert LatticePolygon([(0, 0), (2, 0), (0, 2)]).area2 == 4


def test_lattice_polygon_rejects_self_intersection():
    # the symmetric bowtie has zero signed area, so the area check fires first
    with pytest.raises(SchemaError, match="ccw with area > 0"):
        LatticePolygon([(0, 0), (4, 4), (4, 0), (0, 4)])
    with pytest.raises(SchemaError, match=re.escape(
            "self-intersection between edges (0,0)-(4,4) and (4,0)-(0,8)")):
        LatticePolygon([(0, 0), (4, 4), (4, 0), (0, 8)])


def test_lattice_polygon_rejects_spike():
    with pytest.raises(SchemaError, match=re.escape("boundary spike at (4,0)")):
        LatticePolygon([(0, 0), (4, 0), (2, 0), (2, 2)])


def test_polygons_need_three_vertices():
    for cls, message in [(ConvexPolygon, "convex polygon needs at least 3 vertices"),
                         (LatticePolygon, "polygon needs at least 3 vertices")]:
        for ring in [[], [(0, 0)], [(0, 0), (2, 0)]]:
            with pytest.raises(SchemaError, match=f"^{message}$"):
                cls(ring)


def test_lattice_polygon_rejects_a_repeated_vertex():
    # the three cases of the class docstring, each caught by another check
    for ring, message in [([(0, 0), (2, 0), (0, 0)], "ccw with area > 0"),
                          ([(0, 0), (2, 0), (2, 0), (0, 2)], "boundary spike at (2,0)"),
                          ([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)],
                           "self-intersection between edges (2,0)-(1,1) and (0,2)-(1,1)")]:
        with pytest.raises(SchemaError, match=re.escape(message)):
            LatticePolygon(ring)


def test_locate_on_nonconvex_staircase():
    stair = LatticePolygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)])
    assert stair.locate((2, Fraction(1, 2))) == "inside"
    assert stair.locate((2, 1)) == "boundary"
    assert stair.locate((2, 2)) == "outside"
    assert stair.locate((0, 0)) == "boundary"
    assert stair.locate((Fraction(1, 2), Fraction(5, 2))) == "inside"


def test_enumerate_interior_of_quintic_region():
    interior = [p for p in enumerate_lattice_points(QUINTIC_REGION)
                if QUINTIC_REGION.locate(p) == "inside"]
    assert interior == [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]


def test_enumerate_counts_on_cusp_region():
    assert len(enumerate_lattice_points(CUSP_REGION)) == 7
    assert [p for p in enumerate_lattice_points(CUSP_REGION)
            if CUSP_REGION.locate(p) == "inside"] == [(1, 1)]


def test_quintic_region_point_count():
    assert len(enumerate_lattice_points(QUINTIC_REGION)) == 17


def test_pick_theorem_on_random_convex_polygons():
    rng = random.Random(20260814)
    for _ in range(200):
        pts = {(rng.randrange(-12, 13), rng.randrange(-12, 13)) for _ in range(rng.randrange(3, 12))}
        try:
            hull = convex_hull(pts)
        except DegenerateHullError:
            continue
        interior, boundary = pick_interior_boundary(hull)
        assert hull.area2 == 2 * interior + boundary - 2


def test_hull_idempotence_and_containment():
    rng = random.Random(7)
    for _ in range(100):
        pts = [(rng.randrange(0, 15), rng.randrange(0, 15)) for _ in range(10)]
        try:
            hull = convex_hull(pts)
        except DegenerateHullError:
            continue
        again = convex_hull(hull.vertices)
        assert again == hull
        for p in pts:
            assert hull.locate(p) in ("inside", "boundary")


def test_segment_predicates():
    assert on_segment((2, 2), (0, 0), (4, 4))
    assert not on_segment((2, 3), (0, 0), (4, 4))
    assert segments_intersect((0, 0), (4, 4), (0, 4), (4, 0))
    assert segments_cross_properly((0, 0), (4, 4), (0, 4), (4, 0))
    # touching at an endpoint is intersection but not a proper crossing
    assert segments_intersect((0, 0), (2, 2), (2, 2), (5, 0))
    assert not segments_cross_properly((0, 0), (2, 2), (2, 2), (5, 0))
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))


def test_shoelace_sign():
    assert shoelace2([(0, 0), (1, 0), (1, 1), (0, 1)]) == 2
    assert shoelace2([(0, 0), (0, 1), (1, 1), (1, 0)]) == -2


def test_lattice_point_is_tuple_compatible():
    p = LatticePoint(2, 3)
    assert p == (2, 3)
    assert p.i == 2 and p.j == 3
    assert str(p) == "(2,3)"
