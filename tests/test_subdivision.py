"""Lower hull subdivisions, checked against hand-computed cells and an
independent all-triples oracle."""

import dataclasses
import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from tropnewton.corpus import SplitMix64, random_lifted_support, staircase_support
from tropnewton.errors import (
    DegenerateHullError,
    DegenerateInputError,
    EmptySupportError,
    InternalCheckError,
    NotCoprimeError,
    RegularityCertificationError,
    SchemaError,
)
from tropnewton.lattice import LatticePoint, convex_hull, convex_hull_of_sorted, cross
from tropnewton.newton import (
    analyze_support,
    crossed_square_count,
    decompose_diagram,
    triangle_square_count,
)
from tropnewton.parsing import LiftedSupport, parse_germ, parse_puiseux_poly
from tropnewton import certificate, hull, subdivision, svg
from tropnewton.certificate import classify_cells_by_region
from tropnewton.hull import lower_hull_subdivision
from tropnewton.subdivision import separable_lifting, subdivide_diagram
from tropnewton.svg import render_svg
from tropnewton.tropical import dual_tropical_curve, verify_duality

from oracles import (
    Counted,
    brute_force_lower_hull,
    crossed_square_count_by_tests,
    rim_endpoint_count,
    triangle_square_count_by_tests,
)

QUINTIC = analyze_support(parse_germ("x^5+x^2*y^2+y^5").points)
CUSP = analyze_support(parse_germ("x^2+y^3").points)
NODE = analyze_support(parse_germ("x^2+y^2").points)


def poly_verts(sd):
    return {c.polygon.vertices for c in sd.cells}


def edge_split(heights):
    sd = lower_hull_subdivision(heights)
    return ([(e.a, e.b) for e in sd.interior_edges],
            [(e.a, e.b) for e in sd.boundary_edges])


def test_default_lifting_is_triangular_numbers():
    lift = separable_lifting(CUSP)
    assert lift.nu == parse_puiseux_poly(
        "1+tz+tw+t^3z^2+t^2zw+t^3w^2+t^6w^3").nu


def test_separable_lifting_keeps_one_object_per_height():
    # the heights of x^40 + y^41 take 336 values over 862 points, and a
    # Fraction height passes into LiftedSupport as it is
    heights = [h for _, h in separable_lifting(analyze_support([(40, 0), (0, 41)])).entries]
    assert len(heights) == 862 and len(set(heights)) == len({id(h) for h in heights}) == 336
    half = Fraction(1, 2)
    assert LiftedSupport.from_mapping({(0, 0): half, (1, 0): 1}).entries[0][1] is half


def test_separable_lifting_shares_the_diagram_points():
    nd = analyze_support([(5, 0), (0, 6)])
    points = {id(p) for p in nd.gamma_minus_lattice}
    entries = separable_lifting(nd).entries
    assert len(entries) == len(points) == 22
    assert all(id(p) in points for p, _ in entries)


def test_separable_lifting_takes_only_a_diagram():
    # i(i+1)/2 + j(j+1)/2, the kinked lifting at lam = 0; the corner
    # (2, 2) adds lam to each increment past it, a_3 = 3 + 49; points, a
    # support or anything else is a caller's mistake
    nd = analyze_support([(5, 0), (2, 2), (0, 5)])
    assert separable_lifting(nd).nu[(3, 1)] == 6 + 1
    assert subdivision._kinked_lifting(nd, 49).nu[(3, 1)] == (0 + 1 + 2 + 52) + 1
    for bad in ([(0, 0), (1, 0), (0, 1)], parse_germ("x^2+y^3"), None):
        with pytest.raises(SchemaError, match="^separable_lifting takes a NewtonDiagram, not "):
            separable_lifting(bad)


def test_cusp_subdivision_cells():
    sd = lower_hull_subdivision(separable_lifting(CUSP))
    expected = {
        ((0, 0), (1, 0), (1, 1), (0, 1)): (1, 1, 0),
        ((1, 0), (2, 0), (1, 1)): (2, 1, -1),
        ((0, 1), (1, 1), (0, 2)): (1, 2, -1),
        ((0, 3), (1, 1), (2, 0)): (6, 5, -9),
        ((0, 2), (1, 1), (0, 3)): (2, 3, -3),
    }
    got = {c.polygon.vertices: c.plane for c in sd.cells}
    assert got == {k: tuple(map(Fraction, v)) for k, v in expected.items()}
    kinds = sorted(c.kind for c in sd.cells)
    assert kinds == ["half_triangle"] * 4 + ["square"]
    assert len(sd.interior_edges) == 5
    assert len(sd.boundary_edges) == 6
    # the diagonal of the unit square joins two rim points on different
    # hull edges, yet it is an interior edge
    inner, rim = edge_split({(0, 0): 0, (1, 0): 1, (1, 1): 0, (0, 1): 1})
    assert inner == [((0, 0), (1, 1))]
    assert rim == [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))]
    # (1, 0) folds the bottom hull edge into two rim edges
    inner, rim = edge_split({(0, 0): 1, (1, 0): 0, (2, 0): 1, (1, 1): 1})
    assert inner == [((1, 0), (1, 1))]
    assert rim == [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((1, 0), (2, 0)), ((1, 1), (2, 0))]


def test_node_subdivision_cells():
    sd = lower_hull_subdivision(separable_lifting(NODE))
    assert poly_verts(sd) == {
        ((0, 0), (1, 0), (1, 1), (0, 1)),
        ((1, 0), (2, 0), (1, 1)),
        ((0, 1), (1, 1), (0, 2)),
    }
    gradients = {c.gradient for c in sd.cells}
    assert gradients == {(1, 1), (2, 1), (1, 2)}


def test_quintic_subdivision_and_classification():
    sd = lower_hull_subdivision(separable_lifting(QUINTIC))
    assert len(sd.cells) == 15
    assert sd.domain == convex_hull([(0, 0), (5, 0), (0, 5)])
    assert len(sd.vertices) == 17
    inside, clean = classify_cells_by_region(sd, QUINTIC.gamma_minus)
    assert clean
    assert len(inside) == 14
    kinds = sorted(sd.cells[c].kind for c in inside)
    assert kinds == ["half_triangle"] * 8 + ["square"] * 6
    squares = {sd.cells[c].polygon.vertices[0] for c in inside
               if sd.cells[c].kind == "square"}
    assert squares == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)}
    # the pocket between the boundary and its chord is the only cell out
    out = [c for c in range(len(sd.cells)) if c not in inside]
    assert len(out) == 1
    assert sd.cells[out[0]].polygon.vertices == ((0, 5), (2, 2), (5, 0))


def touching_squares(sdd) -> int:
    """Inside unit squares with a corner on the Newton boundary."""
    cells = sdd.subdivision.cells
    return sum(cells[c].kind == "square"
               and any(v in sdd.diagram.gamma_lattice for v in cells[c].polygon.vertices)
               for c in sdd.inside_cells)


def test_subdivide_diagram_counts():
    for nd, squares, touching in [(QUINTIC, 6, 1), (CUSP, 1, 0), (NODE, 1, 1)]:
        sdd = subdivide_diagram(nd)
        dec = decompose_diagram(nd)
        assert sdd.inside_kinds()["square"] == dec.square_count == squares
        assert touching_squares(sdd) == dec.touching_count == touching
        assert not sdd.used_fallback


def test_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        lower_hull_subdivision({(0, 0): 0, (1, 1): 1})
    with pytest.raises(DegenerateInputError):
        lower_hull_subdivision({(0, 0): 0, (1, 1): 1, (2, 2): 0})


# --- all-triples oracle -------------------------------------------------------

def brute_force_cells(heights):
    """Cell polygons of the lower hull, by the all-triples oracle."""
    return {verts for verts, _, _ in brute_force_lower_hull(heights)[0]}


def random_lifting(rng, npts, span=5, denom=4):
    pool = [(i, j) for i in range(span) for j in range(span)]
    while True:
        pts = rng.sample(pool, npts)
        try:
            convex_hull(pts)
        except DegenerateHullError:
            continue
        return {LatticePoint(*p): Fraction(rng.randrange(0, 12), rng.randrange(1, denom + 1))
                for p in pts}


def assert_matches_oracle(heights):
    sd = lower_hull_subdivision(heights)
    cells, interior, boundary = brute_force_lower_hull(heights)
    assert [(c.polygon.vertices, c.plane, c.tight) for c in sd.cells] == cells
    assert list(sd.interior_edges) == interior
    assert list(sd.boundary_edges) == boundary
    return sd


def test_hull_matches_all_triples_oracle():
    rng = random.Random(20260814)
    rational = inside_rim_edge = inside_cell_edge = 0
    for _ in range(300):
        heights = random_lifting(rng, rng.randrange(4, 13))
        sd = assert_matches_oracle(heights)
        rational += any(h.denominator > 1 for h in heights.values())
        inside_rim_edge += any(sd.domain.locate(p) == "boundary"
                               and p not in sd.domain.vertices for p in heights)
        inside_cell_edge += any(len(c.tight) > len(c.polygon.vertices) for c in sd.cells)
    # the draws must reach rational heights and points inside edges
    assert min(rational, inside_rim_edge, inside_cell_edge) > 0


def test_hull_oracle_on_ties_large_scales_and_late_winners():
    # an affine lifting of the 4x4 grid: one cell with all 16 points
    # tight, so every candidate test in the scan is a tie
    grid = {(i, j): Fraction(3 * i - 2 * j, 7) + 5 for i in range(4) for j in range(4)}
    sd = assert_matches_oracle(grid)
    assert len(sd.cells) == 1 and len(sd.cells[0].tight) == 16
    # heights up to 10^12 over denominators up to 10^6
    rng = random.Random(20261018)
    big_scale = 0
    for _ in range(40):
        heights = {p: Fraction(rng.randrange(10 ** 12), rng.randrange(1, 10 ** 6 + 1))
                   for p in random_lifting(rng, rng.randrange(4, 11))}
        assert_matches_oracle(heights)
        big_scale += lcm(*[h.denominator for h in heights.values()]) > 10 ** 12
    assert big_scale > 0
    # from the seed edge (0,0)->(2,0) the scan meets (0,2) first, then
    # (1,1), but the facet is the one through (2,2)
    heights = {(0, 0): 0, (2, 0): 0, (2, 2): 0, (0, 2): 1, (1, 1): 1}
    sd = assert_matches_oracle(heights)
    order = list(sd.lifting.nu)
    assert [p for p in order if cross((0, 0), (2, 0), p) > 0] == [(0, 2), (1, 1), (2, 2)]
    assert sd.cells[0].polygon.vertices == ((0, 0), (2, 0), (2, 2))


def tie_heavy_liftings(rng):
    """Liftings where the wrap's scan meets ties: affine grids, grids
    folded along lines through lattice points (lifted points inside the
    seed edge and inside interior edges), small-height grids with several
    points tied for the pick, and the late-winner support plus affine
    functions."""
    late = {(0, 0): 0, (2, 0): 0, (2, 2): 0, (0, 2): 1, (1, 1): 1}
    for _ in range(12):
        w, h = rng.randrange(2, 6), rng.randrange(2, 6)
        a, b, d = rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(1, 4)
        yield {(i, j): Fraction(a * i + b * j, d) for i in range(w) for j in range(h)}
        # a fold along a row, a column or a diagonal, over an affine base
        fold = rng.choice([lambda i, j: max(0, j - 1), lambda i, j: abs(i - 2),
                           lambda i, j: max(0, i - j), lambda i, j: max(i, j)])
        k = rng.randrange(1, 4)
        yield {(i, j): a * i + b * j + k * fold(i, j) for i in range(5) for j in range(4)}
        # heights 0 to 2 on a small grid: many coplanar points
        n = rng.randrange(3, 5)
        yield {(i, j): rng.choice([0, 0, 1, 2]) for i in range(n) for j in range(n)}
        yield {p: z + a * p[0] + b * p[1] for p, z in late.items()}


def test_hull_oracle_on_tie_heavy_liftings():
    rng = random.Random(20261019)
    inside_rim_edge = inside_cell_edge = shared = 0
    for heights in tie_heavy_liftings(rng):
        sd = assert_matches_oracle(heights)
        tight = [p for c in sd.cells for p in c.tight if p not in c.polygon.vertices]
        inside_cell_edge += bool(tight)
        inside_rim_edge += any(sd.domain.locate(p) == "boundary" for p in tight)
        shared += len(tight) > len(set(tight))
    # points inside rim edges and inside interior edges (tight in both
    # cells) must be reached
    assert min(inside_rim_edge, inside_cell_edge, shared) > 0


def test_hull_on_lifted_text_input():
    ls = parse_puiseux_poly("1+tz+tw+t^3z^2+t^2zw+t^3w^2+t^6w^3")
    sd = lower_hull_subdivision(ls)
    assert len(sd.cells) == 5


def test_hull_rejects_non_lattice_keys_as_input():
    with pytest.raises(SchemaError):
        lower_hull_subdivision({(Fraction(3, 2), Fraction(1, 2)): 5, (1, 0): 7,
                                (0, 1): 1, (0, 0): 0})


def test_hull_of_a_hand_built_lifting_with_tuple_keys():
    # the dent at (1, 1) splits the triangle into three cells around it
    sd = lower_hull_subdivision(LiftedSupport(
        (((0, 0), 0), ((3, 0), 0), ((0, 3), 0), ((1, 1), -1))))
    assert sorted(c.polygon.vertices for c in sd.cells) == [
        ((0, 0), (1, 1), (0, 3)), ((0, 0), (3, 0), (1, 1)), ((0, 3), (1, 1), (3, 0))]


# --- the fan prefilter --------------------------------------------------------

def fan_height(heights, p):
    """Height at p of the fan from the lowest lifted point (first in
    point order on ties) over the support hull's corners, in Fraction."""
    m = min(sorted(heights), key=lambda q: heights[q])
    corners = convex_hull(heights).vertices
    for u, v in zip(corners[-1:] + corners[:-1], corners):
        area = cross(m, u, v)
        if area <= 0:
            continue
        # barycentric weights of p in the triangle (m, u, v)
        wu, wv = Fraction(cross(m, p, v), area), Fraction(cross(m, u, p), area)
        if wu >= 0 and wv >= 0 and wu + wv <= 1:
            return (1 - wu - wv) * heights[m] + wu * heights[u] + wv * heights[v]
    raise AssertionError(f"{p} is in no fan triangle")


def assert_fan_prunes_exactly(monkeypatch, heights):
    """The hull matches the oracle, and the fan dropped exactly the
    points strictly above it, none of them tight.  Returns those points."""
    heights = {LatticePoint(*p): Fraction(h) for p, h in heights.items()}
    kept = []
    real = hull._under_fan

    def spy(pts3, corners):
        kept.append(real(pts3, corners))
        return kept[-1]

    monkeypatch.setattr(hull, "_under_fan", spy)
    sd = assert_matches_oracle(heights)
    dropped = set(heights) - set(kept[0])
    assert dropped == {p for p, h in heights.items() if h > fan_height(heights, p)}
    assert not dropped & {p for c in sd.cells for p in c.tight}
    return dropped


def bowl(rng, low, span=4):
    """Heights |p - low|^2 on the span x span grid, about half of them
    raised, so that low is the only lowest point."""
    return {(i, j): (i - low[0]) ** 2 + (j - low[1]) ** 2 + rng.choice([0, rng.randrange(1, 30)])
            for i in range(span) for j in range(span)}


def test_fan_from_a_corner_an_edge_and_the_interior(monkeypatch):
    # a corner drops two degenerate fan triangles, an edge point one,
    # an interior point none
    rng = random.Random(20261018)
    for low in [(0, 0), (3, 3), (2, 0), (0, 1), (1, 1), (2, 1)]:
        pruned = 0
        for _ in range(3):
            heights = bowl(rng, low)
            pruned += len(assert_fan_prunes_exactly(monkeypatch, heights))
        assert pruned > 0, low


def test_fan_with_tied_lowest_heights(monkeypatch):
    rng = random.Random(7)
    for lows in [[(0, 0), (3, 3)], [(2, 0), (1, 2), (3, 3)], [(3, 1), (0, 3)]]:
        for _ in range(3):
            heights = {(i, j): rng.randrange(1, 20) for i in range(4) for j in range(4)}
            heights.update(dict.fromkeys(lows, 0))
            assert_fan_prunes_exactly(monkeypatch, heights)
    # everything tied: every point lies on the fan and is kept
    flat = {(i, j): 3 for i in range(4) for j in range(4)}
    assert not assert_fan_prunes_exactly(monkeypatch, flat)


def test_fan_keeps_points_on_it(monkeypatch):
    # z = i + j at the lowest point and the corners: the fan is that plane.
    # (2,2) and (2,0) lie on it and are tight without being corners; (1,3)
    # is strictly above it and goes
    heights = {(0, 0): 0, (4, 0): 4, (4, 4): 8, (0, 4): 4,
               (2, 2): 4, (2, 0): 2, (1, 3): 5}
    assert assert_fan_prunes_exactly(monkeypatch, heights) == {(1, 3)}
    sd = lower_hull_subdivision(heights)
    assert [c.tight for c in sd.cells] == [
        ((0, 0), (0, 4), (2, 0), (2, 2), (4, 0), (4, 4))]
    # here the fan folds along the ray from (0,0) to (4,4): (2,2) lies on
    # the fan, so it stays, though the hull passes 4 below it
    heights = {(0, 0): 0, (4, 0): 0, (4, 4): 8, (0, 4): 0, (2, 2): 4, (1, 1): 3}
    assert assert_fan_prunes_exactly(monkeypatch, heights) == {(1, 1)}
    sd = lower_hull_subdivision(heights)
    assert all((2, 2) not in c.tight for c in sd.cells)


def test_fan_prunes_most_points_of_a_spike_field(monkeypatch):
    # low corners and a low centre under a field of high points
    rng = random.Random(3)
    heights = {(i, j): rng.randrange(10, 40) for i in range(6) for j in range(5)}
    heights.update({(0, 0): 1, (5, 0): 3, (5, 4): 2, (0, 4): 4, (3, 2): 0})
    dropped = assert_fan_prunes_exactly(monkeypatch, heights)
    assert len(heights) == 30 and len(dropped) == 25


def test_wrap_checks_each_plane_supports_the_kept_points(monkeypatch):
    # seeded from the whole bottom edge, the wrap's first plane is z = 0,
    # and (1,0) lies below it: the check must name the plane
    monkeypatch.setattr(hull, "_lower_chain_edge", lambda pts3, a, b: (a, b))
    heights = {(0, 0): 0, (1, 0): -5, (2, 0): 0, (2, 2): 0, (0, 2): 0}
    with pytest.raises(InternalCheckError, match="wrap produced a non-supporting plane"):
        lower_hull_subdivision(heights)


def wrapped(heights):
    """The wrap's output for a lifting, as ``_certify`` takes it; the
    untampered output passes."""
    lifting = LiftedSupport.from_mapping(heights)
    domain, pts3, scale, facets, lines = hull._wrap(lifting)
    certificate._certify(lifting, domain, pts3, scale, facets, lines)
    return pts3, scale, facets, lines


def test_certificate_fails_on_a_flat_fold():
    # the affine 4x4 grid is one cell; cut along its diagonal, the two
    # halves share one plane, so the diagonal does not fold
    pts3, scale, [(_, tight, plane)], lines = wrapped(
        {(i, j): 3 * i - 2 * j for i in range(4) for j in range(4)})
    halves = [tuple(p for p in tight if side(p)) for side in
              (lambda p: p.i >= p.j, lambda p: p.j >= p.i)]
    facets = [(convex_hull_of_sorted(t).vertices, t, plane) for t in halves]
    with pytest.raises(InternalCheckError,
                       match=r"inner edge \(0,0\)-\(3,3\) does not fold upward"):
        certificate._certify(None, None, pts3, scale, facets, lines)


def test_certificate_fails_on_a_loose_point_on_a_plane():
    # (2,2) lies on the fan, so it is kept, and 4 above both cells
    pts3, scale, facets, lines = wrapped(
        {(0, 0): 0, (4, 0): 0, (4, 4): 8, (0, 4): 0, (2, 2): 4})
    assert (2, 2) not in {p for _, tight, _ in facets for p in tight}
    pts3[LatticePoint(2, 2)] = (2, 2, 0)
    with pytest.raises(InternalCheckError, match="wrap produced a non-supporting plane"):
        certificate._certify(None, None, pts3, scale, facets, lines)


def test_certificate_fails_on_an_edge_claimed_twice_or_once():
    # the dent at (1, 1) makes three cells around it
    pts3, scale, facets, lines = wrapped({(0, 0): 0, (3, 0): 0, (0, 3): 0, (1, 1): -1})
    assert len(facets) == 3
    with pytest.raises(InternalCheckError, match="claimed by two cells"):
        certificate._certify(None, None, pts3, scale, facets + facets[:1], lines)
    with pytest.raises(InternalCheckError, match="has a cell on one side only"):
        certificate._certify(None, None, pts3, scale, facets[1:], lines)


def test_certificate_fails_on_a_tight_point_off_its_plane():
    # one cell, with (2,2) tight inside it; lifted off the plane after the
    # wrap, it breaks no fold, so only the tight-point check sees it
    lifting = LiftedSupport.from_mapping({(0, 0): 0, (4, 0): 4, (4, 4): 8, (0, 4): 4,
                                          (2, 2): 4, (2, 0): 2, (1, 3): 5})
    domain, pts3, scale, facets, lines = hull._wrap(lifting)
    assert [LatticePoint(2, 2) in tight for _, tight, _ in facets] == [True]
    pts3[LatticePoint(2, 2)] = (2, 2, 5)
    with pytest.raises(InternalCheckError,
                       match=re.escape("tight point (2,2) is off its cell's plane")):
        certificate._certify(lifting, domain, pts3, scale, facets, lines)


def test_certificate_fails_when_the_cells_do_not_tile():
    lifting = LiftedSupport.from_mapping({(0, 0): 0, (3, 0): 0, (0, 3): 0, (1, 1): -1})
    domain, pts3, scale, _, lines = hull._wrap(lifting)
    with pytest.raises(InternalCheckError, match="cells do not tile the support hull"):
        certificate._certify(lifting, domain, pts3, scale, [], lines)


def test_wrap_fails_on_an_edge_with_no_point_on_its_left(monkeypatch):
    # the first edge reversed has the outside of the domain on its left
    real = hull._lower_chain_edge
    monkeypatch.setattr(hull, "_lower_chain_edge",
                        lambda pts3, a, b: real(pts3, a, b)[::-1])
    with pytest.raises(InternalCheckError,
                       match="wrap edge has no support point on its left"):
        lower_hull_subdivision({(0, 0): 0, (3, 0): 0, (0, 3): 0, (1, 1): -1})


def test_wrap_fails_on_an_edge_that_is_not_a_facet_edge(monkeypatch):
    # (1,0) lifts onto the line from (0,0) to (2,0), so the facet found
    # from (0,0)->(1,0) has the edge (0,0)->(2,0) instead
    monkeypatch.setattr(hull, "_lower_chain_edge", lambda pts3, a, b: ((0, 0), (1, 0)))
    with pytest.raises(InternalCheckError, match="wrap edge is not a facet edge"):
        lower_hull_subdivision({(0, 0): 0, (1, 0): 1, (2, 0): 2, (2, 2): 0, (0, 2): 5})


def test_hull_of_seeded_liftings_is_pinned():
    # repr of 200 span-20 liftings of up to 120 points, as the
    # benchmark's liftings workload draws them: the subdivision and its
    # dual curve with each cell's plane and each vertex's position in
    # their integer forms, with the values they had before the fan
    # prefilter, and the duality report as it was before the per-vertex
    # integer triples
    rng = SplitMix64(1)
    digests = [hashlib.sha256() for _ in range(3)]
    for _ in range(200):
        sd = lower_hull_subdivision(random_lifted_support(rng, 20, 120))
        tc = dual_tropical_curve(sd)
        for digest, out in zip(digests, (sd, tc, verify_duality(tc))):
            digest.update(repr(out).encode())
    assert [d.hexdigest() for d in digests] == [
        "a94f25ab4c0fb700451d5e174bf72b3fba91a1778c43a6a82dca25ef74678887",
        "5c83e2b43bcdefc9b85c1f57a0fca3dcc7c110a08de0a077ce0b9f06b649643e",
        "149a71636b8e6d7228c5fcfcb9d54783d578aba4473004855f9822f706cc0a82"]


# --- squares by proof, the wrap over the pocket ---------------------------------

def square_hull(lifting):
    """The separable fast path, as ``_land`` runs it."""
    return certificate._certify(lifting, *subdivision._square_wrap(lifting))


def drawn_lifting(rng, points):
    """A separable lifting nu(i, j) = (a_0 + ... + a_i) + (b_0 + ... + b_j)
    of ``points``, with drawn strictly increasing increments, some of
    them fractional: the a's first, then the b's."""
    def sums(count):
        out, total, v = [], 0, Fraction(rng.between(-5, 5))
        for _ in range(count):
            total += v
            out.append(total)
            v += Fraction(rng.between(1, 6), rng.between(1, 3))
        return out

    sa, sb = sums(max(p[0] for p in points) + 1), sums(max(p[1] for p in points) + 1)
    return LiftedSupport.from_mapping({p: sa[p[0]] + sb[p[1]] for p in points})


def test_full_squares_are_cells_of_the_oracle():
    # the squares lemma: under a separable lifting with strictly
    # increasing increments, every unit square with its four corners in
    # the point set is a cell, and no other square is
    rng = SplitMix64(14)
    supports = [analyze_support(staircase_support(rng, 9, 9)).gamma_minus_lattice
                for _ in range(30)]
    for _ in range(10):
        w, h = rng.between(2, 7), rng.between(2, 7)
        supports.append([LatticePoint(i, j) for i in range(w) for j in range(h)])
    for pts in supports:
        lifting = drawn_lifting(rng, pts)
        full = {p for p in pts if {(p.i + 1, p.j), (p.i, p.j + 1), (p.i + 1, p.j + 1)} <= set(pts)}
        squares = {c.polygon.vertices[0] for c in lower_hull_subdivision(lifting).cells
                   if c.kind == "square"}
        assert full and squares == full, pts


def test_a_clean_separable_tiling_is_the_special_tiling():
    # the landing proof of ``_land``: under drawn strictly increasing
    # increments, every tiling of the region under the boundary (clean)
    # holds only unit squares and half-square triangles inside; of 50
    # draws on each of corpus seeds 1-3, 118 are clean and 32 are not
    rng = SplitMix64(29)
    outcomes = []
    for seed in (1, 2, 3):
        germs = SplitMix64(seed)
        for _ in range(50):
            nd = analyze_support(staircase_support(germs, 12, 12))
            sd = lower_hull_subdivision(drawn_lifting(rng, nd.gamma_minus_lattice))
            inside, clean = classify_cells_by_region(sd, nd.gamma_minus)
            if clean:
                assert {sd.cells[c].kind for c in inside} <= {"square", "half_triangle"}, nd
            outcomes.append(clean)
    assert (outcomes.count(True), outcomes.count(False)) == (118, 32)


def test_square_wrap_matches_the_oracle():
    # thin diagrams and the higher rungs have lines long enough to be
    # searched, along columns or along rows; drawn increments bend them
    rng = SplitMix64(1)
    supports = [staircase_support(rng, 12, 12) for _ in range(40)]
    supports += [[(n, 0), (0, n + 1)] for n in range(2, 21)]
    supports += [[(2, 0), (0, 41)], [(3, 0), (0, 29)], [(37, 0), (0, 2)], [(25, 0), (0, 3)],
                 [(2, 0), (1, 5), (0, 41)], [(33, 0), (4, 1), (0, 2)]]
    for support in supports:
        nd = analyze_support(support)
        for lifting in (separable_lifting(nd),
                        subdivision._kinked_lifting(nd, (nd.p + nd.q) ** 2),
                        drawn_lifting(rng, nd.gamma_minus_lattice)):
            assert repr(square_hull(lifting)) == repr(lower_hull_subdivision(lifting)), support


def test_square_wrap_certificate_catches_a_raised_interior_height():
    # the four squares at (2,2) are full, so the fast path builds them as
    # cells; raised by 1, (2,2) leaves the hull (the oracle covers it with
    # a quad), and the folds across the row and column through it fail
    nd = analyze_support([(6, 0), (0, 7)])
    heights = dict(separable_lifting(nd).nu)
    heights[LatticePoint(2, 2)] += 1
    tampered = LiftedSupport.from_mapping(heights)
    assert not any(LatticePoint(2, 2) in c.tight
                   for c in lower_hull_subdivision(tampered).cells)
    with pytest.raises(InternalCheckError,
                       match=re.escape("inner edge (2,2)-(2,3) does not fold upward")):
        square_hull(tampered)


def test_square_wrap_certificate_checks_each_fourth_corner():
    # raised by 1/3, (2,2) breaks its four squares (the oracle has 31
    # cells, the untampered lifting 27), yet every fold of the fast path's
    # 27 cells still goes upward; the square at (1,1) takes its plane from
    # its other three corners, and its fourth corner (2,2) is off it
    nd = analyze_support([(6, 0), (0, 7)])
    heights = dict(separable_lifting(nd).nu)
    heights[LatticePoint(2, 2)] += Fraction(1, 3)
    tampered = LiftedSupport.from_mapping(heights)
    assert len(lower_hull_subdivision(tampered).cells) == 31
    with pytest.raises(InternalCheckError,
                       match=re.escape("tight point (2,2) is off its cell's plane")):
        square_hull(tampered)


def test_square_wrap_scans_only_the_pocket(monkeypatch):
    # x^n + y^(n+1): the pocket is the rim and the points under the
    # hypotenuse, 2(p + q) - 3 points, and the wrap finds the p + q - 1
    # triangles there, each with one scan over the pocket
    scans = []
    real = hull._wrap_over

    def spy(points, *args):
        facets = real(points, *args)
        scans.append((len(points), len(facets)))
        return facets

    monkeypatch.setattr(subdivision, "_wrap_over", spy)
    for n in (40, 80):
        nd = analyze_support([(n, 0), (0, n + 1)])
        scans.clear()
        sd = square_hull(separable_lifting(nd))
        pq = nd.p + nd.q
        assert scans == [(2 * pq - 3, pq - 1)]
        assert len(sd.cells) == len(nd.gamma_minus_lattice) - 2


def test_nothing_from_the_wrap_to_the_figure_makes_a_fraction(monkeypatch):
    # the wraps hand over integer planes, _certify keeps each as integers,
    # and the dual curve, the duality check and the figure read the
    # vertices' integer triples: none of them makes a Fraction; a cell's
    # plane and a vertex's coords are made only when read
    made = []

    def counted(make):
        def spy(cls, *args, **kwargs):
            made.append(args)
            return make(cls, *args, **kwargs)
        return spy

    square = separable_lifting(analyze_support([(40, 0), (0, 41)]))
    general = random_lifted_support(SplitMix64(1), 20, 120)
    germ = parse_germ("x^11+x^7*y^3+x^5*y^4+x^3*y^5+x*y^7+y^8").points
    nd = analyze_support(germ)
    sdd = subdivide_diagram(nd)
    monkeypatch.setattr(svg, "analyze_support", lambda support: nd)
    monkeypatch.setattr(svg, "subdivide_diagram", lambda diagram: sdd)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted(Fraction.__new__)))
    if hasattr(Fraction, "_from_coprime_ints"):  # what Fraction arithmetic builds with
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted(Fraction._from_coprime_ints.__func__)))
    outs = [subdivision._square_wrap(square), hull._wrap(general)]
    sds = [certificate._certify(lifting, *out) for lifting, out in zip((square, general), outs)]
    reports = [verify_duality(dual_tropical_curve(sd)) for sd in sds]
    figures = [render_svg(germ, region=region) for region in svg.REGIONS]
    assert made == []
    assert all(r.ok for r in reports) and all(figures)
    for (_, _, scale, facets, _), sd in zip(outs, sds):
        facets = sorted(facets, key=lambda f: f[0])
        assert [c.plane for c in sd.cells] == [
            tuple(Fraction(num, n2 * scale) for num in (-n0, -n1, level))
            for _, _, (n0, n1, n2, level) in facets]
    assert len(sds[0].cells) == 860 and made


def test_line_pick_equals_the_flat_scan_on_any_edge(monkeypatch):
    # the line lemma holds for any two pocket points a and b, not only for
    # the edges the wrap pops: from a vertical unit edge of a full square,
    # the square's other side ties on one line, and an edge parallel to the
    # searched lines can have a long line on its left
    pockets = []
    real = hull._wrap_over

    def spy(points, *args):
        pockets.append(points)
        return real(points, *args)

    monkeypatch.setattr(subdivision, "_wrap_over", spy)
    rng = SplitMix64(16)
    for support in ([(2, 0), (0, 41)], [(37, 0), (0, 2)], [(3, 0), (1, 6), (0, 35)],
                    [(30, 0), (0, 20)]):
        nd = analyze_support(support)
        for lifting in (subdivision._kinked_lifting(nd, (nd.p + nd.q) ** 2),
                        drawn_lifting(rng, nd.gamma_minus_lattice)):
            pockets.clear()
            square_hull(lifting)
            [pocket] = pockets
            by_lines, flat = subdivision._line_pick(pocket), hull._scan_pick(pocket)
            points = list(pocket)
            pairs = [(a, b) for a in points for b in points
                     if abs(a.i - b.i) + abs(a.j - b.j) == 1]
            for _ in range(500):
                a, b = (points[k] for k in rng.sample(0, len(points) - 1, 2))
                pairs.append((a, b) if rng.below(2) else (b, a))
            for a, b in pairs:
                got, want = by_lines(a, b), flat(a, b)
                assert got[4] == want[4], (support, a, b)
                assert got[2] == want[2] == 0 or all(
                    Fraction(u, got[2]) == Fraction(v, want[2])
                    for u, v in zip(got[:2] + got[3:4], want[:2] + want[3:4])), (support, a, b)


def test_pocket_pick_searches_the_lines_of_a_thin_diagram(monkeypatch):
    # x^2 + y^1001: all 1504 points are in the pocket and 1002 facets are
    # wrapped from it, so a flat scan reads 1002 * 1504 = 1507008 points;
    # the pick reads a and b, the first least point of each long column
    # and its neighbour, the tests on the way there, and the short column
    real_lifted, real_wrap = hull._lifted, hull._wrap_over

    def lifted(lifting):
        domain, scale, pts3 = real_lifted(lifting)
        return domain, scale, {pt: Counted(p) for pt, p in pts3.items()}

    monkeypatch.setattr(subdivision, "_lifted", lifted)
    wraps = []

    def spy(points, *args):
        Counted.reads = 0
        facets = real_wrap(points, *args)
        wraps.append((len(points), len(facets), Counted.reads))
        return facets

    monkeypatch.setattr(subdivision, "_wrap_over", spy)
    nd = analyze_support([(2, 0), (0, 1001)])
    sd = square_hull(separable_lifting(nd))
    [(pocket, facets, reads)] = wraps
    assert (pocket, facets) == (1504, 1002)
    assert reads == 23388
    assert reads <= 0.02 * pocket * facets
    assert sum(cell.kind == "half_triangle" for cell in sd.cells) == facets


def test_a_missed_landing_locates_no_cell(monkeypatch):
    # the default lifting's skeleton misses the boundary, which is decided
    # before any point location; the kinked lifting then lands, with one
    # location per cell, on the subdivision it landed on before
    nd = analyze_support(parse_germ("x^11+x^7*y^3+x^5*y^4+x^3*y^5+x*y^7+y^8").points)
    region = type(nd.gamma_minus)
    real_locate, real_land = region.locate, subdivision._land
    located = []

    def locate(self, p):
        located.append(p)
        return real_locate(self, p)

    monkeypatch.setattr(region, "locate", locate)
    attempts = []

    def land(*args):
        located.clear()
        out = real_land(*args)
        attempts.append((out is not None, len(located)))
        return out

    monkeypatch.setattr(subdivision, "_land", land)
    sdd = subdivide_diagram(nd)
    assert sdd.used_fallback
    assert attempts == [(False, 0), (True, len(sdd.subdivision.cells))]
    assert hashlib.sha256(repr((sdd.subdivision, sdd.inside_cells)).encode()).hexdigest() \
        == "79a3cbc6f33c75d624a5107c24ea9f0d475c1b51ef7b1ae1651cfbc494ce3013"


# --- the domain and its boundary vertices --------------------------------------

def column_supports():
    """Supports with full vertical columns, with two columns, and with
    three points, plus the benchmark's random ones."""
    rng = SplitMix64(7)
    for _ in range(60):
        # every column a full run of at least two rows between its own ends
        cols = rng.sample(0, 9, rng.between(2, 5))
        yield {(i, lo + j) for i in cols for lo in [rng.below(4)]
               for j in range(rng.between(2, 6))}
    for _ in range(60):
        i0, i1 = rng.sample(0, 9, 2)
        yield ({(i0, j) for j in rng.sample(0, 9, rng.between(1, 6))}
               | {(i1, j) for j in rng.sample(0, 9, rng.between(2, 6))})
    for _ in range(60):
        cells = rng.sample(0, 63, 3)
        pts = {(c // 8, c % 8) for c in cells}
        if cross(*sorted(pts)) != 0:
            yield pts
    for _ in range(60):
        yield set(random_lifted_support(rng, 20, 120).points)


def chain_hull(pts):
    """Hull corners, counterclockwise from the smallest point, by a
    monotone chain that visits every point."""
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    pts = sorted(pts)
    return tuple(half(pts)[:-1] + half(pts[::-1])[:-1])


def test_domain_from_column_extremes_matches_the_full_hull():
    # the hull's chains visit only the lowest and the highest point of
    # each column; a chain over every point gives the same corners
    for pts in column_supports():
        heights = {p: (p[0] * 7 + p[1] * 3) % 5 for p in pts}
        sd = lower_hull_subdivision(heights)
        assert sd.domain == convex_hull(pts)
        assert sd.domain.vertices == chain_hull(pts)


def test_one_column_is_collinear():
    for heights in [{(2, j): j * j for j in range(5)}, {(0, 0): 0, (0, 1): 1, (0, 3): 0}]:
        with pytest.raises(DegenerateInputError, match="support points are collinear"):
            lower_hull_subdivision(heights)


def test_boundary_vertex_count_matches_locate():
    # corners (0,0), (4,0), (0,4); (2,0) inside the bottom edge and (2,2)
    # inside the long one; (1,1) inside the domain, all lifted as vertices
    sd = lower_hull_subdivision({(0, 0): 0, (4, 0): 0, (0, 4): 0, (2, 0): -1,
                                 (2, 2): -1, (1, 1): -3})
    assert set(sd.vertices) == {(0, 0), (4, 0), (0, 4), (2, 0), (2, 2), (1, 1)}
    assert sd.boundary_vertex_count() == rim_endpoint_count(sd) == 5
    # a vertex outside the domain, on the line of the bottom edge, is not on it
    moved = dataclasses.replace(sd, vertices=sd.vertices + (LatticePoint(6, 0),))
    assert moved.boundary_vertex_count() == rim_endpoint_count(moved) == 5
    rng = SplitMix64(3)
    for _ in range(100):
        sd = lower_hull_subdivision(random_lifted_support(rng, 20, 120))
        assert sd.boundary_vertex_count() == rim_endpoint_count(sd)


def test_boundary_vertex_count_matches_locate_on_diagrams():
    # diagram subdivisions have long axis edges full of vertices, which
    # random liftings rarely have: the ladder rungs x^n + y^(n+1) and the
    # germs of the default corpus (seed 1) that take the kinked lifting
    sds = [subdivide_diagram(analyze_support([(n, 0), (0, n + 1)])).subdivision
           for n in range(2, 13)]
    rng = SplitMix64(1)
    for _ in range(80):
        sdd = subdivide_diagram(analyze_support(staircase_support(rng, 12, 12)))
        if sdd.used_fallback:
            sds.append(sdd.subdivision)
    assert len(sds) > 11
    for sd in sds:
        assert sd.boundary_vertex_count() == rim_endpoint_count(sd)


# --- square counting lemmas ---------------------------------------------------

def test_triangle_square_count_small_values():
    assert triangle_square_count(2, 3) == 1
    assert triangle_square_count(1, 1) == 0
    assert triangle_square_count(3, 5) == 4
    assert triangle_square_count(4, 7) == 9


def test_crossed_square_count_small_values():
    assert crossed_square_count(2, 3) == 4
    assert crossed_square_count(1, 1) == 1
    assert crossed_square_count(5, 7) == 11


def test_square_count_identities():
    for p in range(1, 15):
        for q in range(1, 15):
            if gcd(p, q) != 1:
                continue
            below = triangle_square_count(p, q)
            crossed = crossed_square_count(p, q)
            assert 2 * below == (p - 1) * (q - 1)
            assert crossed == p + q - 1
            assert 2 * below + crossed == p * q


def test_square_counts_by_column_match_the_square_by_square_tests():
    for p in range(1, 41):
        for q in range(1, 41):
            if gcd(p, q) == 1:
                assert triangle_square_count(p, q) == triangle_square_count_by_tests(p, q)
                assert crossed_square_count(p, q) == crossed_square_count_by_tests(p, q)


def test_non_coprime_rejected():
    with pytest.raises(NotCoprimeError):
        triangle_square_count(2, 4)
    with pytest.raises(NotCoprimeError):
        crossed_square_count(6, 3)


def test_lemma_counts_match_full_hull():
    # the subdivision of x^p + y^q puts exactly the lemma's square count
    # inside the region under the boundary
    for p, q in [(2, 3), (3, 4), (3, 5), (4, 5), (2, 7)]:
        nd = analyze_support([(p, 0), (0, q)])
        sdd = subdivide_diagram(nd)
        assert sdd.inside_kinds().get("square", 0) == triangle_square_count(p, q)


# --- the kinked separable lifting ---------------------------------------------

def assert_special(sdd):
    """Inside cells are unit squares and half-square triangles that tile
    the region, with the decomposition's square and touching counts."""
    nd = sdd.diagram
    kinds = sdd.inside_kinds()
    assert set(kinds) <= {"square", "half_triangle"}
    assert kinds.get("square", 0) == decompose_diagram(nd).square_count
    assert touching_squares(sdd) == nd.branch_count - 1
    area = sum(sdd.subdivision.cells[c].polygon.area2 for c in sdd.inside_cells)
    assert area == nd.gamma_minus.area2


def default_lifting_lands(nd):
    sd = lower_hull_subdivision(separable_lifting(nd))
    inside, clean = classify_cells_by_region(sd, nd.gamma_minus)
    kinds = [sd.cells[c].kind for c in inside]
    return (clean and set(kinds) <= {"square", "half_triangle"}
            and kinds.count("square") == decompose_diagram(nd).square_count)


def corner_chains(n_edges, pq_max):
    """Every Newton boundary with exactly n_edges edges and p, q <= pq_max."""
    for p in range(2, pq_max + 1):
        for q in range(2, pq_max + 1):
            inner = [(x, y) for x in range(1, p) for y in range(1, q)]
            for corners in combinations(inner, n_edges - 1):
                nd = analyze_support([(0, q), *corners, (p, 0)])
                if len(nd.gamma_vertices) == n_edges + 1:
                    yield nd


def test_kinked_lifting_lands_on_every_small_chain():
    diagrams = [*corner_chains(2, 7), *corner_chains(3, 6)]
    assert len(diagrams) == 246
    kinked = 0
    for nd in diagrams:
        sdd = subdivide_diagram(nd)
        assert_special(sdd)
        assert sdd.used_fallback == (not default_lifting_lands(nd))
        kinked += sdd.used_fallback
    assert kinked > 0


def test_default_lifting_lands_on_every_single_edge_diagram():
    # a measurement that ``subdivide_diagram`` relies on, not a lemma; it
    # holds up to p, q <= 30 as well, at 30 times the cost
    for p in range(2, 13):
        for q in range(2, 13):
            sdd = subdivide_diagram(analyze_support([(p, 0), (0, q)]))
            assert not sdd.used_fallback, (p, q)
            assert_special(sdd)


def test_missed_lifting_raises(monkeypatch):
    monkeypatch.setattr(subdivision, "classify_cells_by_region",
                        lambda sd, region: ((), False))
    with pytest.raises(RegularityCertificationError) as exc:
        subdivide_diagram(QUINTIC)
    assert exc.value.details["chain"] == [(0, 5), (2, 2), (5, 0)]


def random_staircase(rng, max_pq=10):
    p = rng.randrange(2, max_pq + 1)
    q = rng.randrange(2, max_pq + 1)
    pts = [(0, q), (p, 0)]
    k = rng.randrange(0, 4)
    xs = sorted(rng.sample(range(1, p), min(k, p - 1)))
    ys = sorted(rng.sample(range(1, q), min(len(xs), q - 1)), reverse=True)
    pts.extend(zip(xs, ys))
    return pts


def test_subdivide_random_staircases():
    rng = random.Random(99)
    fallbacks = 0
    for _ in range(80):
        sdd = subdivide_diagram(analyze_support(random_staircase(rng)))
        fallbacks += sdd.used_fallback
        assert_special(sdd)
    # boundary bends routinely defeat the default lifting, so this suite
    # must exercise the kinked lifting as well
    assert fallbacks > 0
