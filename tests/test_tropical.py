"""Dual tropical curves: construction, duality report, restriction."""

import dataclasses
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from tropnewton.errors import (
    DegenerateHullError,
    NonRegularInputError,
    NotCellUnionError,
    SchemaError,
)
from tropnewton.lattice import LatticePoint, convex_hull
from tropnewton.newton import (
    analyze_support,
    decompose_diagram,
    delta_invariant,
    milnor_number,
)
from tropnewton.parsing import parse_germ, parse_puiseux_poly
from tropnewton.certificate import Cell, RegularSubdivision, SubdivisionEdge
from tropnewton.hull import lower_hull_subdivision
from tropnewton.subdivision import subdivide_diagram
from tropnewton import certificate, subdivision, svg, tropical
from tropnewton.corpus import SplitMix64, random_lifted_support, staircase_support
from tropnewton.tropical import (
    _jump_direction,
    _ray_line,
    count_bounded_regions,
    count_four_valent,
    dual_tropical_curve,
    restrict,
    verify_duality,
)

from oracles import check_embedded, lattice_polygon, primitive_direction

QUINTIC = [(5, 0), (2, 2), (0, 5)]
CUSP = [(2, 0), (0, 3)]
NODE = [(2, 0), (0, 2)]


def curve_for(points):
    nd = analyze_support(points)
    sdd = subdivide_diagram(nd)
    return nd, sdd, dual_tropical_curve(sdd.subdivision)


def coords(tc, vid):
    return tuple(tc.vertices[vid].coords)


def segments(tc):
    return tuple(e for e in tc.edges if e.kind == "segment")


def rays(tc):
    return tuple(e for e in tc.edges if e.kind == "ray")


def test_single_triangle_curve():
    sd = lower_hull_subdivision(parse_puiseux_poly("1+tz+tw"))
    tc = dual_tropical_curve(sd)
    assert len(tc.vertices) == 1
    assert coords(tc, 0) == (1, 1)
    assert tc.vertices[0].valence == 3
    assert segments(tc) == ()
    assert sorted(e.direction for e in rays(tc)) == [(-1, 0), (0, -1), (1, 1)]
    assert all(e.weight == 1 for e in rays(tc))
    rep = verify_duality(tc)
    assert rep.ok
    assert (rep.complement_components, rep.bounded_components,
            rep.unbounded_components) == (3, 0, 3)
    assert check_embedded(tc) == ()


def test_cusp_curve_matches_hand_drawn_picture():
    nd, sdd, tc = curve_for(CUSP)
    got = sorted(tuple(v.coords) for v in tc.vertices)
    assert got == [(1, 1), (1, 2), (2, 1), (2, 3), (6, 5)]

    # five segments closing into a single pentagon
    segs = {frozenset((coords(tc, a), coords(tc, b)))
            for a, b in (e.endpoints for e in segments(tc))}
    assert segs == {
        frozenset(((1, 1), (2, 1))), frozenset(((1, 1), (1, 2))),
        frozenset(((1, 2), (2, 3))), frozenset(((2, 3), (6, 5))),
        frozenset(((2, 1), (6, 5)))}
    assert all(e.weight == 1 for e in tc.edges)

    anchored = sorted((e.direction, coords(tc, e.endpoints[0])) for e in rays(tc))
    assert anchored == [
        ((-1, 0), (1, 1)), ((-1, 0), (1, 2)), ((-1, 0), (2, 3)),
        ((0, -1), (1, 1)), ((0, -1), (2, 1)), ((3, 2), (6, 5))]

    rep = verify_duality(tc)
    assert rep.ok and rep.violations == ()
    assert rep.complement_components == 7 == rep.subdivision_vertex_count
    assert (rep.bounded_components, rep.unbounded_components) == (1, 6)
    assert check_embedded(tc) == ()


def test_node_curve_has_parallel_rays_on_distinct_lines():
    nd, sdd, tc = curve_for(NODE)
    assert sorted(tuple(v.coords) for v in tc.vertices) == [(1, 1), (1, 2), (2, 1)]
    assert len(segments(tc)) == 2
    diag = [e for e in rays(tc) if e.direction == (1, 1)]
    assert len(diag) == 2
    anchors = {coords(tc, e.endpoints[0]) for e in diag}
    assert anchors == {(2, 1), (1, 2)}
    rep = verify_duality(tc)
    assert rep.ok
    # the two parallel rays bound separate ends, so all six count
    assert (rep.bounded_components, rep.unbounded_components) == (0, 6)
    assert check_embedded(tc) == ()


def test_quintic_curve_complement_split():
    nd, sdd, tc = curve_for(QUINTIC)
    assert len(tc.vertices) == 15
    assert len(segments(tc)) == 20
    assert len(rays(tc)) == 11
    rep = verify_duality(tc)
    assert rep.ok
    assert rep.complement_components == 17
    assert (rep.bounded_components, rep.unbounded_components) == (6, 11)
    assert (rep.interior_vertex_count, rep.boundary_vertex_count) == (6, 11)
    assert check_embedded(tc) == ()


def test_tampered_quintic_curve_reports_each_violation():
    nd, sdd, tc = curve_for(QUINTIC)
    edges, v0 = tc.edges, tc.vertices[0]
    assert edges[0].endpoints == (0, 1) and edges[20].direction == (-1, 0)

    def report(**changes):
        rep = verify_duality(dataclasses.replace(tc, **changes))
        return rep.violations, (rep.complement_components, rep.bounded_components,
                                rep.unbounded_components)

    heavier = edges[0]._replace(weight=2)
    assert report(edges=(heavier,) + edges[1:]) == ((
        "edge 0: weight differs from dual lattice length",
        "vertex 0: balancing sum (0, 1)",
        "vertex 1: balancing sum (0, -1)"), (17, 6, 11))
    # edge 0's dual edge collapsed onto its end (0,1): a violation of that
    # edge, not a ZeroSegmentError
    collapsed = edges[0]._replace(dual_edge=edges[0].dual_edge._replace(b=LatticePoint(0, 1)))
    assert edges[0].dual_edge.a == (0, 1)
    assert report(edges=(collapsed,) + edges[1:]) == ((
        "edge 0: zero length dual edge",), (17, 6, 11))
    inward = edges[20]._replace(direction=(1, 0))
    assert report(edges=edges[:20] + (inward,) + edges[21:]) == ((
        "edge 20: ray points into the polygon",
        "vertex 0: balancing sum (2, 0)"), (17, 6, 11))
    # vertex 0 moved by (1/3, 0): its triple (X, Y, D) becomes (3X + D, 3Y, 3D)
    x, y, d = v0.triple
    moved = v0._replace(triple=(3 * x + d, 3 * y, 3 * d))
    assert moved.coords == (v0.coords[0] + Fraction(1, 3), v0.coords[1])
    assert report(vertices=(moved,) + tc.vertices[1:]) == ((
        "edge 0: not orthogonal to dual edge",
        "vertex 0: balancing sum (-1, 2)",
        "vertex 1: balancing sum (1, -2)"), (17, 6, 11))
    assert report(edges=edges[1:]) == ((
        "vertex 0: valence 3 but 4 dual sides",
        "vertex 0: balancing sum (0, -1)",
        "vertex 1: valence 3 but 4 dual sides",
        "vertex 1: balancing sum (0, 1)",
        "complement count 16 differs from 17 subdivision vertices",
        "complement split (5, 11) differs from subdivision vertex split (6, 11)"),
        (16, 5, 11))
    assert report(edges=edges + (edges[20],)) == ((
        "vertex 0: valence 5 but 4 dual sides",
        "vertex 0: balancing sum (-1, 0)",
        "coincident rays share direction and line"), (17, 6, 11))
    # vertex 0 onto its neighbour across edge 0: that segment has no length,
    # and vertex 0's ray (-1, 0) now runs along vertex 1's
    onto = v0._replace(triple=tc.vertices[1].triple)
    assert report(vertices=(onto,) + tc.vertices[1:]) == ((
        "edge 0: zero length segment",
        "edge 6: not orthogonal to dual edge",
        "vertex 0: balancing sum (0, -2)",
        "vertex 1: balancing sum (0, 1)",
        "vertex 7: balancing sum (0, 1)",
        "coincident rays share direction and line",
        "complement count 16 differs from 17 subdivision vertices",
        "complement split (6, 10) differs from subdivision vertex split (6, 11)"),
        (16, 6, 10))


def test_collapsed_subdivision_edge_is_reported_not_raised():
    # a hand-built subdivision whose first interior or boundary edge has
    # collapsed onto its first end: the curve gives that edge weight 0
    # (a ray, no direction), and the report names it
    nd, sdd, tc = curve_for(QUINTIC)
    sd = tc.subdivision
    inner, rim = sd.interior_edges[0], sd.boundary_edges[0]
    collapsed = dataclasses.replace(sd, interior_edges=(inner._replace(b=inner.a),)
                                    + sd.interior_edges[1:])
    assert verify_duality(dual_tropical_curve(collapsed)).violations == (
        "edge 0: zero length dual edge",
        "vertex 0: balancing sum (0, -1)",
        "vertex 1: balancing sum (0, 1)")
    collapsed = dataclasses.replace(sd, boundary_edges=(rim._replace(b=rim.a),)
                                    + sd.boundary_edges[1:])
    tc = dual_tropical_curve(collapsed)
    assert (tc.edges[20].direction, tc.edges[20].weight) == ((0, 0), 0)
    assert verify_duality(tc).violations == (
        "edge 20: zero length dual edge",
        "edge 20: ray points into the polygon",
        "vertex 0: balancing sum (1, 0)")


def test_edges_orthogonal_to_duals_with_lattice_length_weights():
    nd, sdd, tc = curve_for(QUINTIC)
    for e in tc.edges:
        d = (e.dual_edge.b.i - e.dual_edge.a.i, e.dual_edge.b.j - e.dual_edge.a.j)
        if e.kind == "segment":
            g1 = tc.vertices[e.endpoints[0]].coords
            g2 = tc.vertices[e.endpoints[1]].coords
            assert (g2[0] - g1[0]) * d[0] + (g2[1] - g1[1]) * d[1] == 0
        else:
            assert e.direction[0] * d[0] + e.direction[1] * d[1] == 0
    # the hypotenuse of the pocket cell dualizes to the weight 5 ray
    heavy = [e for e in rays(tc) if e.weight == 5]
    assert len(heavy) == 1
    assert heavy[0].direction == (1, 1)
    assert coords(tc, heavy[0].endpoints[0]) == (9, 9)


def test_valence_equals_dual_side_count():
    for pts in (QUINTIC, CUSP, NODE):
        nd, sdd, tc = curve_for(pts)
        for v in tc.vertices:
            sides = len(sdd.subdivision.cells[v.dual_cell].polygon.vertices)
            assert v.valence == sides


def test_restrict_to_full_domain_keeps_everything():
    nd, sdd, tc = curve_for(QUINTIC)
    sc = restrict(tc, sdd.subdivision.domain)
    assert len(sc.vprime) == len(tc.vertices)
    assert len(sc.full_segments) == len(segments(tc))
    assert sc.half_edges == ()
    assert len(sc.rays) == len(rays(tc))


def test_quintic_restriction_to_newton_region():
    nd, sdd, tc = curve_for(QUINTIC)
    sc = restrict(tc, nd.gamma_minus)
    assert len(sc.vprime) == 14
    assert len(sc.full_segments) == 18
    assert len(sc.rays) == 10
    # two pruned segments, both cut toward the pocket cell vertex (9, 9)
    halves = [tc.edges[k] for k in sc.half_edges]
    assert all(e.kind == "segment" for e in halves)
    assert sorted(len(set(e.endpoints) & set(sc.vprime)) for e in halves) == [1, 1]
    mids = sorted(tuple((a + b) / 2 for a, b in zip(*(coords(tc, v) for v in e.endpoints)))
                  for e in halves)
    assert mids == [(Fraction(15, 2), 8), (8, Fraction(15, 2))]
    assert {tuple(e.dual_edge.a) + tuple(e.dual_edge.b) for e in halves} \
        == {(0, 5, 2, 2), (2, 2, 5, 0)}
    assert count_four_valent(sc) == 6
    assert count_bounded_regions(sc) == 5
    assert milnor_number(nd) == 6 + 5


def test_cusp_and_node_restriction_counts():
    for pts, v, r in ((CUSP, 1, 1), (NODE, 1, 0)):
        nd, sdd, tc = curve_for(pts)
        sc = restrict(tc, nd.gamma_minus)
        assert count_four_valent(sc) == v
        assert count_bounded_regions(sc) == r
        assert milnor_number(nd) == v + r


def test_restrict_to_single_cell():
    nd, sdd, tc = curve_for(CUSP)
    square = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    sc = restrict(tc, square)
    assert len(sc.vprime) == 1
    assert coords(tc, sc.vprime[0]) == (1, 1)
    assert sc.full_segments == ()
    assert len(sc.half_edges) == 2
    assert len(sc.rays) == 2
    assert count_four_valent(sc) == 1
    assert count_bounded_regions(sc) == 0


def test_restrict_to_non_convex_union_of_squares():
    nd, sdd, tc = curve_for(QUINTIC)
    ell = lattice_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    sc = restrict(tc, ell)
    assert len(sc.vprime) == 3
    assert count_four_valent(sc) == 3
    assert count_bounded_regions(sc) == 0


def test_a_straight_through_vertex_changes_nothing():
    # a LatticePolygon keeps a vertex that lies between its neighbours on
    # a straight run; the region, its boundary steps and its sub-curve
    # are those of the polygon without it
    nd, sdd, tc = curve_for(QUINTIC)
    for plain, extra in [
            ([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
             [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1)]),
            ([(0, 0), (5, 0), (2, 2), (0, 5)],
             [(0, 0), (3, 0), (5, 0), (2, 2), (0, 5), (0, 2)])]:
        a, b = lattice_polygon(plain), lattice_polygon(extra)
        assert len(b.vertices) == len(extra)
        assert b.area2 == a.area2
        grid = [(Fraction(i, 2), Fraction(j, 2)) for i in range(-1, 12) for j in range(-1, 12)]
        assert [b.locate(pt) for pt in grid] == [a.locate(pt) for pt in grid]

        def steps(poly):
            return sorted(s for u, w in poly.edges() for s in certificate._unit_steps(u, w))

        assert steps(b) == steps(a)
        assert restrict(tc, b) == restrict(tc, a)


def test_restrict_rejects_region_cutting_cells():
    nd, sdd, tc = curve_for(QUINTIC)
    for region in (convex_hull([(0, 0), (1, 0), (0, 1)]),
                   # the L above with its notch cut diagonally
                   lattice_polygon([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)]),
                   # reaches past the domain
                   convex_hull([(0, 0), (6, 0), (0, 6)])):
        with pytest.raises(NotCellUnionError):
            restrict(tc, region)


def test_restrict_rejects_what_is_not_a_region():
    # an empty tuple, a bare ring of points and None are no polygon the
    # package built; each is the caller's mistake, named as one
    nd, sdd, tc = curve_for(QUINTIC)
    for region in ((), [(0, 0), (1, 0), (0, 1)], None):
        with pytest.raises(SchemaError, match=r"nd\.gamma_minus, sd\.domain or a convex_hull"):
            restrict(tc, region)


def test_equal_adjacent_gradients_rejected():
    flat = (0, 0, 0, 1)  # z = 0
    sq = [convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)]),
          convex_hull([(1, 0), (2, 0), (2, 1), (1, 1)])]
    cells = tuple(Cell(p, flat, tuple(p.vertices)) for p in sq)
    sd = RegularSubdivision(
        lifting=None,
        domain=convex_hull([(0, 0), (2, 0), (2, 1), (0, 1)]),
        cells=cells,
        interior_edges=(SubdivisionEdge(LatticePoint(1, 0), LatticePoint(1, 1),
                                        (0, 1)),),
        boundary_edges=(),
        vertices=(LatticePoint(0, 0), LatticePoint(1, 0), LatticePoint(2, 0),
                  LatticePoint(0, 1), LatticePoint(1, 1), LatticePoint(2, 1)))
    with pytest.raises(NonRegularInputError, match=r"cells 0 and 1 share the gradient "
                       r"\(Fraction\(0, 1\), Fraction\(0, 1\)\)"):
        dual_tropical_curve(sd)


# --- property suites ---------------------------------------------------------

def random_staircase(rng):
    p = rng.randint(2, 9)
    q = rng.randint(2, 9)
    pts = {(p, 0), (0, q)}
    for _ in range(rng.randint(0, 4)):
        pts.add((rng.randint(1, max(1, p - 1)), rng.randint(1, max(1, q - 1))))
    return sorted(pts)


def assert_keeps_everything(tc, domain):
    """restrict(tc, domain) keeps every vertex, segment and ray, in edge
    order, and cuts nothing.  The full-region figure cuts its sub-curve
    from every cell id without classifying a cell; this is the oracle
    that says the domain's restriction is that sub-curve."""
    sc = restrict(tc, domain)
    assert sc.vprime == tuple(range(len(tc.vertices)))
    assert sc.full_segments == tuple(k for k, e in enumerate(tc.edges)
                                     if e.kind == "segment")
    assert sc.rays == tuple(k for k, e in enumerate(tc.edges) if e.kind == "ray")
    assert sc.half_edges == ()


def test_duality_and_restriction_on_random_diagrams():
    rng = random.Random(424242)
    for _ in range(40):
        nd = analyze_support(random_staircase(rng))
        sdd = subdivide_diagram(nd)
        tc = dual_tropical_curve(sdd.subdivision)
        rep = verify_duality(tc)
        assert rep.ok, rep.violations
        assert check_embedded(tc) == ()
        assert_keeps_everything(tc, sdd.subdivision.domain)
        sc = restrict(tc, nd.gamma_minus)
        dec = decompose_diagram(nd)
        assert count_four_valent(sc) == dec.square_count
        assert count_bounded_regions(sc) == nd.interior_lattice_count
        assert milnor_number(nd) == count_four_valent(sc) + count_bounded_regions(sc)


def random_lifting(rng, npts, span=5, denom=4):
    pool = [(i, j) for i in range(span) for j in range(span)]
    while True:
        pts = rng.sample(pool, npts)
        try:
            convex_hull(pts)
        except DegenerateHullError:
            continue
        return {p: Fraction(rng.randint(0, 6 * denom), denom) for p in pts}


def test_duality_on_random_liftings():
    rng = random.Random(20260814)
    for _ in range(50):
        sd = lower_hull_subdivision(random_lifting(rng, rng.randint(4, 10)))
        tc = dual_tropical_curve(sd)
        rep = verify_duality(tc)
        assert rep.ok, rep.violations
        assert check_embedded(tc) == ()
        assert_keeps_everything(tc, sd.domain)


def test_integer_directions_and_ray_lines_match_the_fraction_forms():
    """On the benchmark's liftings (span 20, up to 120 points), seeds 1-3:
    each vertex's integer triple against its cell's gradient, and segment
    jumps, ray line keys and ray directions, taken from the triples as
    ``verify_duality`` takes them, against the ``Fraction`` forms they
    replace."""
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        for _ in range(500):
            sd = lower_hull_subdivision(random_lifted_support(rng, 20, 120))
            tc = dual_tropical_curve(sd)
            for v in tc.vertices:
                x, y, d = v.triple
                assert d > 0 and gcd(x, y, d) == 1
                assert (Fraction(x, d), Fraction(y, d)) == sd.cells[v.dual_cell].gradient
            for e in segments(tc):
                t1, t2 = (tc.vertices[v].triple for v in e.endpoints)
                g1, g2 = (tc.vertices[v].coords for v in e.endpoints)
                assert _jump_direction(t1, t2) == primitive_direction(
                    g2[0] - g1[0], g2[1] - g1[1])
                assert _jump_direction(t1, t1) == (0, 0)
            n = len(sd.domain.vertices)
            avg = (Fraction(sum(v.i for v in sd.domain.vertices), n),
                   Fraction(sum(v.j for v in sd.domain.vertices), n))
            for e in rays(tc):
                a, b = e.dual_edge.a, e.dual_edge.b
                out = primitive_direction(a.j - b.j, b.i - a.i)
                mid = (Fraction(a.i + b.i, 2), Fraction(a.j + b.j, 2))
                if out[0] * (mid[0] - avg[0]) + out[1] * (mid[1] - avg[1]) < 0:
                    out = (-out[0], -out[1])
                assert e.direction == out
                dx, dy = out
                anchor = tc.vertices[e.endpoints[0]]
                ax, ay = anchor.coords
                offset = dx * ay - dy * ax
                assert _ray_line(dx, dy, anchor.triple) == (
                    dx, dy, offset.numerator, offset.denominator)


# --- the formula beyond unit squares -------------------------------------------

FORMS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)]


def convex_sum_lifting(draw, points) -> dict:
    """A sum of 2 to 4 strictly convex functions of the lattice forms
    ``FORMS``, each an integer function with strictly increasing steps."""
    heights = dict.fromkeys(points, 0)
    for _ in range(draw.randint(2, 4)):
        a, b = draw.choice(FORMS)
        ts = [a * pt.i + b * pt.j for pt in points]
        g, step = {min(ts): 0}, draw.randint(-6, 6)
        for t in range(min(ts) + 1, max(ts) + 1):
            g[t] = g[t - 1] + step
            step += draw.randint(1, 4)
        for pt, t in zip(points, ts):
            heights[pt] += g[t]
    return heights


def test_formula_defect_on_subdivisions_with_every_lattice_point_a_vertex():
    """mu - (v + r) = delta - v on every subdivision of the region R
    under the boundary that is a union of cells and has every lattice
    point of R as a vertex: on them the verdicts mu = v + r and
    delta = v are one statement.

    Proof, by Pick's theorem.  r is the cycle rank E - F + 1 of the
    graph of the F cells inside R and the E interior edges between them.
    By Euler's formula for the disk R tiled by those cells, E - F + 1 is
    the number of subdivision vertices interior to R, which here is I,
    the number of lattice points interior to R.  R's boundary holds
    B = p + q + l lattice points, l the lattice length of the boundary
    chain, so Pick's theorem gives 2A = 2I + p + q + l - 2 for the area
    A of R.  Kouchnirenko's mu = 2A - p - q + 1 is then 2I + l - 1, and
    with l branches delta = (mu + l - 1)/2 = I + l - 1.  So mu - r =
    I + l - 1 = delta, which is the identity.

    Each inside cell is an empty lattice polygon, so a unimodular
    triangle or a parallelogram of area 1, and v counts the
    parallelograms.  The bound v <= delta is asserted on this family
    only; it is not proved.  The family reaches v = delta with
    parallelograms that are not unit squares, which the special
    subdivision never uses.
    """
    rng, draw = SplitMix64(7), random.Random(5)
    kept = reached = 0
    for _ in range(300):
        nd = analyze_support(staircase_support(rng, 7, 7))
        points = nd.gamma_minus_lattice
        sd = lower_hull_subdivision(convex_sum_lifting(draw, points))
        if len(sd.vertices) < len(points):
            continue
        try:
            sc = restrict(dual_tropical_curve(sd), nd.gamma_minus)
        except NotCellUnionError:
            continue
        kept += 1
        v, r = count_four_valent(sc), count_bounded_regions(sc)
        mu = milnor_number(nd)
        delta = delta_invariant(mu, nd.branch_count)
        assert mu - (v + r) == delta - v, nd.gamma_vertices
        assert v <= delta, nd.gamma_vertices
        kinds = [sd.cells[c].kind for c in sc.vprime]
        assert set(kinds) <= {"half_triangle", "square", "quad"}
        assert v == len(kinds) - kinds.count("half_triangle")
        reached += v == delta and "quad" in kinds
    assert kept >= 200 and reached > 0, (kept, reached)


# --- the figure's sub-curve ----------------------------------------------------

KINKED = "x^11+x^7*y^3+x^5*y^4+x^3*y^5+x*y^7+y^8"  # the default lifting misses


def spy_on_classification(monkeypatch) -> list[str]:
    """The name of the function behind each ``classify_cells_by_region``
    call, wherever the package calls it."""
    callers = []
    real = certificate.classify_cells_by_region

    def classify(sd, region):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(sd, region)

    monkeypatch.setattr(subdivision, "classify_cells_by_region", classify)
    monkeypatch.setattr(tropical, "classify_cells_by_region", classify)
    return callers


def spy_on_figure_sub_curves(monkeypatch) -> list:
    """Each sub-curve ``render_svg`` builds."""
    built = []

    def sub_curve(tc, inside):
        built.append(tropical._sub_curve(tc, inside))
        return built[-1]

    monkeypatch.setattr(svg, "_sub_curve", sub_curve)
    return built


def test_render_classifies_cells_only_in_land(monkeypatch):
    callers = spy_on_classification(monkeypatch)
    built = spy_on_figure_sub_curves(monkeypatch)
    for germ, lands in (("x^5+x^2*y^2+y^5", 1), (KINKED, 2)):
        points = parse_germ(germ).points
        assert subdivide_diagram(analyze_support(points)).used_fallback == (lands == 2)
        for region in svg.REGIONS:
            for show_curve in (True, False):
                callers.clear()
                built.clear()
                svg.render_svg(points, show_curve=show_curve, region=region)
                assert callers == ["_land"] * lands, (germ, region)
                assert len(built) == show_curve, (germ, region)


def test_figure_sub_curve_is_the_restriction(monkeypatch):
    # corpus seeds 1-3 and the ladder x^n + y^(n+1), n = 2..20: the
    # sub-curve drawn is the one ``restrict`` cuts over the same region
    built = spy_on_figure_sub_curves(monkeypatch)
    germs = [[(n, 0), (0, n + 1)] for n in range(2, 21)]
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        germs += [staircase_support(rng) for _ in range(40)]
    for points in germs:
        nd = analyze_support(points)
        for region in svg.REGIONS:
            built.clear()
            svg.render_svg(points, region=region)
            (sc,) = built
            want = (nd.gamma_minus if region == "gamma-minus"
                    else sc.curve.subdivision.domain)
            assert sc == restrict(sc.curve, want), (points, region)
