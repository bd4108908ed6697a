"""Newton boundary extraction and the numeric invariants derived from it.

Expected values for the three running germs were computed by hand from
the definitions (boundary chain, Pick's theorem, Milnor's formula) and
are frozen here.
"""

import dataclasses
import hashlib
import random
import re
from fractions import Fraction

import pytest

from tropnewton import newton
from tropnewton.corpus import SplitMix64, staircase_support
from tropnewton.errors import (
    InternalCheckError,
    NotConvenientError,
    NotSingularAtOriginError,
    ParityViolationError,
    SchemaError,
)
from tropnewton.lattice import LatticePolygon, cross, lattice_length, segment_lattice_points
from tropnewton.newton import (
    NewtonDiagram,
    analyze_support,
    decompose_diagram,
    delta_invariant,
    milnor_number,
)
from tropnewton.parsing import SupportSet, parse_germ
from tropnewton.patchwork import analyze
from tropnewton.svg import render_svg

from oracles import (
    lattice_polygon,
    milnor_by_elimination,
    on_gamma_by_cross,
    pick_interior_boundary,
    staircase_squares_by_shoelace,
)

QUINTIC = parse_germ("x^5+x^2*y^2+y^5").points
CUSP = parse_germ("x^2+y^3").points
NODE = parse_germ("x^2+y^2").points


def test_quintic_boundary():
    nd = analyze_support(QUINTIC)
    assert (nd.p, nd.q) == (5, 5)
    assert nd.gamma_vertices == ((0, 5), (2, 2), (5, 0))
    assert nd.gamma_lattice == ((0, 5), (2, 2), (5, 0))
    assert nd.branch_count == 2
    assert nd.primitive_steps == ((2, 3), (3, 2))
    assert nd.gamma_minus.area2 == 20
    assert nd.interior_lattice_count == 5


def test_gamma_minus_skips_the_ring_checks():
    # no caller builds a LatticePolygon: the class has no constructor to
    # check a ring, and the diagram's ring is trusted as proved
    with pytest.raises(TypeError):
        LatticePolygon([(0, 0), (5, 0), (2, 2), (0, 5)])
    nd = analyze_support(QUINTIC)
    assert nd.gamma_minus.vertices == ((0, 0), (5, 0), (2, 2), (0, 5))
    assert type(nd.gamma_minus) is LatticePolygon


def test_cusp_boundary():
    nd = analyze_support(CUSP)
    assert (nd.p, nd.q) == (2, 3)
    assert nd.gamma_vertices == ((0, 3), (2, 0))
    assert nd.gamma_lattice == ((0, 3), (2, 0))
    assert nd.branch_count == 1
    assert nd.interior_lattice_count == 1


def test_node_boundary_has_midpoint():
    nd = analyze_support(NODE)
    assert nd.gamma_vertices == ((0, 2), (2, 0))
    assert nd.gamma_lattice == ((0, 2), (1, 1), (2, 0))
    assert nd.branch_count == 2
    assert nd.interior_lattice_count == 0


def test_shadowed_points_do_not_bend_the_boundary():
    # (1,2) lies above the segment from (0,3) to (2,0); axis points beyond
    # the intercepts and interior bulk points are shadowed too
    nd = analyze_support([(0, 3), (2, 0), (5, 0), (0, 7), (3, 3), (1, 2)])
    assert (nd.p, nd.q) == (2, 3)
    assert nd.gamma_vertices == ((0, 3), (2, 0))
    nd2 = analyze_support([(0, 3), (1, 1), (2, 0), (5, 0), (0, 7), (3, 3)])
    assert nd2.gamma_vertices == ((0, 3), (1, 1), (2, 0))
    # column minima that repeat, or rise before they fall, bend nothing
    for germ, vertices in [("x^4+x^3*y+x^2*y+x*y^3+y^3", ((0, 3), (2, 1), (4, 0))),
                           ("x^5+x*y^4+x^2*y+y^3", ((0, 3), (2, 1), (5, 0))),
                           ("x^6+x*y^3+x^2*y^3+x^3*y+x^4*y^2+x^5*y+y^3",
                            ((0, 3), (3, 1), (6, 0))),
                           ("x^4+x*y^5+x^2*y^4+x^3*y^3+y^3", ((0, 3), (4, 0)))]:
        assert analyze_support(parse_germ(germ)).gamma_vertices == vertices, germ


def test_collinear_support_point_is_lattice_not_vertex():
    nd = analyze_support([(0, 4), (2, 2), (4, 0)])
    assert nd.gamma_vertices == ((0, 4), (4, 0))
    assert nd.gamma_lattice == ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0))
    assert nd.branch_count == 4


def test_rejects_units_and_smooth_germs():
    for pts in [[(0, 0), (2, 0), (0, 2)], [(1, 0), (0, 2)], [(0, 1), (2, 0)]]:
        with pytest.raises(NotSingularAtOriginError):
            analyze_support(pts)


def test_rejects_non_convenient():
    with pytest.raises(NotConvenientError):
        analyze_support([(2, 0), (1, 1)])
    with pytest.raises(NotConvenientError):
        analyze_support([(2, 1), (1, 2)])


def test_on_gamma():
    nd = analyze_support(QUINTIC)
    assert (2, 2) in nd.gamma_lattice
    assert (0, 5) in nd.gamma_lattice
    assert (1, 1) not in nd.gamma_lattice
    assert (1, 4) not in nd.gamma_lattice  # strictly above the first edge
    assert (Fraction(5), 0) in nd.gamma_lattice
    # (5/2, 5/2) is on the boundary's line but not a lattice point
    assert (Fraction(5, 2), Fraction(5, 2)) not in nd.gamma_lattice


def test_on_gamma_matches_the_cross_product_on_the_bbox():
    # gamma_lattice holds every lattice point of every boundary edge
    for text in ["x^5+x^2*y^2+y^5", "x^2+y^3", "x^2+y^2", "x^30+x^10*y^5+y^29",
                 "x^12+x^4*y^2+y^9", "x^6+y^4"]:
        nd = analyze_support(parse_germ(text).points)
        for i in range(nd.p + 2):
            for j in range(nd.q + 2):
                assert ((i, j) in nd.gamma_lattice) == on_gamma_by_cross(nd, (i, j)), \
                    (text, i, j)


def test_non_lattice_support_is_rejected():
    # (5/2, 0) used to be truncated onto (2, 0), reporting p = 2
    with pytest.raises(SchemaError, match="is not a lattice point"):
        analyze_support([(Fraction(5, 2), 0), (0, 3)])
    assert analyze_support([(Fraction(4, 2), 0), (0, 3)]).p == 2


def test_negative_exponent_is_a_schema_error():
    # these used to end in an InternalCheckError, from the tiling check
    # and from the region's orientation check
    for pts, bad in [([(3, 0), (0, 3), (-1, 1)], "(-1, 1)"),
                     ([(2, 0), (0, 2), (1, -1)], "(1, -1)")]:
        message = re.escape(f"support point {bad} has a negative exponent")
        for build in (analyze, analyze_support, render_svg):
            with pytest.raises(SchemaError, match=message):
                build(pts)
        with pytest.raises(SchemaError, match=message):
            analyze(SupportSet.from_points(pts))


def test_quintic_decomposition():
    dec = decompose_diagram(analyze_support(QUINTIC))
    assert dec.triangle_squares == 2
    assert dec.staircase_squares == 4
    assert dec.square_count == 6
    assert dec.touching_count == 1
    assert dec.staircase_squares == staircase_squares_by_shoelace(analyze_support(QUINTIC))
    corners = {t[0] for t in dec.triangles}
    assert corners == {(0, 2), (2, 0)}


def test_cusp_decomposition():
    dec = decompose_diagram(analyze_support(CUSP))
    assert dec.square_count == 1
    assert dec.staircase_squares == 0
    assert dec.touching_count == 0


def test_node_decomposition():
    dec = decompose_diagram(analyze_support(NODE))
    assert (dec.triangle_squares, dec.staircase_squares) == (0, 1)
    assert dec.touching_count == 1


def test_milnor_numbers():
    assert milnor_number(analyze_support(QUINTIC)) == 11
    assert milnor_number(analyze_support(CUSP)) == 2
    assert milnor_number(analyze_support(NODE)) == 1
    # ordinary m-fold point: mu = (m-1)^2
    for m in range(2, 8):
        nd = analyze_support([(m, 0), (0, m)])
        assert milnor_number(nd) == (m - 1) ** 2
    # A_k chain: x^2 + y^(k+1)
    for k in range(1, 9):
        assert milnor_number(analyze_support([(2, 0), (0, k + 1)])) == k


def test_milnor_by_elimination_textbook_table():
    table = [(f"x^2+y^{k + 1}", k) for k in range(1, 9)]  # A_k
    table += [(f"x^2*y+y^{k - 1}", k) for k in range(4, 9)]  # D_k
    table += [("x^3+y^4", 6), ("x^3+x*y^3", 7), ("x^3+y^5", 8)]  # E_6, E_7, E_8
    for germ, mu in table:
        assert milnor_by_elimination(parse_germ(germ)) == mu, germ


def test_milnor_by_elimination_equals_milnor_number_on_the_corpus():
    # the algebraic side shares nothing with the diagram's two routes
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        for k in range(120):
            points = staircase_support(rng)
            assert milnor_by_elimination(SupportSet.from_points(points)) == \
                milnor_number(analyze_support(points)), (seed, k, points)


def test_milnor_by_elimination_on_degenerate_germs():
    # Kouchnirenko's formula, which both routes of milnor_number are,
    # reads these diagrams as 4, 3 and 1: the germs are (x-y)^3+y^7,
    # (y-x^2)^2+x^5 (A_4 after y -> y+x^2) and (x+y)^2, not isolated
    for germ, mu in [("x^3-3*x^2*y+3*x*y^2-y^3+y^7", 12),
                     ("y^2-2*x^2*y+x^4+x^5", 4),
                     ("x^2+2*x*y+y^2", None)]:
        assert milnor_by_elimination(parse_germ(germ)) == mu, germ


def _planted(n: int) -> list[int]:
    """Coefficients of (u + 1)^2 (u^(n-2) + 1), lowest power first: an
    edge polynomial of degree n with a double root at -1."""
    other = [1] + [0] * (n - 3) + [1] if n > 2 else [2]
    out = [0] * (n + 1)
    for a, x in enumerate([1, 2, 1]):
        for b, y in enumerate(other):
            out[a + b] += x * y
    return out


def gaussian_boundary_germs(count: int = 60):
    """(planted, support) for the diagrams of ``staircase_support(
    SplitMix64(4), 6, 6)``, with a nonzero Gaussian coefficient from
    [-2, 2]^2 on every lattice point of the boundary.  Every other germ
    gets ``_planted`` on its first edge of lattice length n >= 2, which
    makes it Newton-degenerate, when it has one."""
    rng = SplitMix64(4)
    for k in range(count):
        nd = analyze_support(staircase_support(rng, 6, 6))
        coeffs = {}
        for pt in nd.gamma_lattice:
            c = (0, 0)
            while c == (0, 0):
                c = (rng.between(-2, 2), rng.between(-2, 2))
            coeffs[pt] = c
        edges = zip(nd.gamma_vertices, nd.gamma_vertices[1:])
        edge = next(((a, b) for a, b in edges if lattice_length(a, b) >= 2), None)
        planted = k % 2 == 1 and edge is not None
        if planted:
            for pt, c in zip(segment_lattice_points(*edge), _planted(lattice_length(*edge))):
                coeffs[pt] = (c, 0)
        yield planted, SupportSet(tuple((p, c) for p, c in coeffs.items() if c != (0, 0)))


def test_milnor_by_elimination_equals_mu_on_gaussian_boundary_germs():
    # Newton-nondegenerate for these coefficients, so Kouchnirenko's
    # formula is the Milnor number
    germs = [s for planted, s in gaussian_boundary_germs() if not planted]
    assert len(germs) == 43
    for support in germs:
        assert analyze(support).mu == milnor_by_elimination(support), support.terms


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: mu is reported without "
                   "checking that the germ is Newton-nondegenerate")
def test_planted_double_roots_are_not_reported_as_milnor_numbers():
    # the oracle finds no isolated singularity within its budget on 14
    # of the 17, and a larger mu on the other 3
    germs = [s for planted, s in gaussian_boundary_germs() if planted]
    assert len(germs) == 17
    for support in germs:
        assert analyze(support).mu == milnor_by_elimination(support), support.terms


def test_milnor_number_checks_its_two_routes_against_each_other(monkeypatch):
    nd = analyze_support(QUINTIC)
    dec = decompose_diagram(nd)
    monkeypatch.setattr(newton, "decompose_diagram", lambda nd: dataclasses.replace(
        dec, staircase_squares=dec.staircase_squares + 1))
    with pytest.raises(InternalCheckError, match="area route and staircase route disagree"):
        milnor_number(nd)


def test_delta_invariant():
    assert delta_invariant(11, 2) == 6
    assert delta_invariant(2, 1) == 1
    assert delta_invariant(1, 2) == 1
    with pytest.raises(ParityViolationError):
        delta_invariant(2, 2)


def random_staircase(rng: random.Random, max_pq: int = 12):
    """Strictly descending support chain giving a convenient singular germ."""
    p = rng.randrange(2, max_pq + 1)
    q = rng.randrange(2, max_pq + 1)
    pts = [(0, q), (p, 0)]
    k = rng.randrange(0, 4)
    xs = sorted(rng.sample(range(1, p), min(k, p - 1)))
    ys = sorted(rng.sample(range(1, q), min(len(xs), q - 1)), reverse=True)
    pts.extend(zip(xs, ys))
    return pts


# sha256 of (p, q, gamma_vertices, gamma_lattice) on the staircases below,
# as analyze_support computed them before the diagram derived them itself
STAIRCASE_BOUNDARIES = "efbe20212450aff953551fcc78a7f1b9ebb7bf3b9c9d9f4b0b98ba427dcbac3d"


def test_random_staircases_yield_valid_boundaries():
    rng = random.Random(20260814)
    digest = hashlib.sha256()
    for _ in range(300):
        pts = random_staircase(rng)
        nd = analyze_support(pts)
        assert NewtonDiagram(pts) == nd
        digest.update(repr((nd.p, nd.q, [tuple(v) for v in nd.gamma_vertices],
                            [tuple(v) for v in nd.gamma_lattice])).encode())
        # boundary is convex with strictly negative slopes
        edges = list(zip(nd.gamma_vertices, nd.gamma_vertices[1:]))
        for (a, b), (c, d) in zip(edges, edges[1:]):
            assert cross(a, b, d) > 0
        for a, b in edges:
            assert b.i > a.i and b.j < a.j
        # the unchecked ring passes every check of the oracle
        poly = nd.gamma_minus
        assert poly == lattice_polygon([(0, 0)] + list(reversed(nd.gamma_vertices)))
        # support never dips strictly inside the region under the boundary
        for pt in nd.support:
            assert poly.locate(pt) != "inside"
        for pt in nd.gamma_lattice:
            assert poly.locate(pt) == "boundary"
            assert on_gamma_by_cross(nd, pt)
        # Milnor number is consistent both ways (checked internally) and odd
        # iff branch parity says so
        mu = milnor_number(nd)
        delta = delta_invariant(mu, nd.branch_count)
        assert delta >= 0
        dec = decompose_diagram(nd)
        area_from_parts = 2 * dec.staircase_squares + sum(
            pi * qi for pi, qi in nd.primitive_steps)
        assert area_from_parts == poly.area2
    assert digest.hexdigest() == STAIRCASE_BOUNDARIES


def test_a_diagram_is_built_from_its_support_alone():
    # a rising "boundary" used to be accepted beside any support, and
    # milnor_number answered 9 for it; the boundary, p and q now come
    # from the support, and neither the constructor nor replace takes them
    assert [f.name for f in dataclasses.fields(NewtonDiagram) if f.init] == ["support"]
    with pytest.raises(TypeError):
        NewtonDiagram((), ((0, 2), (3, 3), (2, 0)), ((0, 2), (3, 3), (2, 0)), 2, 2)
    nd = NewtonDiagram(parse_germ("x^5+x^2*y^2+y^5"))
    assert nd == analyze_support([(5, 0), (2, 2), (0, 5)])
    assert (nd.p, nd.q, nd.gamma_vertices) == (5, 5, ((0, 5), (2, 2), (5, 0)))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(nd, p=2)
    with pytest.raises(NotConvenientError):
        NewtonDiagram(())


def test_support_points_strictly_inside_region_are_allowed():
    nd = analyze_support([(0, 3), (2, 0), (1, 1)])
    assert nd.gamma_vertices == ((0, 3), (1, 1), (2, 0))
    nd2 = analyze_support([(0, 5), (2, 2), (5, 0), (2, 1)])
    assert nd2.gamma_vertices == ((0, 5), (2, 1), (5, 0))


def corpus_and_ladder():
    """The diagrams of 200 corpus germs for each of seeds 1-3, then of
    x^n + y^(n+1) for n = 2..40."""
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        for _ in range(200):
            yield analyze_support(staircase_support(rng, 12, 12))
    for n in range(2, 41):
        yield analyze_support([(n, 0), (0, n + 1)])


def test_interior_lattice_count_matches_the_scan():
    # Pick's count against the bounding-box scan of the region
    for nd in corpus_and_ladder():
        assert nd.interior_lattice_count == pick_interior_boundary(nd.gamma_minus)[0], \
            nd.gamma_vertices


def test_staircase_squares_match_the_shoelace_of_the_ring():
    for nd in corpus_and_ladder():
        assert decompose_diagram(nd).staircase_squares == staircase_squares_by_shoelace(nd)
