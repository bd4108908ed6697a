"""Tropical curves dual to regular subdivisions.

The curve is built straight from the subdivision, with no re-checks:
one vertex per cell at the gradient of its plane, one segment per
interior edge, one outward ray per boundary edge, weights given by dual
lattice lengths.  ``verify_duality`` alone checks duality (orthogonality,
valence, balancing, complement counts), from scratch.  Directions, zero
jumps, ray sides and ray lines are decided on integers.  A vertex keeps
its position (x, y) as the integer triple (X, Y, D) with D > 0, no
common factor and (x, y) = (X/D, Y/D), taken from its cell's integer
plane; equal positions are equal triples, and ``TropicalVertex.coords``
builds the two ``Fraction``s only when read.  A segment is tested
through the primitive direction of its gradient jump, (X2*D1 - X1*D2,
Y2*D1 - Y1*D2) over its gcd, which is (0, 0) exactly when the gradients
are equal; a ray's side through the integer multiple 2n (midpoint -
vertex average) of an n-gon; a ray's line through its direction and
its offset (dx*Y - dy*X)/D in lowest terms.  A sub-curve can be cut out
over a region the package built that is a union of cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import NonRegularInputError, NotCellUnionError, require_instance
from .certificate import RegularSubdivision, SubdivisionEdge, classify_cells_by_region

Coords = tuple[Fraction, Fraction]


class TropicalVertex(NamedTuple):
    """A curve vertex at ``coords`` = (X/D, Y/D) for ``triple`` = (X, Y,
    D), D > 0 and gcd(X, Y, D) = 1: the gradient of its dual cell's
    plane.  ``coords`` is built from the triple on each read."""

    triple: tuple[int, int, int]
    dual_cell: int
    valence: int

    @property
    def coords(self) -> Coords:
        x, y, d = self.triple
        return (Fraction(x, d), Fraction(y, d))


class TropicalEdge(NamedTuple):
    kind: str  # "segment" or "ray"
    endpoints: tuple[int, ...]  # two vertex ids, or one for a ray
    direction: tuple[int, int] | None  # outward primitive vector, rays only
    weight: int
    dual_edge: SubdivisionEdge


@dataclass(frozen=True)
class TropicalCurve:
    """Vertex ids equal cell ids of the subdivision throughout."""

    subdivision: RegularSubdivision
    vertices: tuple[TropicalVertex, ...]
    edges: tuple[TropicalEdge, ...]


def _vertex_sums(polygon) -> tuple[int, int, int]:
    sx = sy = 0
    for i, j in polygon.vertices:
        sx += i
        sy += j
    return len(polygon.vertices), sx, sy


def _outward(dx, dy, e: SubdivisionEdge, sums: tuple[int, int, int]) -> int:
    """(dx, dy) dotted with the step from a polygon's vertex average to
    the midpoint of e, times 2n > 0 so that it stays on integers; ``sums``
    is the polygon's vertex count and vertex sums."""
    n, sx, sy = sums
    return dx * (n * (e.a.i + e.b.i) - 2 * sx) + dy * (n * (e.a.j + e.b.j) - 2 * sy)


def dual_tropical_curve(sd: RegularSubdivision) -> TropicalCurve:
    """One vertex per cell, segments across interior edges, rays outward.

    ``verify_duality`` is the certificate; on a lower hull subdivision
    nothing it checks can fail here.  Two facets agree on their shared
    edge, so the gradient jump across it is orthogonal to it.  The
    weighted germs at a vertex are the closed boundary of its dual cell
    turned by 90 degrees, so they balance.  The vertex average of a
    strictly convex cell lies on no edge's line, so each ray's outward
    side is decided.  Equal gradients across an interior edge mean the
    lifting does not fold there; that input is rejected.  Each vertex's
    triple is its cell's (a, b, d) from ``Cell.normal`` over gcd(a, b, d).
    """
    require_instance(sd, RegularSubdivision, "dual_tropical_curve")
    cells = sd.cells
    vertices = []
    for cid, cell in enumerate(cells):
        a, b, _, d = cell.normal
        g = gcd(a, b, d)
        vertices.append(TropicalVertex((a // g, b // g, d // g), cid,
                                       len(cell.polygon.vertices)))

    # each weight is the gcd of its dual edge's vector, the edge's lattice
    # length; an edge of no length, which only a hand-built subdivision
    # has, gets weight 0 (and a ray no direction) for verify_duality to
    # report
    sums: dict[int, tuple[int, int, int]] = {}  # once per ray cell
    edges: list[TropicalEdge] = []
    for e in sd.interior_edges:
        c1, c2 = e.cell_ids
        if vertices[c1].triple == vertices[c2].triple:
            raise NonRegularInputError(
                f"cells {c1} and {c2} share the gradient {vertices[c1].coords}; "
                "the dual edge would collapse")
        (ai, aj), (bi, bj) = e.a, e.b
        edges.append(TropicalEdge("segment", (c1, c2), None, gcd(bi - ai, bj - aj), e))
    for e in sd.boundary_edges:
        cid = e.cell_ids[0]
        if cid not in sums:
            sums[cid] = _vertex_sums(cells[cid].polygon)
        (ai, aj), (bi, bj) = e.a, e.b
        nx, ny = aj - bj, bi - ai
        if _outward(nx, ny, e, sums[cid]) < 0:
            nx, ny = -nx, -ny
        w = gcd(nx, ny)
        edges.append(TropicalEdge("ray", (cid,), (nx // w, ny // w) if w else (0, 0), w, e))
    return TropicalCurve(sd, tuple(vertices), tuple(edges))


# --- duality verification -----------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    complement_components: int
    bounded_components: int
    unbounded_components: int
    subdivision_vertex_count: int
    interior_vertex_count: int
    boundary_vertex_count: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _component_count(n: int, links: list[tuple[int, int]]) -> int:
    """Components of the graph on n nodes: n less one per link that joins
    two of them (union-find with path halving)."""
    parent = list(range(n))
    count = n
    for a, b in links:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            count -= 1
    return count


def _jump_direction(t1: tuple, t2: tuple) -> tuple[int, int]:
    """Primitive direction of g2 - g1 for the gradients with triples t1
    and t2: g2 - g1 times D1*D2 > 0, divided by its gcd.  (0, 0) exactly
    when g1 == g2."""
    x1, y1, d1 = t1
    x2, y2, d2 = t2
    dx = x2 * d1 - x1 * d2
    dy = y2 * d1 - y1 * d2
    g = gcd(dx, dy)
    return (dx // g, dy // g) if g else (0, 0)


def _ray_line(dx: int, dy: int, anchor: tuple) -> tuple[int, int, int, int]:
    """(dx, dy, num, den) with num/den = dx*ay - dy*ax in lowest terms,
    den > 0, for the anchor (ax, ay) with triple (X, Y, D): two rays in
    the same direction lie on one line exactly when their keys are
    equal."""
    x, y, d = anchor
    num = dx * y - dy * x
    g = gcd(num, d)
    return dx, dy, num // g, d // g


def verify_duality(tc: TropicalCurve) -> DualityReport:
    """Recheck the three dual correspondences plus balancing.

    One pass over the edges checks each edge and adds its germs to the
    per-vertex counts and balancing sums; one pass over the vertices
    then compares those with the dual cells.  Violations are reported,
    never raised: the point of the report is to certify theorem
    statements on a given curve.
    """
    require_instance(tc, TropicalCurve, "verify_duality")
    sd = tc.subdivision
    n = len(tc.vertices)
    germs = [0] * n
    bx = [0] * n
    by = [0] * n
    links: list[tuple[int, int]] = []
    ray_lines = []  # one _ray_line key per ray: rays overlap iff equal
    triples = [v.triple for v in tc.vertices]
    domain_sums = _vertex_sums(sd.domain)
    violations: list[str] = []

    for k, e in enumerate(tc.edges):
        dual, w = e.dual_edge, e.weight
        (ai, aj), (bi, bj) = dual.a, dual.b
        di, dj = bi - ai, bj - aj
        length = gcd(di, dj)  # the dual edge's lattice length
        if not length:
            violations.append(f"edge {k}: zero length dual edge")
        elif w != length:
            violations.append(f"edge {k}: weight differs from dual lattice length")
        if e.kind == "segment":
            v1, v2 = e.endpoints
            links.append((v1, v2))
            germs[v1] += 1
            germs[v2] += 1
            px, py = _jump_direction(triples[v1], triples[v2])
            if not (px or py):
                violations.append(f"edge {k}: zero length segment")
                continue
            if px * di + py * dj != 0:
                violations.append(f"edge {k}: not orthogonal to dual edge")
            px, py = w * px, w * py
            bx[v1] += px
            by[v1] += py
            bx[v2] -= px
            by[v2] -= py
        else:
            v = e.endpoints[0]
            dx, dy = e.direction
            if dx * di + dy * dj != 0:
                violations.append(f"edge {k}: ray not orthogonal to dual edge")
            if _outward(dx, dy, dual, domain_sums) <= 0:
                violations.append(f"edge {k}: ray points into the polygon")
            germs[v] += 1
            bx[v] += w * dx
            by[v] += w * dy
            ray_lines.append(_ray_line(dx, dy, triples[v]))

    for cid, vertex in enumerate(tc.vertices):
        sides = len(sd.cells[vertex.dual_cell].polygon.vertices)
        if germs[cid] != sides or vertex.valence != sides:
            violations.append(f"vertex {cid}: valence {germs[cid]} but {sides} dual sides")
        if bx[cid] != 0 or by[cid] != 0:
            violations.append(f"vertex {cid}: balancing sum ({bx[cid]}, {by[cid]})")
    unbounded = len(set(ray_lines))
    violations += ["coincident rays share direction and line"] * (len(ray_lines) - unbounded)

    comp = _component_count(n, links)
    bounded = len(links) - n + comp
    total = bounded + unbounded

    boundary = sd.boundary_vertex_count()
    interior = len(sd.vertices) - boundary
    if total != len(sd.vertices):
        violations.append(
            f"complement count {total} differs from {len(sd.vertices)} "
            "subdivision vertices")
    if bounded != interior or unbounded != boundary:
        violations.append(
            f"complement split ({bounded}, {unbounded}) differs from "
            f"subdivision vertex split ({interior}, {boundary})")

    return DualityReport(total, bounded, unbounded, len(sd.vertices),
                         interior, boundary, tuple(violations))


# --- restriction to a region ---------------------------------------------------

@dataclass(frozen=True)
class TropicalSubCurve:
    curve: TropicalCurve
    vprime: tuple[int, ...]
    full_segments: tuple[int, ...]  # indices into curve.edges
    rays: tuple[int, ...]
    half_edges: tuple[int, ...]  # segments with one endpoint kept, cut at their midpoint


def restrict(tc: TropicalCurve, region) -> TropicalSubCurve:
    """Sub-curve over a region the package built, ``nd.gamma_minus``,
    ``sd.domain`` or a ``convex_hull``, that is a union of cells; a
    region the cells do not tile is a NotCellUnionError.

    Segments with both dual cells in the region stay whole; a segment
    leaving the region is cut at its exact midpoint; rays anchored at a
    kept vertex stay.  Anything else given as the region is a
    SchemaError, from ``classify_cells_by_region``, as is a curve that
    is not a ``TropicalCurve``.
    """
    require_instance(tc, TropicalCurve, "restrict")
    inside, clean = classify_cells_by_region(tc.subdivision, region)
    if not clean:
        raise NotCellUnionError("region is not a union of subdivision cells")
    return _sub_curve(tc, inside)


def _sub_curve(tc: TropicalCurve, inside: tuple[int, ...]) -> TropicalSubCurve:
    """``restrict`` over cells already known to tile the region: the
    ids, ascending, that ``classify_cells_by_region`` gave for it on a
    clean region, or every cell id for the subdivision's domain, which
    its cells tile.

    The ids name at least one cell, and their cells are edge-connected,
    so neither is checked.  Every region the package builds is a simple
    lattice polygon of positive area: ``gamma_minus`` by its docstring,
    the domain and a ``convex_hull`` by the monotone chain.  Its inside
    cells tile it.  The interior of a simple polygon, less the finitely
    many cell corners, is connected, and a path through it passes from
    cell to cell only across an edge the two share, so the cells are
    edge-connected.  Their areas sum to the region's ``area2 > 0``, so
    at least one cell is inside.
    """
    kept = set(inside)

    full: list[int] = []
    rays: list[int] = []
    halves: list[int] = []
    for k, e in enumerate(tc.edges):
        if e.kind == "ray":
            if e.endpoints[0] in kept:
                rays.append(k)
            continue
        c1, c2 = e.endpoints
        if c1 in kept and c2 in kept:
            full.append(k)
        elif c1 in kept or c2 in kept:
            halves.append(k)
    return TropicalSubCurve(tc, tuple(inside), tuple(full), tuple(rays), tuple(halves))


def count_four_valent(sc: TropicalSubCurve) -> int:
    """Kept vertices whose dual cell has four sides."""
    require_instance(sc, TropicalSubCurve, "count_four_valent")
    return sum(1 for v in sc.vprime if sc.curve.vertices[v].valence == 4)


def count_bounded_regions(sc: TropicalSubCurve) -> int:
    """Cycle rank of the kept graph; dangling half-edges and rays bound
    nothing."""
    require_instance(sc, TropicalSubCurve, "count_bounded_regions")
    ids = {v: k for k, v in enumerate(sc.vprime)}
    links = [(ids[sc.curve.edges[e].endpoints[0]],
              ids[sc.curve.edges[e].endpoints[1]]) for e in sc.full_segments]
    comp = _component_count(len(sc.vprime), links)
    return len(links) - len(sc.vprime) + comp
