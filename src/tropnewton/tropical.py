"""Tropical curves dual to regular subdivisions.

The curve is built straight from the subdivision: one vertex per cell
at the gradient of its plane, one segment per interior edge, one
outward ray per boundary edge, weights given by dual lattice lengths.
Duality (complement components, orthogonality, valence, balancing) is
then re-verified from scratch rather than assumed, and a sub-curve can
be cut out over any region that is a union of cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalCheckError,
    NonRegularInputError,
    NotCellUnionError,
    NotConnectedError,
    check,
)
from .lattice import lattice_length, primitive_direction, sub
from .subdivision import RegularSubdivision, SubdivisionEdge, classify_cells_by_region

Coords = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class TropicalVertex:
    coords: Coords
    dual_cell: int
    valence: int


@dataclass(frozen=True)
class TropicalEdge:
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

    def segments(self) -> tuple[TropicalEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "segment")

    def rays(self) -> tuple[TropicalEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "ray")


def _segment_germ(curve: TropicalCurve, e: TropicalEdge, at: int) -> tuple[int, int]:
    """Primitive integer direction of segment e leaving vertex ``at``."""
    v1, v2 = e.endpoints
    other = v2 if at == v1 else v1
    g0 = curve.vertices[at].coords
    g1 = curve.vertices[other].coords
    return primitive_direction(g1[0] - g0[0], g1[1] - g0[1])


def dual_tropical_curve(sd: RegularSubdivision) -> TropicalCurve:
    """One vertex per cell, segments across interior edges, rays outward."""
    cells = sd.cells
    vertices = tuple(
        TropicalVertex(cell.gradient, cid, len(cell.polygon.vertices))
        for cid, cell in enumerate(cells))

    edges: list[TropicalEdge] = []
    for e in sd.interior_edges:
        c1, c2 = e.cell_ids
        g1, g2 = vertices[c1].coords, vertices[c2].coords
        if g1 == g2:
            raise NonRegularInputError(
                f"cells {c1} and {c2} share the gradient {g1}; "
                "the dual edge would collapse")
        d = sub(e.b, e.a)
        check((g2[0] - g1[0]) * d[0] + (g2[1] - g1[1]) * d[1] == 0,
              "segment is not orthogonal to its dual edge")
        edges.append(TropicalEdge("segment", (c1, c2), None,
                                  lattice_length(e.a, e.b), e))
    for e in sd.boundary_edges:
        cid = e.cell_ids[0]
        d = sub(e.b, e.a)
        nx, ny = -d[1], d[0]
        mid = (Fraction(e.a.i + e.b.i, 2), Fraction(e.a.j + e.b.j, 2))
        ip = cells[cid].polygon.interior_point()
        side = nx * (mid[0] - ip[0]) + ny * (mid[1] - ip[1])
        check(side != 0, "boundary edge normal is degenerate")
        if side < 0:
            nx, ny = -nx, -ny
        edges.append(TropicalEdge("ray", (cid,), primitive_direction(nx, ny),
                                  lattice_length(e.a, e.b), e))

    curve = TropicalCurve(sd, vertices, tuple(edges))
    for cid in range(len(cells)):
        bx = by = 0
        for e in curve.edges:
            if e.kind == "segment" and cid in e.endpoints:
                px, py = _segment_germ(curve, e, cid)
                bx += e.weight * px
                by += e.weight * py
            elif e.kind == "ray" and e.endpoints[0] == cid:
                bx += e.weight * e.direction[0]
                by += e.weight * e.direction[1]
        check(bx == 0 and by == 0, f"balancing fails at vertex {cid}")
    return curve


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
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(k) for k in range(n)})


def _ray_line_key(curve: TropicalCurve, e: TropicalEdge):
    """(direction, signed line offset); rays agree here iff they overlap."""
    ax, ay = curve.vertices[e.endpoints[0]].coords
    dx, dy = e.direction
    return (dx, dy), dx * ay - dy * ax


def verify_duality(tc: TropicalCurve) -> DualityReport:
    """Recheck the three dual correspondences plus balancing.

    Violations are reported, never raised: the point of the report is
    to certify theorem statements on a given curve.
    """
    sd = tc.subdivision
    violations: list[str] = []

    for k, e in enumerate(tc.edges):
        d = sub(e.dual_edge.b, e.dual_edge.a)
        if e.weight != lattice_length(e.dual_edge.a, e.dual_edge.b):
            violations.append(f"edge {k}: weight differs from dual lattice length")
        if e.kind == "segment":
            g1 = tc.vertices[e.endpoints[0]].coords
            g2 = tc.vertices[e.endpoints[1]].coords
            if g1 == g2:
                violations.append(f"edge {k}: zero length segment")
            elif (g2[0] - g1[0]) * d[0] + (g2[1] - g1[1]) * d[1] != 0:
                violations.append(f"edge {k}: not orthogonal to dual edge")
        else:
            if e.direction[0] * d[0] + e.direction[1] * d[1] != 0:
                violations.append(f"edge {k}: ray not orthogonal to dual edge")
            ip = sd.domain.interior_point()
            mid = (Fraction(e.dual_edge.a.i + e.dual_edge.b.i, 2),
                   Fraction(e.dual_edge.a.j + e.dual_edge.b.j, 2))
            if (e.direction[0] * (mid[0] - ip[0])
                    + e.direction[1] * (mid[1] - ip[1])) <= 0:
                violations.append(f"edge {k}: ray points into the polygon")

    for cid, v in enumerate(tc.vertices):
        germs = 0
        bx = by = 0
        for e in tc.edges:
            if e.kind == "segment" and cid in e.endpoints:
                germs += 1
                g1 = tc.vertices[e.endpoints[0]].coords
                g2 = tc.vertices[e.endpoints[1]].coords
                if g1 != g2:
                    px, py = _segment_germ(tc, e, cid)
                    bx += e.weight * px
                    by += e.weight * py
            elif e.kind == "ray" and e.endpoints[0] == cid:
                germs += 1
                bx += e.weight * e.direction[0]
                by += e.weight * e.direction[1]
        sides = len(sd.cells[v.dual_cell].polygon.vertices)
        if germs != sides or v.valence != sides:
            violations.append(f"vertex {cid}: valence {germs} but {sides} dual sides")
        if bx != 0 or by != 0:
            violations.append(f"vertex {cid}: balancing sum ({bx}, {by})")

    seen: dict = {}
    slots = 0
    for e in tc.edges:
        if e.kind != "ray":
            continue
        key = _ray_line_key(tc, e)
        if key in seen:
            violations.append("coincident rays share direction and line")
        else:
            seen[key] = True
            slots += 1

    links = []
    for e in tc.edges:
        if e.kind == "segment":
            links.append((e.endpoints[0], e.endpoints[1]))
    comp = _component_count(len(tc.vertices), links)
    bounded = len(links) - len(tc.vertices) + comp
    unbounded = slots
    total = bounded + unbounded

    interior = len(sd.vertices) - sd.boundary_vertex_count()
    boundary = sd.boundary_vertex_count()
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
class HalfEdge:
    vertex: int
    midpoint: Coords
    weight: int
    dual_edge: SubdivisionEdge


@dataclass(frozen=True)
class TropicalSubCurve:
    curve: TropicalCurve
    region: object
    vprime: tuple[int, ...]
    full_segments: tuple[int, ...]  # indices into curve.edges
    rays: tuple[int, ...]
    half_edges: tuple[HalfEdge, ...]


def restrict(tc: TropicalCurve, region) -> TropicalSubCurve:
    """Sub-curve over a region that is a union of cells.

    Segments with both dual cells in the region stay whole; a segment
    leaving the region is cut at its exact midpoint; rays anchored at a
    kept vertex stay.  The kept cells must be connected through shared
    edges, vertex contact is not enough.
    """
    sd = tc.subdivision
    inside, clean = classify_cells_by_region(sd, region)
    if not clean:
        raise NotCellUnionError("region is not a union of subdivision cells")
    if not inside:
        raise NotCellUnionError("region contains no cell")
    kept = set(inside)

    ids = {cid: k for k, cid in enumerate(inside)}
    links = []
    for e in sd.interior_edges:
        c1, c2 = e.cell_ids
        if c1 in kept and c2 in kept:
            links.append((ids[c1], ids[c2]))
    if _component_count(len(inside), links) != 1:
        raise NotConnectedError("region cells do not form an edge-connected set")

    full: list[int] = []
    rays: list[int] = []
    halves: list[HalfEdge] = []
    for k, e in enumerate(tc.edges):
        if e.kind == "ray":
            if e.endpoints[0] in kept:
                rays.append(k)
            continue
        c1, c2 = e.endpoints
        if c1 in kept and c2 in kept:
            full.append(k)
        elif c1 in kept or c2 in kept:
            at = c1 if c1 in kept else c2
            g1 = tc.vertices[c1].coords
            g2 = tc.vertices[c2].coords
            mid = ((g1[0] + g2[0]) / 2, (g1[1] + g2[1]) / 2)
            halves.append(HalfEdge(at, mid, e.weight, e.dual_edge))
    return TropicalSubCurve(tc, region, tuple(inside), tuple(full),
                            tuple(rays), tuple(halves))


def count_four_valent(sc: TropicalSubCurve) -> int:
    """Kept vertices whose dual cell has four sides."""
    return sum(1 for v in sc.vprime if sc.curve.vertices[v].valence == 4)


def count_bounded_regions(sc: TropicalSubCurve) -> int:
    """Cycle rank of the kept graph; dangling half-edges and rays bound
    nothing."""
    ids = {v: k for k, v in enumerate(sc.vprime)}
    links = [(ids[sc.curve.edges[e].endpoints[0]],
              ids[sc.curve.edges[e].endpoints[1]]) for e in sc.full_segments]
    comp = _component_count(len(sc.vprime), links)
    return len(links) - len(sc.vprime) + comp
