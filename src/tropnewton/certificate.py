"""The certificate that a wrap's cells are the lower hull's, and the
regular subdivision it builds.

A wrap, general (``hull``) or special (``subdivision``), hands
``_certify`` plain facet records, each its corners, its tight points
and its integer plane.  ``_certify`` proves once, by the local
convexity lemma, that they are exactly the cells of the lower hull,
and only then makes a ``Cell``, once per cell.  It shares no code with
either wrap, so it can check both.  A cell keeps its plane as the
integers (a, b, c, d) in lowest terms with d > 0, the plane z = (a*i +
b*j + c)/d; no ``Fraction`` is made unless a caller reads
``Cell.plane`` or ``Cell.gradient``.  A subdivision is then read
against a region by ``classify_cells_by_region``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalCheckError, check, require
from .lattice import ConvexPolygon, LatticePoint, LatticePolygon, segment_lattice_points

Plane = tuple[Fraction, Fraction, Fraction]


class Cell(NamedTuple):
    """One facet of the lower hull, projected to the plane.

    ``tight`` holds every support point on the facet, including points
    interior to edges; ``polygon`` keeps only the corners.  ``normal``
    is the facet's plane z = (a*i + b*j + c)/d as the integers (a, b,
    c, d), d > 0, with no common factor, so equal planes are equal
    tuples.  ``plane``, (a/d, b/d, c/d), and ``gradient``, (a/d, b/d),
    are ``Fraction``s built on each read.  A named tuple, like
    ``SubdivisionEdge``: one is built per facet.
    """

    polygon: ConvexPolygon
    normal: tuple[int, int, int, int]
    tight: tuple[LatticePoint, ...]

    @property
    def plane(self) -> Plane:
        a, b, c, d = self.normal
        return (Fraction(a, d), Fraction(b, d), Fraction(c, d))

    @property
    def gradient(self) -> tuple[Fraction, Fraction]:
        a, b, _, d = self.normal
        return (Fraction(a, d), Fraction(b, d))

    @property
    def kind(self) -> str:
        v = self.polygon.vertices
        if len(v) == 3:
            return "half_triangle" if self.polygon.area2 == 1 else "triangle"
        if len(v) == 4:
            lo = min(v)
            unit = {lo, (lo.i + 1, lo.j), (lo.i + 1, lo.j + 1), (lo.i, lo.j + 1)}
            return "square" if set(v) == unit else "quad"
        return "other"


class SubdivisionEdge(NamedTuple):
    a: LatticePoint
    b: LatticePoint
    cell_ids: tuple[int, ...]


@dataclass(frozen=True)
class RegularSubdivision:
    lifting: object  # the wrap's parsing.LiftedSupport, kept as given
    domain: ConvexPolygon
    cells: tuple[Cell, ...]
    interior_edges: tuple[SubdivisionEdge, ...]
    boundary_edges: tuple[SubdivisionEdge, ...]
    vertices: tuple[LatticePoint, ...]

    def boundary_vertex_count(self) -> int:
        """Vertices that ``locate`` puts on the domain's boundary: on the
        convex domain, those on no domain edge's outer side and on the
        line of at least one.  Each edge ab is read once into the
        integer line p*i + q*j + r, the cross product (b - a) x (v - a),
        which is negative exactly when v is outside the edge; a vertex
        outside the domain on an edge's line is therefore not counted."""
        lines = [(aj - bj, bi - ai, ai * bj - aj * bi)
                 for (ai, aj), (bi, bj) in self.domain.edges()]
        return sum(min([p * i + q * j + r for p, q, r in lines]) == 0
                   for i, j in self.vertices)


def _certify(lifting, domain, pts3, scale, facets, lines) -> RegularSubdivision:
    """The subdivision of a wrap's output, once proved to be exactly the
    lower hull's, in O(points + edges) when few points are tight in no
    cell.

    The input is what ``hull._wrap`` or ``subdivision._square_wrap``
    returns: the domain, ``pts3`` the kept lifted points, the height
    scale, the facet records (each polygon the hull of its tight points,
    with its integer plane), and ``lines`` the kept points' rim-line
    bitmasks.  The facets are sorted into vertex order first; that order
    fixes the cell ids.  It checks that

    1. each directed edge lies on the boundary of one cell only, with
       the cell on its left;
    2. every edge off the rim has a cell on each side;
    3. every interior edge folds strictly upward: the corner after the
       edge in the cell on its right lies strictly above the plane of
       the cell on its left (one test per edge);
    4. every cell's tight points lie on its plane (one test per tight
       point);
    5. every kept point that is tight in no cell lies strictly above
       every cell's plane;
    6. the cells' areas sum to the domain's.

    The edge split.  Every cell corner lies on the inner side of every
    domain edge, so an edge lies on the rim exactly when both its ends
    lie on the line of one domain edge: when their ``lines`` bitmasks
    share a bit.  One map from each directed edge to its cell gives
    both lists, each edge as (min, max), sorted.  A rim edge has one
    cell: a cell lies left of each of its counterclockwise edges and
    inside the domain, so only the direction with the domain on its
    left can bound a cell, and by 1 only one cell.  An edge off the rim
    has two, by 1 and 2, and they differ, because a polygon of positive
    area has no edge in both directions; its cell ids come ascending.

    Why this is a proof.  Crossing an edge off the rim enters one cell
    and leaves one, so the number of cells over a point is the same on
    both sides of every such edge, so constant on the domain, and the
    area sum makes it one: the cells tile the domain.  Two cells that
    share an edge share its lifted ends, which by 4 lie on both planes,
    so the planes glue to a continuous piecewise-affine F on the convex
    domain.  F is strictly convex across every interior edge, so convex
    along every line that avoids the corners, hence convex, and F is the
    max of the cell planes (De Loera, Rambau, Santos, Triangulations,
    2010, the local convexity lemma).  So the loose points lie strictly
    above F, and the points the fan dropped lie strictly above the fan,
    which is at least F: its corners are kept points, on or above F, and
    F is convex.  Every lifted point is on or above F, the cells'
    corners are on it, so F is the lower hull.  The strict folds make
    the cells its facets, and a point on a cell's plane lies on F inside
    that cell.  If the cell is a full square, the point is one of its
    four corners.  Otherwise, it is in the pocket when the squares were
    taken first (the full squares are cells, so the pocket lemma of
    ``subdivision`` holds), and it is a left point of the cell's wrap
    edge on the plane, or on its lifted line: the scan collected it.
    Hence the cells and their tight sets are exactly the lower hull's.

    Only then is each cell built, its plane z = (level - n0*i - n1*j) /
    (n2 * scale) kept as the integer ``Cell.normal`` (-n0, -n1, level,
    n2 * scale) over its gcd; n2 > 0 and scale > 0, so the denominator
    stays positive.
    """
    facets = sorted(facets, key=itemgetter(0))
    # each directed edge's cell, and the corner that follows the edge; the
    # corners and the cells' shoelace sums on the way
    owner: dict[tuple[LatticePoint, LatticePoint], tuple[int, LatticePoint]] = {}
    corners: set[LatticePoint] = set()
    area2 = 0
    for k, (v, _, _) in enumerate(facets):
        corners.update(v)
        u, w = v[-2], v[-1]
        for after in v:
            if (u, w) in owner:
                raise InternalCheckError(f"edge {u}-{w} claimed by two cells")
            owner[u, w] = k, after
            area2 += u[0] * w[1] - w[0] * u[1]
            u, w = w, after
    interior: list[SubdivisionEdge] = []
    boundary: list[SubdivisionEdge] = []
    for (u, w), (k, _) in owner.items():
        if lines[u] & lines[w]:
            boundary.append(SubdivisionEdge(u, w, (k,)) if u < w else SubdivisionEdge(w, u, (k,)))
            continue
        across = owner.get((w, u))
        if across is None:
            raise InternalCheckError(f"inner edge {u}-{w} has a cell on one side only")
        if u < w:
            right, after = across
            n0, n1, n2, level = facets[k][2]
            x, y, z = pts3[after]
            if not n0 * x + n1 * y + n2 * z > level:
                raise InternalCheckError(f"inner edge {u}-{w} does not fold upward")
            interior.append(SubdivisionEdge(u, w, (k, right) if k < right else (right, k)))
    tight = set()
    for _, on, (n0, n1, n2, level) in facets:
        for pt in on:
            x, y, z = pts3[pt]
            if n0 * x + n1 * y + n2 * z != level:
                raise InternalCheckError(f"tight point {pt} is off its cell's plane")
        tight.update(on)
    loose = [p for pt, p in pts3.items() if pt not in tight]
    for _, _, (n0, n1, n2, level) in facets:
        for x, y, z in loose:
            if not n0 * x + n1 * y + n2 * z > level:
                raise InternalCheckError("wrap produced a non-supporting plane")
    check(area2 == domain.area2, "cells do not tile the support hull")
    interior.sort()
    boundary.sort()
    cells = []
    for v, on, (n0, n1, n2, level) in facets:
        den = n2 * scale
        g = gcd(n0, n1, level, den)
        cells.append(Cell(ConvexPolygon._trusted(v), (-n0 // g, -n1 // g, level // g, den // g),
                          tuple(on)))
    return RegularSubdivision(lifting, domain, tuple(cells), tuple(interior),
                              tuple(boundary), tuple(sorted(corners)))


# --- classification against a region ----------------------------------------

def _unit_steps(a: LatticePoint, b: LatticePoint):
    """Unit lattice steps of segment ab, each as an ordered pair (min, max)."""
    pts = segment_lattice_points(a, b)
    return [(u, v) if u < v else (v, u) for u, v in zip(pts, pts[1:])]


def classify_cells_by_region(sd: RegularSubdivision, region) -> tuple[tuple[int, ...], bool]:
    """Cells whose interior point lies inside the region, plus whether
    those cells tile the region exactly (``clean``).

    The region may be non-convex.  It is clean when every unit lattice
    step of its boundary lies on a subdivision edge, interior or
    boundary, and the inside cells' areas sum to the region's area.
    The steps are tested first: when one misses the skeleton, the region
    is not clean, no cell is located and the list is empty.  Why the
    steps suffice for the cell list: the cells have disjoint interiors
    and tile the convex domain, so a boundary on their 1-skeleton lies
    in the domain; each cell's interior is connected and misses that
    boundary, so it lies wholly inside or wholly outside the region, as
    its interior point does.  The area sum is the second, independent
    half of the certificate.  A region that is not a polygon the
    package built is a SchemaError.
    """
    require(isinstance(region, (ConvexPolygon, LatticePolygon)),
            "region must be nd.gamma_minus, sd.domain or a convex_hull, "
            f"not {type(region).__name__}")
    steps = {s for e in sd.interior_edges + sd.boundary_edges
             for s in _unit_steps(e.a, e.b)}
    if not all(s in steps for a, b in region.edges() for s in _unit_steps(a, b)):
        return (), False
    inside = tuple(cid for cid, cell in enumerate(sd.cells)
                   if region.locate(cell.polygon.interior_point()) == "inside")
    area = sum(sd.cells[c].polygon.area2 for c in inside)
    return inside, area == region.area2
