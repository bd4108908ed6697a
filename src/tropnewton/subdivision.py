"""Regular subdivisions of lifted supports and the special subdivision
of the region under a Newton boundary.

The central construction lifts each support point (i, j) to height
nu(i, j) and takes the lower convex hull; facets project to the cells
of a regular subdivision.  The hull is a gift-wrap over integer triples
(heights are scaled by their common denominator).  The domain is the
hull of the lowest and highest point of each column: a point with
another point of its column above it and one below lies inside a
vertical segment, so it is no hull corner.  First a fan
prefilter drops the lifted points that lie strictly above the fan from
the lowest lifted point to the domain corners: they lie strictly above
the hull.  Then, over the kept points, one flat scan per facet picks
it and collects its tight points.  After the wrap, one local
certificate, ``_certify``, proves that the cells are the lower hull's
and builds the subdivision: they tile the domain, every interior edge
folds strictly upward, every tight point lies on its cell's plane, and
every point tight in no cell lies strictly above every cell's plane.
The split of the cells' edges into rim and interior edges is on
integers too, so there is no tolerance anywhere and no ``Fraction``
until a cell's plane is built.  The wrap never finds a facet twice, so
the cells are a plain list with no lookup by plane.

For a diagram the goal is a subdivision whose cells inside the region
under the boundary are exactly unit squares and half-square triangles.
The default separable lifting nu(i,j) = A(i) + B(j) with strictly
convex partial sums achieves this for straight boundaries and many bent
ones; for the rest, the same lifting kinked along the rows and columns
of the boundary corners does (see ``subdivide_diagram``).  Both are
separable with strictly increasing increments, so their hull is built
by ``_square_wrap`` and most of it needs no search, by two lemmas.

Squares lemma.  Take a separable nu = A(i) + B(j) with A and B
strictly convex, and let L be the affine interpolation of nu on a unit
square (its four lifted corners are coplanar, because nu(i+1, j+1) -
nu(i+1, j) = nu(i, j+1) - nu(i, j)).  Then nu - L = (A - A_lin) +
(B - B_lin) >= 0 at every point, with A_lin and B_lin the chords of A
and B over the square's two columns and two rows, and equality exactly
at the square's four corners.  So the square is a facet of any point
set that holds those corners.

Pocket lemma.  A point whose four incident unit squares are all full
(all their corners in the point set) lies only in square cells: those
four squares are cells, and they cover a neighbourhood of it.  So every
corner and every tight point of a non-square cell is in the pocket, the
points with at least one incident square that is not full, and the
minimum of the pencil through a wrap edge over the pocket points is the
true facet: the true facet's plane holds a pocket point left of the
edge, and every point lies on or above it.

Neither lemma is taken on trust: ``_certify`` proves these results
as it proves the general wrap's, each square's fourth corner on its
plane included, and a cell census checks that they are the special
tiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import (
    BadSequenceError,
    DegenerateHullError,
    DegenerateInputError,
    InternalCheckError,
    NotCoprimeError,
    RegularityCertificationError,
    check,
)
from .lattice import (
    ConvexPolygon,
    LatticePoint,
    convex_hull_of_sorted,
    lattice_key,
    lattice_length,
    segment_lattice_points,
)
from .newton import NewtonDiagram, StaircaseDecomposition, decompose_diagram
from .parsing import LiftedSupport

Plane = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class Cell:
    """One facet of the lower hull, projected to the plane.

    ``tight`` holds every support point on the facet, including points
    interior to edges; ``polygon`` keeps only the corners.
    """

    polygon: ConvexPolygon
    plane: Plane
    tight: tuple[LatticePoint, ...]

    @property
    def gradient(self) -> tuple[Fraction, Fraction]:
        return (self.plane[0], self.plane[1])

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
    lifting: LiftedSupport
    domain: ConvexPolygon
    cells: tuple[Cell, ...]
    interior_edges: tuple[SubdivisionEdge, ...]
    boundary_edges: tuple[SubdivisionEdge, ...]
    vertices: tuple[LatticePoint, ...]

    def boundary_vertex_count(self) -> int:
        """Vertices on the domain's boundary: those on the inner side of
        every domain edge line nx*i + ny*j = c and on one of them, so the
        least nx*i + ny*j - c is zero (``ConvexPolygon.locate``'s test)."""
        lines = _edge_lines(self.domain)
        return sum(1 for v in self.vertices
                   if min(nx * v.i + ny * v.j - c for nx, ny, c in lines) == 0)


def _edge_lines(polygon: ConvexPolygon) -> list[tuple[int, int, int]]:
    """(nx, ny, c) per edge uw: uw lies on nx*i + ny*j = c, and the
    polygon on the side where nx*i + ny*j >= c."""
    return [(u.j - w.j, w.i - u.i, u.j * w.i - u.i * w.j) for u, w in polygon.edges()]


def _lower_chain_edge(pts3, a, b):
    """First edge of the 2d lower hull of the lifted points on segment ab.

    ab is an edge of the support's hull, which holds every support
    point, so a point on the line of ab lies on the segment.  The fan,
    where it runs, keeps both corners, so the chain holds at least a
    and b.
    """
    dx, dy = b.i - a.i, b.j - a.j
    on_line = [(x * dx + y * dy, z, pt) for pt, (x, y, z) in pts3.items()
               if dx * (y - a.j) == dy * (x - a.i)]
    on_line.sort()
    chain: list = []
    for t, z, pt in on_line:
        while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (z - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (t - chain[-2][0])) <= 0:
            chain.pop()
        chain.append((t, z, pt))
    return chain[0][2], chain[1][2]


def lower_hull_subdivision(lifting: Union[LiftedSupport, Mapping]) -> RegularSubdivision:
    """Exact regular subdivision induced by the lifting's lower hull.

    A gift-wrap over the integer triples (i, j, scale * height).

    The fan prefilter comes first.  Let m be the lowest lifted point,
    the first in point order on ties.  For each pair of consecutive
    domain corners whose triangle with m has positive area, the fan
    triangle is (m, c[k-1], c[k]); together they tile the domain, and
    over each the fan is the plane through the three lifted points.
    Only the points on or below the fan are kept, by one exact integer
    plane test per point.  Why this loses nothing: m and the corners
    lie on the fan, so they are kept.  A plane that is on or below
    every kept point is on or below the three lifted points of each
    fan triangle, so on or below the fan over the whole domain.  A
    dropped point is strictly above the fan, so strictly above every
    such plane: it is never the pick and never tight, nor on the lower
    chain along a domain edge that gives the first wrap edge.  So the
    wrap below, run over the kept points only, finds the same cells.
    On diagram liftings every point is a hull vertex and nothing is
    dropped; on random liftings about half the points are.

    From an unclaimed directed edge ab, one scan over the kept points
    picks the next facet and collects its tight points.  The planes
    through ab form a pencil.  The scan starts from the vertical one,
    with normal n = (dy, -dx, 0), and a point strictly left of ab that
    lies strictly below the current plane becomes the pick: the plane
    through a, b and that point replaces the current one.  The test is
    n.c < 0 for the point's offset c from a; the first left point always
    passes it.  A left point with n.c = 0 is tied with the pick, and the
    tie list restarts at each new pick.  Why the last list holds every
    left point on the final plane: two planes through ab cross along
    it, so each new plane lies strictly below the old one on the open
    left side.  A point scanned before the last replacement lay on or
    above an older plane, so it lies strictly above the final one.  A
    point on the line of ab is tight when its lifted point lies on the
    lifted line through a and b, which every plane of the pencil
    contains.  The scan runs in sorted point order, so both lists come
    out sorted, their merge is the cell's sorted and distinct tight
    points, all on its plane, and the cell polygon is their monotone
    chain with no re-sort.

    No facet is found twice, so cells go into a plain list.  The facet
    found from ab lies left of ab, so ab is one of its counterclockwise
    edges (checked), and a directed edge has only one cell on its left.
    All of the facet's edges are claimed when it is found, and a
    claimed edge is never wrapped from again.

    A rim edge uv, one whose ends lie on the line of one domain edge, is
    never wrapped from in reverse: its cell lies left of uv, so the
    domain does too, and by convexity no support point lies strictly
    right of uv.  Every other edge has domain interior on both sides,
    so its reverse always finds a facet.

    The wrap checks no plane against every point: ``_certify`` proves
    the whole result once, after it.
    """
    if not isinstance(lifting, LiftedSupport):
        lifting = LiftedSupport.from_mapping(lifting)
    return _certify(lifting, *_wrap(lifting))


def _under_fan(pts3: dict, corners) -> dict:
    """The lifted points on or below the fan from the lowest one, m (see
    ``lower_hull_subdivision``).  Each point is located in the cone at m
    of its fan triangle and dropped only when it lies strictly above
    that triangle's plane.
    """
    mx, my, mz = min(pts3.values(), key=lambda p: p[2])
    lifted = [pts3[c] for c in corners]
    fans = []
    for (ux, uy, uz), (vx, vy, vz) in zip(lifted[-1:] + lifted[:-1], lifted):
        ux, uy, uz, vx, vy, vz = ux - mx, uy - my, uz - mz, vx - mx, vy - my, vz - mz
        n2 = ux * vy - uy * vx
        if n2 > 0:
            # the normal (u x v) points up, so n.c > 0 is strictly above
            fans.append((ux, uy, vx, vy, uy * vz - uz * vy, uz * vx - ux * vz, n2))
    kept = {}
    for pt, p in pts3.items():
        cx, cy, cz = p[0] - mx, p[1] - my, p[2] - mz
        for ux, uy, vx, vy, n0, n1, n2 in fans:
            if ux * cy - uy * cx >= 0 and vx * cy - vy * cx <= 0:
                if n0 * cx + n1 * cy + n2 * cz <= 0:
                    kept[pt] = p
                break
        else:
            kept[pt] = p
    return kept


def _column_extremes(heights) -> list[LatticePoint]:
    """The lowest and the highest point of each column, in point order:
    the only possible hull corners (see the module docstring), so their
    hull is the hull of all the points."""
    out: list[LatticePoint] = []
    for (pt, _), (nxt, _) in zip(heights, heights[1:]):
        if not out or out[-1].i != pt.i or nxt.i != pt.i:
            out.append(pt)
    out.append(heights[-1][0])
    return out


def _lifted(lifting: LiftedSupport):
    """The domain, the height scale, and each point's integer lifted
    point (i, j, scale * height), in point order."""
    heights = lifting.entries  # sorted and distinct, see LiftedSupport
    if len(heights) < 3:
        raise DegenerateInputError("need at least 3 support points")
    try:
        domain = convex_hull_of_sorted(_column_extremes(heights))
    except DegenerateHullError:
        raise DegenerateInputError("support points are collinear") from None
    ratios = [h.as_integer_ratio() for _, h in heights]
    scale = lcm(*[d for _, d in ratios])
    return domain, scale, {pt: (pt.i, pt.j, n * (scale // d))
                           for (pt, _), (n, d) in zip(heights, ratios)}


def _wrap(lifting: LiftedSupport):
    """The domain, the kept lifted points, the cells in the order found
    with their integer planes (n0, n1, n2, level), and each corner's
    rim-line bitmask.  A lifted point (x, y, z) lies strictly above a
    cell's plane when n0*x + n1*y + n2*z > level; n2 > 0."""
    domain, scale, pts3 = _lifted(lifting)
    pts3 = _under_fan(pts3, domain.vertices)
    lines: dict[LatticePoint, int] = {}
    first = _lower_chain_edge(pts3, domain.vertices[0], domain.vertices[1])
    cells, planes = _wrap_over(pts3, scale, _edge_lines(domain), lines, set(), [first])
    return domain, pts3, cells, planes, lines


def _square_wrap(lifting: LiftedSupport):
    """``_wrap``'s output for a lifting that is separable with strictly
    increasing increments: the squares by proof, the scan only over the
    pocket (the squares and pocket lemmas, module docstring).

    Every full square, one whose four corners are support points, is a
    cell with the plane through three of its corners (``_certify``
    checks the fourth), and its edges are claimed up front.  The wrap then picks and collects over the pocket only.
    It starts from the squares' frontier edges, the reverses of square
    edges that are off the rim and have no square on their other side,
    or from the lower chain edge when there is no square (then every
    point is in the pocket).  There is no fan prefilter: every lifted
    point lies on a strictly convex surface, so the fan would drop none.
    """
    domain, scale, pts3 = _lifted(lifting)
    rim = _edge_lines(domain)
    lines: dict[LatticePoint, int] = {}
    claimed: set[tuple[LatticePoint, LatticePoint]] = set()
    cells: list[Cell] = []
    planes: list[tuple[int, int, int, int]] = []
    full = set()
    key = {pt: pt for pt in pts3}.get  # the support's own point objects
    for ll, (i, j, z) in pts3.items():
        lr, ul, ur = key((i + 1, j)), key((i, j + 1)), key((i + 1, j + 1))
        if lr and ul and ur:
            # z rises by z(lr) - z along i and by z(ul) - z along j
            n0, n1 = z - pts3[lr][2], z - pts3[ul][2]
            level = n0 * i + n1 * j + z
            plane = (Fraction(-n0, scale), Fraction(-n1, scale), Fraction(level, scale))
            # a unit square, counterclockwise from its smallest corner
            square = ConvexPolygon._trusted((ll, lr, ur, ul))
            cells.append(Cell(square, plane, (ll, ul, lr, ur)))
            planes.append((n0, n1, 1, level))
            claimed.update(((ll, lr), (lr, ur), (ur, ul), (ul, ll)))
            _mark_rim(lines, rim, (ll, lr, ur, ul))
            full.add(ll)
    # the frontier: square edges off the rim with no square on their right
    queue = [(v, u) for u, v in claimed if (v, u) not in claimed and not lines[u] & lines[v]]
    if not cells:
        queue.append(_lower_chain_edge(pts3, domain.vertices[0], domain.vertices[1]))
    pocket = {pt: p for pt, p in pts3.items()
              if not {pt, (pt.i - 1, pt.j), (pt.i, pt.j - 1), (pt.i - 1, pt.j - 1)} <= full}
    more_cells, more_planes = _wrap_over(pocket, scale, rim, lines, claimed, queue)
    return domain, pts3, cells + more_cells, planes + more_planes, lines


def _mark_rim(lines: dict, rim, vertices) -> None:
    """Bit k of a corner's mask: the corner lies on the line
    nx*i + ny*j = c of domain edge k."""
    for v in vertices:
        if v not in lines:
            i, j = v
            lines[v] = sum([1 << k for k, (nx, ny, c) in enumerate(rim)
                            if nx * i + ny * j == c])


def _wrap_over(points: dict, scale: int, rim, lines: dict, claimed: set, queue: list):
    """The gift-wrap from the edges in ``queue``, one scan over
    ``points`` per facet (see ``lower_hull_subdivision``): the cells in
    the order found and their integer planes.  ``claimed`` holds the
    directed edges that already have a cell on their left, and
    ``lines`` the rim-line masks; both grow with each cell."""
    cells: list[Cell] = []
    planes: list[tuple[int, int, int, int]] = []
    kept = [(pt, x, y, z) for pt, (x, y, z) in points.items()]
    while queue:
        a, b = queue.pop()
        if (a, b) in claimed:
            continue
        ax, ay, az = points[a]
        dx, dy, dz = points[b][0] - ax, points[b][1] - ay, points[b][2] - az
        # for a point's offset c = (cx, cy, cz) from a, left = dx*cy - dy*cx
        # is positive when the point is left of ab; n = ab x c for the pick
        # is the current plane's normal and level = n.a, so side = n.c.
        # The vertical plane comes first; n2 > 0 (n points up) once a pick
        # is made, because the pick is left of ab
        n0, n1, n2 = dy, -dx, 0
        level = base = dy * ax - dx * ay
        tied: list[LatticePoint] = []
        on_line: list[LatticePoint] = []
        for pt, x, y, z in kept:
            left = dx * y - dy * x + base
            if left > 0:
                side = n0 * x + n1 * y + n2 * z - level
                if side < 0:
                    cx, cy, cz = x - ax, y - ay, z - az
                    n0, n1, n2 = dy * cz - dz * cy, dz * cx - dx * cz, left
                    level = n0 * ax + n1 * ay + n2 * az
                    tied = [pt]
                elif not side:
                    tied.append(pt)
            elif not left:
                cx, cz = x - ax, z - az
                if dx * cz == dz * cx and dy * cz == dz * (y - ay):
                    on_line.append(pt)
        check(n2 > 0, "wrap edge has no support point on its left")
        tight = sorted(tied + on_line)
        den = n2 * scale
        plane = (Fraction(-n0, den), Fraction(-n1, den), Fraction(level, den))
        cell = Cell(convex_hull_of_sorted(tight), plane, tuple(tight))
        edge_list = list(cell.polygon.edges())
        check((a, b) in edge_list, "wrap edge is not a facet edge")
        cells.append(cell)
        planes.append((n0, n1, n2, level))
        _mark_rim(lines, rim, cell.polygon.vertices)
        for u, v in edge_list:
            claimed.add((u, v))
            if not lines[u] & lines[v] and (v, u) not in claimed:
                queue.append((v, u))
    return cells, planes


def _certify(lifting, domain, pts3, cells, planes, lines) -> RegularSubdivision:
    """The subdivision of a wrap's output, once proved to be exactly the
    lower hull's, in O(points + edges) when few points are tight in no
    cell.

    The input is what ``_wrap`` or ``_square_wrap`` returns: the domain,
    ``pts3`` the kept lifted points, the cells (each polygon the hull of
    its tight points) with their integer planes in ``planes``, and
    ``lines`` the rim-line bitmasks.  The cells, and their planes with
    them, are sorted into vertex order first; that order fixes the cell
    ids.  It checks that

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
    taken first (the full squares are cells, so the pocket lemma holds),
    and it is a left point of the cell's wrap edge on the plane, or on
    its lifted line: the scan collected it.  Hence the cells and their
    tight sets are exactly the lower hull's.
    """
    pairs = sorted(zip(cells, planes), key=lambda pair: pair[0].polygon.vertices)
    cells = tuple(cell for cell, _ in pairs)
    planes = [plane for _, plane in pairs]
    # each directed edge's cell, and the corner that follows the edge
    owner: dict[tuple[LatticePoint, LatticePoint], tuple[int, LatticePoint]] = {}
    for k, cell in enumerate(cells):
        v = cell.polygon.vertices
        for u, w, after in zip(v, v[1:] + v[:1], v[2:] + v[:2]):
            if (u, w) in owner:
                raise InternalCheckError(f"edge {u}-{w} claimed by two cells")
            owner[u, w] = k, after
    interior: list[SubdivisionEdge] = []
    boundary: list[SubdivisionEdge] = []
    for (u, w), (k, _) in owner.items():
        if lines[u] & lines[w]:
            boundary.append(SubdivisionEdge(u, w, (k,)) if u < w else SubdivisionEdge(w, u, (k,)))
        elif (w, u) not in owner:
            raise InternalCheckError(f"inner edge {u}-{w} has a cell on one side only")
        elif u < w:
            right, after = owner[w, u]
            n0, n1, n2, level = planes[k]
            x, y, z = pts3[after]
            if not n0 * x + n1 * y + n2 * z > level:
                raise InternalCheckError(f"inner edge {u}-{w} does not fold upward")
            interior.append(SubdivisionEdge(u, w, (k, right) if k < right else (right, k)))
    tight = set()
    for cell, (n0, n1, n2, level) in zip(cells, planes):
        for pt in cell.tight:
            x, y, z = pts3[pt]
            if n0 * x + n1 * y + n2 * z != level:
                raise InternalCheckError(f"tight point {pt} is off its cell's plane")
        tight.update(cell.tight)
    loose = [p for pt, p in pts3.items() if pt not in tight]
    for n0, n1, n2, level in planes:
        for x, y, z in loose:
            if not n0 * x + n1 * y + n2 * z > level:
                raise InternalCheckError("wrap produced a non-supporting plane")
    check(sum(c.polygon.area2 for c in cells) == domain.area2,
          "cells do not tile the support hull")
    interior.sort()
    boundary.sort()
    return RegularSubdivision(lifting, domain, cells, tuple(interior),
                              tuple(boundary), tuple(sorted(lines)))


# --- liftings ---------------------------------------------------------------

def separable_lifting(diagram_or_points, a: Sequence[int] | None = None,
                      b: Sequence[int] | None = None) -> LiftedSupport:
    """nu(i, j) = (a_0 + ... + a_i) + (b_0 + ... + b_j).

    Strictly increasing increment sequences make the lifting strictly
    convex along each axis, which is what forces every unit square whose
    corners are all in the domain to appear as a cell.  Default
    increments 0, 1, 2, ... give nu = i(i+1)/2 + j(j+1)/2.
    """
    if isinstance(diagram_or_points, NewtonDiagram):
        points = diagram_or_points.gamma_minus_lattice
    else:
        points = tuple(lattice_key(p) for p in diagram_or_points)
    need_i = max(pt.i for pt in points)
    need_j = max(pt.j for pt in points)

    def prefix(seq, need, name):
        if seq is None:
            seq = range(need + 1)
        seq = [Fraction(v) for v in seq]
        if len(seq) < need + 1:
            raise BadSequenceError(f"{name} needs at least {need + 1} increments")
        for u, v in zip(seq, seq[1:]):
            if v <= u:
                raise BadSequenceError(f"{name} increments must strictly increase")
        out = []
        total = Fraction(0)
        for v in seq[:need + 1]:
            total += v
            out.append(total)
        return out

    sa = prefix(a, need_i, "a")
    sb = prefix(b, need_j, "b")
    # equal heights share one Fraction, so a kept lifting holds one object
    # per distinct height (x^n + y^(n+1) for n = 10, 20, 30, 40 has 1658
    # heights and 672 values)
    shared: dict[Fraction, Fraction] = {}
    heights = {}
    for pt in points:
        h = sa[pt.i] + sb[pt.j]
        heights[pt] = shared.setdefault(h, h)
    return LiftedSupport.from_mapping(heights)


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
    Why the first half suffices for the cell list: the cells have
    disjoint interiors and tile the convex domain, so a boundary on
    their 1-skeleton lies in the domain; each cell's interior is
    connected and misses that boundary, so it lies wholly inside or
    wholly outside the region, as its interior point does.  The area
    sum is the second, independent half of the certificate.  When the
    region is not clean the list still names the cells whose interior
    point is inside, but they need not tile it.
    """
    steps = {s for e in sd.interior_edges + sd.boundary_edges
             for s in _unit_steps(e.a, e.b)}
    on_skeleton = all(s in steps for a, b in region.edges()
                      for s in _unit_steps(a, b))
    inside = tuple(cid for cid, cell in enumerate(sd.cells)
                   if region.locate(cell.polygon.interior_point()) == "inside")
    area = sum(sd.cells[c].polygon.area2 for c in inside)
    return inside, on_skeleton and area == region.area2


# --- square counting lemmas ------------------------------------------------

def triangle_square_count(p: int, q: int) -> int:
    """Unit grid squares contained in the triangle (0,0), (p,0), (0,q),
    counted by direct containment tests."""
    if p < 1 or q < 1 or lattice_length((0, 0), (p, q)) != 1:
        raise NotCoprimeError(f"legs must be positive and coprime, got ({p}, {q})")
    count = 0
    for a in range(p):
        for bb in range(q):
            if q * (a + 1) + p * (bb + 1) <= p * q:
                count += 1
    return count


def crossed_square_count(p: int, q: int) -> int:
    """Unit grid squares whose interior meets the open segment from
    (0, q) to (p, 0)."""
    if p < 1 or q < 1 or lattice_length((0, 0), (p, q)) != 1:
        raise NotCoprimeError(f"legs must be positive and coprime, got ({p}, {q})")
    count = 0
    for a in range(p):
        for bb in range(q):
            lo = q * a + p * bb
            if lo < p * q < lo + p + q:
                count += 1
    return count


# --- the special subdivision of a diagram -----------------------------------

@dataclass(frozen=True)
class SubdividedDiagram:
    diagram: NewtonDiagram
    decomposition: StaircaseDecomposition
    subdivision: RegularSubdivision
    inside_cells: tuple[int, ...]
    used_fallback: bool

    @property
    def lifting(self) -> LiftedSupport:
        return self.subdivision.lifting

    def inside_kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for cid in self.inside_cells:
            k = self.subdivision.cells[cid].kind
            out[k] = out.get(k, 0) + 1
        return out

    @property
    def square_cell_ids(self) -> tuple[int, ...]:
        return tuple(c for c in self.inside_cells
                     if self.subdivision.cells[c].kind == "square")

    @property
    def touching_square_count(self) -> int:
        nd = self.diagram
        return sum(1 for c in self.square_cell_ids
                   if any(nd.on_gamma(v)
                          for v in self.subdivision.cells[c].polygon.vertices))


def _land(nd: NewtonDiagram, dec: StaircaseDecomposition, lifting: LiftedSupport,
          used_fallback: bool) -> SubdividedDiagram | None:
    """The subdivided diagram if the lifting, separable with strictly
    increasing increments, lands on the special tiling.

    Landing means: the cells under the boundary tile the region exactly,
    each is a unit square or a half-square triangle, and the squares
    agree with the decomposition's square and touching counts.
    """
    sd = _certify(lifting, *_square_wrap(lifting))
    inside, clean = classify_cells_by_region(sd, nd.gamma_minus)
    result = SubdividedDiagram(nd, dec, sd, inside, used_fallback)
    if (clean and set(result.inside_kinds()) <= {"square", "half_triangle"}
            and len(result.square_cell_ids) == dec.square_count
            and result.touching_square_count == dec.touching_count):
        return result
    return None


def subdivide_diagram(nd: NewtonDiagram) -> SubdividedDiagram:
    """Special subdivision of the region under the Newton boundary.

    Tries the default separable lifting first.  If its restriction to
    the region is not the special tiling, tries the separable lifting
    kinked at the boundary corners, with increments

        a_k = k + lam * #{interior corners v : v.i < k}
        b_k = k + lam * #{interior corners v : v.j < k},  lam = (p + q)^2,

    and ``used_fallback`` is set.  Why the kink lands: its heights are
    lam * K + s, with s the default lifting and

        K(i, j) = sum over interior corners v of relu(i - v.i) + relu(j - v.j).

    K is convex and affine exactly on the boxes cut out by the rows and
    columns through the corners, so its own subdivision splits the
    region into the staircase rectangles and the corner triangle under
    each boundary edge.  Once lam is large, lam * K + s induces the
    refinement of that split by s (De Loera, Rambau, Santos,
    Triangulations, 2010).  s tiles each rectangle by unit squares, and
    on a corner triangle it differs from the default lifting of the
    single-edge diagram of the same shape by an affine function (a
    translation), which does not change its subdivision; the default
    lifting lands on every single-edge diagram tried (p, q <= 30).
    lam = (p + q)^2 was large enough on every chain tried.

    Both liftings are separable with strictly increasing increments, so
    ``_land`` builds each hull with ``_square_wrap``: the full unit
    squares by the squares lemma, the gift-wrap only over the pocket
    (module docstring), and one ``_certify`` proof of the whole result.
    The cell census then checks that the result is the special tiling;
    a miss of the kinked lifting raises RegularityCertificationError
    rather than passing silently.
    """
    dec = decompose_diagram(nd)
    result = _land(nd, dec, separable_lifting(nd), False)
    if result is not None:
        return result
    lam = (nd.p + nd.q) ** 2
    result = _land(nd, dec, _kinked_lifting(nd, lam), True)
    if result is None:
        raise RegularityCertificationError(
            "kinked separable lifting missed the special tiling",
            {"chain": [tuple(v) for v in nd.gamma_vertices], "lam": lam})
    return result


def _kinked_lifting(nd: NewtonDiagram, lam: int) -> LiftedSupport:
    """The separable lifting kinked at the boundary's interior corners,
    with weight lam (see ``subdivide_diagram``)."""
    corners = nd.gamma_vertices[1:-1]
    a = [k + lam * sum(1 for v in corners if v.i < k) for k in range(nd.p + 1)]
    b = [k + lam * sum(1 for v in corners if v.j < k) for k in range(nd.q + 1)]
    return separable_lifting(nd, a, b)
