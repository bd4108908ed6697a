"""Regular subdivisions of lifted supports and the special subdivision
of the region under a Newton boundary.

The central construction lifts each support point (i, j) to height
nu(i, j) and takes the lower convex hull; facets project to the cells
of a regular subdivision.  The hull is a gift-wrap over integer triples
(heights are scaled by their common denominator).  The domain is the
hull of the support, whose monotone chain (``lattice.lower_chain``,
which also gives the first wrap edge) skips every point but the lowest
and the highest of its column.  First a fan prefilter drops the lifted
points that lie strictly above the fan from the lowest lifted point to
the domain corners: they lie strictly above the hull.  Then, over the
kept points, one flat scan per facet, ``_least_plane``, picks it and
collects its tight points; the pocket pick below runs the same scan
over the points its line search keeps.  After the wrap, one local
certificate, ``_certify``, proves that the cells are the lower hull's
and builds the subdivision: they tile the domain, every interior edge
folds strictly upward, every tight point lies on its cell's plane, and
every point tight in no cell lies strictly above every cell's plane.
The split of the cells' edges into rim and interior edges is on
integers too, so there is no tolerance anywhere.  Both wraps hand
``_certify`` plain facet records, each its corners, its tight points
and its integer plane; ``_certify`` is the only place in the hull
that makes a ``Fraction`` or a ``Cell``, once per cell after the
proof.  The wrap never finds a facet twice, so the facets are a plain
list with no lookup by plane.

For a diagram the goal is a subdivision whose cells inside the region
under the boundary are exactly unit squares and half-square triangles.
The default separable lifting nu(i,j) = A(i) + B(j) with strictly
convex partial sums achieves this for straight boundaries and many bent
ones; for the rest, the same lifting kinked along the rows and columns
of the boundary corners does (see ``subdivide_diagram``).  Both are
separable with strictly increasing increments, so their hull is built
by ``_square_wrap``: most of it needs no search, and the rest only a
short one along lines, by three lemmas.

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

Line lemma.  The pocket pick need not scan the pocket either.  For a
wrap edge ab, every plane through the lifted a and b is z = l + s*left,
with l one affine function through them and left the affine function
that vanishes on the line of ab and is positive on its left; the pick
is a left point c with the least s(c) = (z_c - l(c)) / left(c), and
the ties at that least value are the tight points left of ab.  Along
any lattice line, z is strictly convex (A or B is, and the other term
is constant or convex), so z - l - t*left is too, for every t: it is
at most 0 on an interval of the line, and 0 at two points at most.  At
a left point, s <= t exactly where it is at most 0.  So over the left
points of one line, in order, s strictly falls, then strictly rises,
with at most two points tied at its least value, next to each other:
a gallop and a bisection find them (``_first_least``).  Along one
line, left is affine, so the line's left points are a prefix or a
suffix of it, or all of it or none when the line is parallel to ab.
By the same convexity, a and b are the only points of the line of ab
on the lifted line through them, so no other point of that line is
tight.

None of the lemmas is taken on trust: ``_certify`` proves these
results as it proves the general wrap's, each square's fourth corner
on its plane included, and ``_land`` checks that they are the special
tiling.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from math import lcm
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import (
    BadSequenceError,
    DegenerateHullError,
    DegenerateInputError,
    InternalCheckError,
    NotCoprimeError,
    RegularityCertificationError,
    check,
    require,
)
from .lattice import (
    ConvexPolygon,
    LatticePoint,
    convex_hull_of_sorted,
    lattice_key,
    lattice_length,
    lower_chain,
    segment_lattice_points,
)
from .newton import NewtonDiagram
from .parsing import LiftedSupport

Plane = tuple[Fraction, Fraction, Fraction]


class Cell(NamedTuple):
    """One facet of the lower hull, projected to the plane.

    ``tight`` holds every support point on the facet, including points
    interior to edges; ``polygon`` keeps only the corners.  A named
    tuple, like ``SubdivisionEdge``: one is built per facet.
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
        """Vertices that ``ConvexPolygon.locate`` puts on the domain's
        boundary."""
        return sum(self.domain.locate(v) == "boundary" for v in self.vertices)


def _edge_lines(polygon: ConvexPolygon) -> list[tuple[int, int, int]]:
    """(nx, ny, c) per edge uw: uw lies on nx*i + ny*j = c, and the
    polygon on the side where nx*i + ny*j >= c."""
    return [(u.j - w.j, w.i - u.i, u.j * w.i - u.i * w.j) for u, w in polygon.edges()]


def _lower_chain_edge(pts3, a, b):
    """First edge of the 2d lower hull of the lifted points on segment ab,
    by ``lower_chain`` over (t, z), t the position along ab.

    ab is an edge of the support's hull, which holds every support
    point, so a point on the line of ab lies on the segment.  The fan,
    where it runs, keeps both corners, so the chain holds at least a
    and b.
    """
    ai, aj = a
    dx, dy = b.i - ai, b.j - aj
    on_line = {x * dx + y * dy: (z, pt) for pt, (x, y, z) in pts3.items()
               if dx * (y - aj) == dy * (x - ai)}
    (t0, _), (t1, _) = lower_chain(sorted((t, z) for t, (z, _) in on_line.items()))[:2]
    return on_line[t0][1], on_line[t1][1]


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
    of a fan triangle that holds it and dropped only when it lies
    strictly above that triangle's plane.  The cones are tried largest
    triangle first, so most points are located in few tests.  A point on
    the ray shared by two cones lies in both, and both planes hold m and
    the lifted corner on that ray, so they agree along it.
    """
    mx, my, mz = min(pts3.values(), key=itemgetter(2))
    lifted = [pts3[c] for c in corners]
    fans = []
    for (ux, uy, uz), (vx, vy, vz) in zip(lifted[-1:] + lifted[:-1], lifted):
        ux, uy, uz, vx, vy, vz = ux - mx, uy - my, uz - mz, vx - mx, vy - my, vz - mz
        n2 = ux * vy - uy * vx
        if n2 > 0:
            # the normal (u x v) points up, so n.c > 0 is strictly above
            fans.append((ux, uy, vx, vy, uy * vz - uz * vy, uz * vx - ux * vz, n2))
    fans.sort(key=itemgetter(6), reverse=True)  # n2 is twice the triangle's area
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


def _lifted(lifting: LiftedSupport):
    """The domain, the height scale, and each point's integer lifted
    point (i, j, scale * height), in point order."""
    heights = lifting.entries  # sorted and distinct, see LiftedSupport
    if len(heights) < 3:
        raise DegenerateInputError("need at least 3 support points")
    try:
        domain = convex_hull_of_sorted([pt for pt, _ in heights])
    except DegenerateHullError:
        raise DegenerateInputError("support points are collinear") from None
    ratios = [h.as_integer_ratio() for _, h in heights]
    scale = lcm(*{d for _, d in ratios})
    # a LatticePoint plus a 1-tuple is the plain triple (i, j, z)
    return domain, scale, {pt: pt + (n * (scale // d),)
                           for (pt, _), (n, d) in zip(heights, ratios)}


def _wrap(lifting: LiftedSupport):
    """The domain, the kept lifted points, the height scale, the facets
    in the order found, and each kept point's rim-line bitmask.  A facet
    is a record (vertices, tight, (n0, n1, n2, level)): the cell's
    polygon corners, counterclockwise from the smallest, its sorted tight
    points, and its integer plane.  A lifted point (x, y, z) lies
    strictly above that plane when n0*x + n1*y + n2*z > level; n2 > 0."""
    domain, scale, pts3 = _lifted(lifting)
    pts3 = _under_fan(pts3, domain.vertices)
    lines = _rim_masks(pts3, _edge_lines(domain))
    first = _lower_chain_edge(pts3, domain.vertices[0], domain.vertices[1])
    facets = _wrap_over(pts3, lines, set(), [first], _scan_pick(pts3))
    return domain, pts3, scale, facets, lines


def _square_wrap(lifting: LiftedSupport):
    """``_wrap``'s output for a lifting that is separable with strictly
    increasing increments: the squares by proof, the pick by a search
    along the lines of the pocket (the squares, pocket and line lemmas,
    module docstring).

    Every full square, one whose four corners are support points, is a
    facet with the plane through three of its corners (``_certify``
    checks the fourth), and its edges are claimed up front.  The wrap
    then picks and collects over the pocket only, with ``_line_pick``.
    It starts from the squares' frontier edges, the reverses of square
    edges that are off the rim and have no square on their other side.
    There is no fan prefilter: every lifted point lies on a strictly
    convex surface, so the fan would drop none.
    """
    domain, scale, pts3 = _lifted(lifting)
    lines = _rim_masks(pts3, _edge_lines(domain))
    claimed: set[tuple[LatticePoint, LatticePoint]] = set()
    facets = []
    full = set()
    key = {pt: pt for pt in pts3}.get  # the support's own point objects
    for ll, (i, j, z) in pts3.items():
        lr, ul, ur = key((i + 1, j)), key((i, j + 1)), key((i + 1, j + 1))
        if lr and ul and ur:
            # z rises by z(lr) - z along i and by z(ul) - z along j
            n0, n1 = z - pts3[lr][2], z - pts3[ul][2]
            # a unit square, counterclockwise from its smallest corner
            facets.append(((ll, lr, ur, ul), (ll, ul, lr, ur), (n0, n1, 1, n0 * i + n1 * j + z)))
            claimed.update(((ll, lr), (lr, ur), (ur, ul), (ul, ll)))
            full.add(ll)
    # the frontier: square edges off the rim with no square on their right.
    # There is always a square to start from: the liftings ``_land`` passes
    # hold every lattice point of the region under a diagram's boundary,
    # which holds the unit square at the origin.  Each support point of a
    # singular germ has i + j >= 2, so p, q >= 2, and the boundary, whose
    # vertices are support points, passes on or above (1, 1).
    queue = [(v, u) for u, v in claimed if (v, u) not in claimed and not lines[u] & lines[v]]
    pocket = {pt: p for pt, p in pts3.items()
              if not {pt, (pt.i - 1, pt.j), (pt.i, pt.j - 1), (pt.i - 1, pt.j - 1)} <= full}
    facets += _wrap_over(pocket, lines, claimed, queue, _line_pick(pocket))
    return domain, pts3, scale, facets, lines


def _rim_masks(points: dict, rim) -> dict[LatticePoint, int]:
    """Each point's rim-line bitmask: bit k is set when the point lies on
    the line nx*i + ny*j = c of domain edge k.  One pass per line."""
    masks = dict.fromkeys(points, 0)
    for k, (nx, ny, c) in enumerate(rim):
        for pt, (x, y, _) in points.items():
            if nx * x + ny * y == c:
                masks[pt] |= 1 << k
    return masks


def _wrap_over(points: dict, lines: dict, claimed: set, queue: list, pick):
    """The gift-wrap from the edges in ``queue``, one ``pick`` over
    ``points`` per facet: the facet records (see ``_wrap``) in the order
    found.  ``pick(a, b)`` gives the normal (n0, n1, n2) and level of
    the least plane through the lifted a and b on which a point left of
    ab lies, with n2 > 0 unless there is no such point, and the facet's
    tight points, sorted.  ``claimed`` holds the directed edges that
    already have a cell on their left, and grows with each facet;
    ``lines`` holds every point's rim-line mask."""
    facets = []
    while queue:
        a, b = queue.pop()
        if (a, b) in claimed:
            continue
        n0, n1, n2, level, tight = pick(a, b)
        if n2 <= 0:
            raise InternalCheckError("wrap edge has no support point on its left")
        v = convex_hull_of_sorted(tight).vertices
        edges = list(zip(v, v[1:] + v[:1]))
        if (a, b) not in edges:
            raise InternalCheckError("wrap edge is not a facet edge")
        facets.append((v, tight, (n0, n1, n2, level)))
        claimed.update(edges)
        # no edge of one polygon is the reverse of another of its edges
        for u, w in edges:
            if not lines[u] & lines[w] and (w, u) not in claimed:
                queue.append((w, u))
    return facets


def _scan_pick(points: dict):
    """The general pick: one flat scan over ``points`` per wrap edge
    picks the facet and collects its tight points (see
    ``lower_hull_subdivision``)."""
    items = list(points.items())

    def pick(a, b):
        n0, n1, n2, level, tied, on_line = _least_plane(items, points[a], points[b])
        return n0, n1, n2, level, sorted(tied + on_line)

    return pick


def _least_plane(items, a3, b3):
    """Both picks' scan over ``items``, each a point and its lifted point
    (see ``lower_hull_subdivision``): the least plane through the lifted
    a3 and b3 on which a point left of ab lies, as (n0, n1, n2, level),
    then the left points on it and the points on the lifted line through
    a3 and b3.  A point's offset c from a is left of ab when dx*cy -
    dy*cx > 0, that is when dx*y - dy*x > ``rest``.  The plane starts
    vertical, n = (dy, -dx, 0); each pick c makes it n = ab x c, with n2
    > 0, and level = n.a, and a point p lies below it when n.p < level."""
    ax, ay, az = a3
    bx, by, bz = b3
    dx, dy, dz = bx - ax, by - ay, bz - az
    rest = dx * ay - dy * ax
    n0, n1, n2 = dy, -dx, 0
    level = -rest
    tied: list[LatticePoint] = []
    on_line: list[LatticePoint] = []
    for pt, (x, y, z) in items:
        left = dx * y - dy * x
        if left > rest:
            side = n0 * x + n1 * y + n2 * z
            if side < level:
                cx, cy, cz = x - ax, y - ay, z - az
                n0, n1, n2 = dy * cz - dz * cy, dz * cx - dx * cz, left - rest
                level = n0 * ax + n1 * ay + n2 * az
                tied = [pt]
            elif side == level:
                tied.append(pt)
        elif left == rest:
            cx, cz = x - ax, z - az
            if dx * cz == dz * cx and dy * cz == dz * (y - ay):
                on_line.append(pt)
    return n0, n1, n2, level, tied, on_line


# a line with more pocket points than this is searched, the rest are
# scanned: on a shorter line, a search's fixed cost (a call, a bisect and
# a few tests) is about that of the scan
_SEARCHED = 16


def _line_pick(points: dict):
    """The pocket pick of ``_square_wrap``, by the line lemma (module
    docstring): the pocket's items, each a point and its lifted point,
    are split along whichever axis has fewer lines, columns or rows,
    each sorted along itself.

    For a wrap edge ab, ``bisect`` finds the left points of each long
    line, and ``_first_least``, starting where the line crosses the
    line of ab, the first of them with the least pencil parameter s;
    the point after it is its only possible tie partner.  Those two points of
    each long line and every point of the short lines then go through
    ``_least_plane``, the scan of ``_scan_pick``.  So its tie list holds
    every pocket point left of ab on the least plane, and with a and b,
    the only tight points on the line of ab, it is the facet's tight
    set.
    """
    items = list(points.items())  # in point order: by column, then by row
    axis = 0 if len({pt.i for pt in points}) <= len({pt.j for pt in points}) else 1
    by_col = not axis

    def across(item):
        return item[0][axis]

    if axis:
        items.sort(key=across)  # stable, so each row stays sorted
    scanned: list = []
    searched = []
    for c, run in groupby(items, across):
        line = list(run)
        if len(line) > _SEARCHED:
            searched.append((c, [pt[1 - axis] for pt, _ in line], line))
        else:
            scanned += line

    def pick(a, b):
        ax, ay, az = points[a]
        bx, by, bz = points[b]
        dx, dy, dz = bx - ax, by - ay, bz - az
        base = dy * ax - dx * ay  # left = dx*y - dy*x + base
        # along a line, with t its running coordinate, left = sl*t + ol
        sl = dx if by_col else -dy
        kept: list = []
        for c, ts, line in searched:
            ol = base - dy * c if by_col else base + dx * c
            # the left points, and where the line crosses the line of ab
            if sl > 0:
                lo, hi = bisect_right(ts, -ol // sl), len(ts)
                k = lo
            elif sl < 0:
                lo, hi = 0, bisect_left(ts, -(ol // sl))
                k = hi - 1
            elif ol > 0:
                lo, hi = 0, len(ts)
                k = min(bisect_left(ts, ay if by_col else ax), hi - 1)
            else:
                continue
            if lo < hi:
                first = _first_least(line, lo, hi, k, ax, ay, az, dx, dy, dz)
                kept += line[first:first + 2]
        # the lifted line through a and b holds no other point (line lemma)
        n0, n1, n2, level, tied, _ = _least_plane(chain(scanned, kept), (ax, ay, az),
                                                  (bx, by, bz))
        return n0, n1, n2, level, sorted(tied + [a, b])

    return pick


def _first_least(line: list, lo: int, hi: int, k: int, ax, ay, az, dx, dy, dz) -> int:
    """The first index of the least pencil parameter s over the left
    points ``line[lo:hi]`` of a wrap edge from a = (ax, ay, az) along
    d = (dx, dy, dz), by a gallop from index k and a bisection.

    s falls from m - 1 to m, that is det(d, u - a, v - a) < 0 for the
    lifted points u of line[m - 1] and v of line[m], exactly for
    lo < m <= that index (line lemma, module docstring).  The search
    keeps the index in [first, last), and the gallop doubles its step
    away from k until the test turns, so an index d places from k costs
    O(log d) tests.
    """

    def falls(m):
        _, (ux, uy, uz) = line[m - 1]
        _, (vx, vy, vz) = line[m]
        ux, uy, uz, vx, vy, vz = ux - ax, uy - ay, uz - az, vx - ax, vy - ay, vz - az
        return dx * (uy * vz - uz * vy) - dy * (ux * vz - uz * vx) + dz * (ux * vy - uy * vx) < 0

    first, last, step = lo, hi, 1
    if k > lo and not falls(k):
        last = k
        while last - step > first:
            if falls(last - step):
                first = last - step
                break
            last -= step
            step *= 2
    else:
        first = k
        while first + step < last:
            if not falls(first + step):
                last = first + step
                break
            first += step
            step *= 2
    while last - first > 1:
        m = (first + last) // 2
        if falls(m):
            first = m
        else:
            last = m
    return first


def _certify(lifting, domain, pts3, scale, facets, lines) -> RegularSubdivision:
    """The subdivision of a wrap's output, once proved to be exactly the
    lower hull's, in O(points + edges) when few points are tight in no
    cell.

    The input is what ``_wrap`` or ``_square_wrap`` returns: the domain,
    ``pts3`` the kept lifted points, the height scale, the facet records
    (each polygon the hull of its tight points, with its integer plane),
    and ``lines`` the kept points' rim-line bitmasks.  The facets are
    sorted into vertex order first; that order fixes the cell ids.  It
    checks that

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

    Only then is each cell built, its plane z = (level - n0*i - n1*j) /
    (n2 * scale) in ``Fraction``s.
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
        plane = (Fraction(-n0, den), Fraction(-n1, den), Fraction(level, den))
        cells.append(Cell(ConvexPolygon._trusted(v), plane, tuple(on)))
    return RegularSubdivision(lifting, domain, tuple(cells), tuple(interior),
                              tuple(boundary), tuple(sorted(corners)))


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
        require(all(i >= 0 and j >= 0 for i, j in points),
                "separable lifting points need nonnegative coordinates")
    need_i = max((pt.i for pt in points), default=0)
    need_j = max((pt.j for pt in points), default=0)

    def prefix(seq, need, name):
        if seq is None:
            seq = range(need + 1)
        try:
            seq = [Fraction(v) for v in seq]
        except (TypeError, ValueError, OverflowError):
            raise BadSequenceError(f"{name} increments must be rational numbers") from None
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
    The steps are tested first: when one misses the skeleton, the region
    is not clean, no cell is located and the list is empty.  Why the
    steps suffice for the cell list: the cells have disjoint interiors
    and tile the convex domain, so a boundary on their 1-skeleton lies
    in the domain; each cell's interior is connected and misses that
    boundary, so it lies wholly inside or wholly outside the region, as
    its interior point does.  The area sum is the second, independent
    half of the certificate.
    """
    steps = {s for e in sd.interior_edges + sd.boundary_edges
             for s in _unit_steps(e.a, e.b)}
    if not all(s in steps for a, b in region.edges() for s in _unit_steps(a, b)):
        return (), False
    inside = tuple(cid for cid, cell in enumerate(sd.cells)
                   if region.locate(cell.polygon.interior_point()) == "inside")
    area = sum(sd.cells[c].polygon.area2 for c in inside)
    return inside, area == region.area2


# --- square counting lemmas ------------------------------------------------

def _check_legs(p: int, q: int) -> None:
    if p < 1 or q < 1 or lattice_length((0, 0), (p, q)) != 1:
        raise NotCoprimeError(f"legs must be positive and coprime, got ({p}, {q})")


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*k + b)/m) over 0 <= k < n, for n, a, b >= 0
    and m > 0, in O(log m) rounds.  A round takes out the whole parts of
    a/m and b/m; the rest counts the lattice points with 0 <= k < n and
    0 < m*y <= a*k + b, row y holding floor((y_max - m*y)/a) of them,
    y_max = a*n + b.  So y = y_max // m - k' makes it the same sum over
    (y_max // m, a, m, y_max % m): (m, a) steps as in Euclid's algorithm."""
    total = 0
    while n:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        n, b = divmod(a * n + b, m)
        m, a = a, m
    return total


def triangle_square_count(p: int, q: int) -> int:
    """Unit grid squares contained in the triangle (0,0), (p,0), (0,q).

    The square [a, a+1] x [b, b+1] is in it when its far corner is,
    q(a + 1) + p(b + 1) <= pq, so column a holds the rows b + 1 <=
    q(p - a - 1)/p: the sum of floor(q*k/p) over k = p - a - 1 < p."""
    _check_legs(p, q)
    return _floor_sum(p, p, q, 0)


def crossed_square_count(p: int, q: int) -> int:
    """Unit grid squares whose interior meets the open segment from
    (0, q) to (p, 0).

    With c = q(p - a), the square [a, a+1] x [b, b+1] is crossed when
    its corners straddle the line, c - p - q < pb < c.  So column a
    holds the rows from floor((c - q)/p), its count of contained
    squares, to ceil(c/p) - 1 = floor((c - 1)/p): with k = p - a - 1,
    floor((q*k + q - 1)/p) less the contained squares, plus one."""
    _check_legs(p, q)
    return _floor_sum(p, p, q, q - 1) - _floor_sum(p, p, q, 0) + p


# --- the special subdivision of a diagram -----------------------------------

@dataclass(frozen=True)
class SubdividedDiagram:
    diagram: NewtonDiagram
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


def _land(nd: NewtonDiagram, lifting: LiftedSupport,
          used_fallback: bool) -> SubdividedDiagram | None:
    """The subdivided diagram if the lifting, separable with strictly
    increasing increments, lands on the special tiling: the cells under
    the boundary tile the region exactly, and each is a unit square or
    a half-square triangle.  ``classify_cells_by_region`` tests the
    boundary's unit steps against the skeleton before it locates any
    cell, so a lifting that misses one costs no point location.

    The staircase decomposition's counts (``decompose_diagram``) then
    hold for the inside cells with no test.  Let R be the region; the
    support is every lattice point of R.  The inside squares are the
    unit squares in R: a unit square in R has its four corners in the
    support, so it is a cell by the squares lemma (module docstring),
    and inside; an inside cell lies in R, since the cells tile it.  A
    unit square in R lies in one piece of the decomposition, whose cuts
    run along lattice lines and the boundary; a staircase rectangle
    holds its area of them, and a corner triangle with coprime legs p
    and q holds (p - 1)(q - 1)/2, so there are ``square_count`` inside
    squares.  The boundary falls strictly, so a unit square in R meets
    it only in its upper right corner, whose coordinates are positive:
    an inner lattice point of the boundary.  Each inner lattice point g
    is the upper right corner of the unit square below and left of it,
    which lies in R, since R holds every point below and left of one of
    its points.  So ``touching_count`` inside squares touch the
    boundary, one per inner lattice point.
    """
    sd = _certify(lifting, *_square_wrap(lifting))
    inside, clean = classify_cells_by_region(sd, nd.gamma_minus)
    result = SubdividedDiagram(nd, sd, inside, used_fallback)
    if clean and set(result.inside_kinds()) <= {"square", "half_triangle"}:
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
    ``_land`` then checks that the result is the special tiling; a miss
    of the kinked lifting raises RegularityCertificationError rather
    than passing silently.
    """
    result = _land(nd, separable_lifting(nd), False)
    if result is not None:
        return result
    lam = (nd.p + nd.q) ** 2
    result = _land(nd, _kinked_lifting(nd, lam), True)
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
