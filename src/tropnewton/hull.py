"""The general lower hull of a lifted support, and the wrap machinery
both wraps share.

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
collects its tight points; the special wrap's pocket pick
(``subdivision``) runs the same scan over the points its line search
keeps.  After the wrap, ``certificate._certify`` proves that the cells
are the lower hull's and builds the subdivision, on integers, with no
tolerance anywhere.  The wrap never finds a facet twice, so the facets
are a plain list with no lookup by plane.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Mapping, Union

from .certificate import RegularSubdivision, _certify
from .errors import DegenerateHullError, DegenerateInputError, InternalCheckError
from .lattice import ConvexPolygon, LatticePoint, convex_hull_of_sorted, lower_chain
from .parsing import LiftedSupport


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
    lines = _rim_masks(pts3, domain)
    first = _lower_chain_edge(pts3, domain.vertices[0], domain.vertices[1])
    facets = _wrap_over(pts3, lines, set(), [first], _scan_pick(pts3))
    return domain, pts3, scale, facets, lines


def _rim_masks(points: dict, domain: ConvexPolygon) -> dict[LatticePoint, int]:
    """Each point's rim-line bitmask: bit k is set when the point lies on
    the line of domain edge k.  One pass per line."""
    masks = dict.fromkeys(points, 0)
    for k, (u, w) in enumerate(domain.edges()):
        # the line of uw is nx*i + ny*j = c
        nx, ny, c = u.j - w.j, w.i - u.i, u.j * w.i - u.i * w.j
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
