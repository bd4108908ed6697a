"""Test-only oracles: exact brute-force checks that the shipped package
does not need, kept here as references for the test suites, the read
counter the work-count tests share, and an alarm that ends a hung call."""

from __future__ import annotations

import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from tropnewton.errors import ZeroSegmentError
from tropnewton.lattice import (
    Coord,
    LatticePoint,
    LatticePolygon,
    Point,
    _located,
    convex_hull,
    cross,
    lattice_key,
    on_segment,
    shoelace2,
)
from tropnewton.tropical import TropicalCurve, TropicalEdge


def primitive_direction(dx: Coord, dy: Coord) -> tuple[int, int]:
    """Scale a nonzero rational vector to coprime integers, keeping
    direction; the reference for the integer directions of the curve."""
    if dx == 0 and dy == 0:
        raise ZeroSegmentError("no direction for the zero vector")
    m = lcm(dx.denominator, dy.denominator)
    ix = dx.numerator * (m // dx.denominator)
    iy = dy.numerator * (m // dy.denominator)
    g = gcd(ix, iy)
    return ix // g, iy // g


def on_gamma_by_cross(nd, point) -> bool:
    """Whether a point lies on a segment of the boundary chain, by the
    cross product; the reference for ``NewtonDiagram.gamma_lattice``."""
    g = nd.gamma_lattice
    return any(a.i <= point[0] <= b.i and b.j <= point[1] <= a.j
               and cross(a, b, point) == 0 for a, b in zip(g, g[1:]))


def lower_chain_by_edges(points) -> list:
    """The chain from points[0] to points[-1] counterclockwise along their
    hull, a brute-force walk: from each vertex u the step goes to the
    point w with every other point strictly left of uw or strictly
    inside it; the reference for ``lower_chain``."""
    chain = [points[0]]
    while chain[-1] != points[-1]:
        u = chain[-1]
        [w] = [w for w in points if w != u and all(
            cross(u, w, p) > 0 or on_segment(p, u, w) for p in points if p not in (u, w))]
        chain.append(w)
    return chain


def staircase_squares_by_shoelace(nd) -> int:
    """Area of the staircase under the boundary's inner lattice points,
    by the shoelace of its ring; the reference for
    ``StaircaseDecomposition.staircase_squares``."""
    g = nd.gamma_lattice
    n = len(g) - 1
    if n < 2:
        return 0
    ring = [LatticePoint(0, 0), LatticePoint(g[n - 1].i, 0)]
    for k in range(n - 1, 0, -1):
        ring.append(LatticePoint(g[k].i, g[k].j))
        ring.append(LatticePoint(g[k - 1].i, g[k].j))
    return lattice_polygon(ring).area2 // 2


def dot(u: Point, v: Point) -> Coord:
    return u[0] * v[0] + u[1] * v[1]


def sub(a: Point, b: Point) -> tuple:
    return (a[0] - b[0], a[1] - b[1])


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Do closed segments [a,b] and [c,d] share at least one point?"""
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
        return True
    return (on_segment(a, c, d) or on_segment(b, c, d)
            or on_segment(c, a, b) or on_segment(d, a, b))


def segments_cross_properly(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when the open segments intersect in exactly one interior point."""
    d1, d2 = cross(c, d, a), cross(c, d, b)
    d3, d4 = cross(a, b, c), cross(a, b, d)
    return ((d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
            and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0)


def simple_ring_violations(ring) -> tuple[str, ...]:
    """Why a ring of lattice points is not a simple counterclockwise
    polygon of positive area with no spike, empty when it is one: the
    area, spike and O(n^2) crossing checks, the reference that a
    package region, ``NewtonDiagram.gamma_minus`` above all, is held to.

    A ring that repeats a vertex, ``v[a] == v[b]`` with ``a != b``, needs
    no check of its own: one of the three checks flags it.  With three
    vertices the ring has at most two distinct points, so its area is
    zero.  Otherwise, if ``a`` and ``b`` are neighbours, the step between
    them is zero, so the cross and dot products at the later of the two
    are zero, a spike.  If they are not, the edges leaving ``v[a]`` and
    ``v[b]`` are not neighbours either, so the crossing check compares
    them, and as closed segments they share the point ``v[a]``.
    """
    verts = tuple(map(lattice_key, ring))
    n = len(verts)
    if n < 3:
        return ("polygon needs at least 3 vertices",)
    violations = []
    if shoelace2(verts) <= 0:
        violations.append("polygon boundary must be ccw with area > 0")
    for k in range(n):
        # a spike folds the boundary back over itself
        c = cross(verts[k - 1], verts[k], verts[(k + 1) % n])
        d = dot(sub(verts[k], verts[k - 1]), sub(verts[(k + 1) % n], verts[k]))
        if c == 0 and d <= 0:
            violations.append(f"boundary spike at {verts[k]}")
    for a_idx in range(n):
        a1, a2 = verts[a_idx], verts[(a_idx + 1) % n]
        for b_idx in range(a_idx + 2, n):
            if (b_idx + 1) % n == a_idx:
                continue  # adjacent edges share an endpoint by design
            b1, b2 = verts[b_idx], verts[(b_idx + 1) % n]
            if segments_intersect(a1, a2, b1, b2):
                violations.append(f"self-intersection between edges {a1}-{a2} and {b1}-{b2}")
    return tuple(violations)


def lattice_polygon(ring) -> LatticePolygon:
    """A LatticePolygon through a ring a test draws, started at its
    smallest vertex, once ``simple_ring_violations`` finds nothing."""
    violations = simple_ring_violations(ring)
    assert violations == (), violations
    verts = tuple(map(lattice_key, ring))
    k = verts.index(min(verts))
    return LatticePolygon._trusted(verts[k:] + verts[:k])


def locate_by_half_planes(polygon, p) -> str:
    """'inside', 'boundary' or 'outside' for a convex polygon, from the
    side of each edge's line that ``p`` lies on; the reference for
    ``locate`` on convex regions."""
    x, y = p
    on_edge = False
    for (ax, ay), (bx, by) in polygon.edges():
        c = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if c < 0:
            return "outside"
        on_edge |= c == 0
    return "boundary" if on_edge else "inside"


def pick_interior_boundary(region) -> tuple[int, int]:
    """(interior, boundary) lattice point counts by direct enumeration;
    the reference for Pick's count, ``interior_lattice_count``."""
    counts = Counter(where for _, _, where in _located(region))
    return counts["inside"], counts["boundary"]


def brute_force_lower_hull(heights):
    """Lower hull cells and edge split of a lifting, by brute force.

    Every plane through three lifted points that projects to a
    non-degenerate triangle is kept when no lifted point lies below it;
    its tight set gives the cell.  Cells come as (vertices, plane, tight)
    in the order of their vertices, planes as (dz/di, dz/dj, z(0, 0)) in
    Fraction.  Edges come as (a, b, cell ids) with a < b, split by how
    many cells have them: one for a rim edge, two for an interior edge.
    """
    lifted = {(p[0], p[1]): Fraction(h) for p, h in heights.items()}
    planes = {}
    for (p, zp), (q, zq), (r, zr) in combinations(sorted(lifted.items()), 3):
        u = (q[0] - p[0], q[1] - p[1], zq - zp)
        v = (r[0] - p[0], r[1] - p[1], zr - zp)
        nz = u[0] * v[1] - u[1] * v[0]
        if nz == 0:
            continue
        nx = u[1] * v[2] - u[2] * v[1]
        ny = u[2] * v[0] - u[0] * v[2]
        plane = (-nx / nz, -ny / nz, zp + (nx * p[0] + ny * p[1]) / nz)
        if plane in planes or any(z < plane[0] * x + plane[1] * y + plane[2]
                                  for (x, y), z in lifted.items()):
            continue
        planes[plane] = tuple((x, y) for (x, y), z in lifted.items()
                              if z == plane[0] * x + plane[1] * y + plane[2])
    cells = sorted((convex_hull(tight).vertices, plane, tuple(sorted(tight)))
                   for plane, tight in planes.items())
    incidence = {}
    for cid, (verts, _, _) in enumerate(cells):
        for a, b in zip(verts, verts[1:] + verts[:1]):
            incidence.setdefault((min(a, b), max(a, b)), []).append(cid)
    edges = sorted((a, b, tuple(ids)) for (a, b), ids in incidence.items())
    return (cells, [e for e in edges if len(e[2]) == 2],
            [e for e in edges if len(e[2]) == 1])


def triangle_square_count_by_tests(p: int, q: int) -> int:
    """Unit grid squares in the triangle (0,0), (p,0), (0,q), one
    containment test per square; the reference for
    ``triangle_square_count``."""
    count = 0
    for a in range(p):
        for bb in range(q):
            if q * (a + 1) + p * (bb + 1) <= p * q:
                count += 1
    return count


def crossed_square_count_by_tests(p: int, q: int) -> int:
    """Unit grid squares whose interior meets the open segment from
    (0, q) to (p, 0), one test per square; the reference for
    ``crossed_square_count``."""
    count = 0
    for a in range(p):
        for bb in range(q):
            lo = q * a + p * bb
            if lo < p * q < lo + p + q:
                count += 1
    return count


def rim_endpoint_count(sd) -> int:
    """Distinct endpoints of the subdivision's boundary edges; the
    reference for ``boundary_vertex_count``.  A vertex on the domain's
    boundary lies on a rim edge and is one of its endpoints, as a cell
    corner cannot sit inside another cell's edge; a vertex off it is on
    no rim edge."""
    return len({p for e in sd.boundary_edges for p in (e.a, e.b)})


def _gauss_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _rank_over_gaussian_rationals(rows) -> int:
    """Rank over Q(i) of sparse rows ``{column: (re, im)}`` of Gaussian
    integers, by fraction-free elimination: a row's least column is its
    pivot, and a row that meets a pivot is replaced by v*row - u*pivot
    (u, v the two entries in that column), divided by the integer gcd of
    its entries.  Both steps keep the row space over Q(i)."""
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            u, v = row[c], pivot[c]
            out = {}
            for k in row.keys() | pivot.keys():
                x = _gauss_mul(v, row.get(k, (0, 0)))
                y = _gauss_mul(u, pivot.get(k, (0, 0)))
                if x != y:
                    out[k] = (x[0] - y[0], x[1] - y[1])
            g = gcd(*(part for entry in out.values() for part in entry)) or 1
            row = {k: (re // g, im // g) for k, (re, im) in out.items()}
    return len(pivots)


def milnor_by_elimination(support, budget: int = 30):
    """mu = dim C{x,y}/(f_x, f_y) of the germ f whose terms a ``SupportSet``
    holds, with no use of the Newton diagram; None when f is not isolated
    within ``budget``.

    Let J = (f_x, f_y) and d(N) = dim C[x,y]/(J + m^N), with m = (x, y).
    Modulo m^N, J is spanned by the products of f_x and f_y with the
    monomials of degree below N - 1 (f is singular at 0, so its partials
    have no constant term), truncated to degree below N: d(N) is the
    number of monomials of degree below N less the rank of those rows,
    by exact elimination over the Gaussian rationals.  d never
    decreases.  If d(N) = d(N + 1), then J + m^N = J + m^(N+1), so m^N
    lies in J in the local ring by Nakayama, and mu = d(N) (Greuel,
    Lossen and Shustin, Introduction to Singularities and Deformations,
    2007).  When no N < ``budget`` gives d(N) = d(N + 1), the answer is
    None: "not isolated within budget".
    """
    f_x = [((i - 1, j), (i * re, i * im)) for (i, j), (re, im) in support.terms if i]
    f_y = [((i, j - 1), (j * re, j * im)) for (i, j), (re, im) in support.terms if j]

    def d(n: int) -> int:
        # a column is a monomial x^a y^b as (a + b, a): least degree first
        rows = []
        for a in range(n - 1):
            for b in range(n - 1 - a):
                for g in (f_x, f_y):
                    row = {(a + i + b + j, a + i): c for (i, j), c in g if a + i + b + j < n}
                    if row:
                        rows.append(row)
        return n * (n + 1) // 2 - _rank_over_gaussian_rationals(rows)

    last = d(1)
    for n in range(2, budget + 1):
        now = d(n)
        if now == last:
            return last
        last = now
    return None


def _edge_span(tc: TropicalCurve, e: TropicalEdge):
    """Anchor, direction and parameter cap (None for rays)."""
    a = tc.vertices[e.endpoints[0]].coords
    if e.kind == "segment":
        b = tc.vertices[e.endpoints[1]].coords
        return a, (b[0] - a[0], b[1] - a[1]), Fraction(1)
    return a, (Fraction(e.direction[0]), Fraction(e.direction[1])), None


def _shared_endpoint(tc: TropicalCurve, e1: TropicalEdge, e2: TropicalEdge):
    s1 = {tc.vertices[v].coords for v in e1.endpoints}
    s2 = {tc.vertices[v].coords for v in e2.endpoints}
    return s1 & s2


def check_embedded(tc: TropicalCurve) -> tuple[str, ...]:
    """Pairwise exact intersection tests; edges may only meet at shared
    endpoints.  Quadratic in the edge count, meant for test corpora."""
    violations = []
    spans = [_edge_span(tc, e) for e in tc.edges]
    for i in range(len(tc.edges)):
        p1, d1, cap1 = spans[i]
        for k in range(i + 1, len(tc.edges)):
            p2, d2, cap2 = spans[k]
            det = d1[0] * d2[1] - d1[1] * d2[0]
            rx, ry = p2[0] - p1[0], p2[1] - p1[1]
            if det == 0:
                if d1[0] * ry - d1[1] * rx != 0:
                    continue  # parallel on distinct lines
                # same line: edge k occupies a t-interval along d1, with
                # None standing for the unbounded end on its own side
                nn = d1[0] * d1[0] + d1[1] * d1[1]
                t2a = (rx * d1[0] + ry * d1[1]) / nn
                along = (d2[0] * d1[0] + d2[1] * d1[1]) / nn
                far = None if cap2 is None else t2a + cap2 * along
                if along > 0:
                    lo2, hi2 = t2a, far
                else:
                    lo2, hi2 = far, t2a
                lo = Fraction(0) if lo2 is None else max(Fraction(0), lo2)
                his = [v for v in (cap1, hi2) if v is not None]
                hi = min(his) if his else None
                if hi is None or lo < hi:
                    violations.append(f"edges {i} and {k} overlap along a line")
                elif lo == hi:
                    pt = (p1[0] + lo * d1[0], p1[1] + lo * d1[1])
                    if pt not in _shared_endpoint(tc, tc.edges[i], tc.edges[k]):
                        violations.append(f"edges {i} and {k} touch off-vertex")
                continue
            t = (rx * d2[1] - ry * d2[0]) / det
            u = (rx * d1[1] - ry * d1[0]) / det
            if t < 0 or (cap1 is not None and t > cap1):
                continue
            if u < 0 or (cap2 is not None and u > cap2):
                continue
            pt = (p1[0] + t * d1[0], p1[1] + t * d1[1])
            if pt not in _shared_endpoint(tc, tc.edges[i], tc.edges[k]):
                violations.append(f"edges {i} and {k} cross at {pt}")
    return tuple(violations)


class Counted(tuple):
    """A lifted point that counts its reads, each unpacking of it."""

    reads = 0

    def __iter__(self):
        Counted.reads += 1
        return super().__iter__()


class Overran(Exception):
    """A call ran past the alarm of ``deadline``."""


@contextmanager
def deadline(seconds: float):
    """Raise Overran in the block once ``seconds`` have passed, so a call
    that hangs fails its test instead of stalling the suite."""
    def ring(signum, frame):
        raise Overran(f"still running after {seconds} s")
    saved = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)
