"""The special subdivision of the region under a Newton boundary.

For a diagram the goal is a subdivision whose cells inside the region
under the boundary are exactly unit squares and half-square triangles.
One formula lifts the region, ``_kinked_lifting(nd, lam)``: a separable
nu(i,j) = A(i) + B(j) whose increments strictly increase, kinked along
the rows and columns of the boundary corners with weight lam.  At
lam = 0 it is the default lifting i(i+1)/2 + j(j+1)/2, which lands for
straight boundaries and many bent ones; for the rest lam = (p + q)^2
does (see ``subdivide_diagram``).  So every hull here is built by
``_square_wrap``: most of it needs no search, and the rest only a
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
on its plane included, and ``_land`` checks that the cells tile the
region, which makes them the special tiling (its docstring).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, groupby

from .certificate import RegularSubdivision, _certify, classify_cells_by_region
from .errors import RegularityCertificationError, require
from .hull import _least_plane, _lifted, _rim_masks, _wrap_over
from .lattice import LatticePoint
from .newton import NewtonDiagram
from .parsing import LiftedSupport


def _square_wrap(lifting: LiftedSupport):
    """``hull._wrap``'s output for a lifting that is separable with
    strictly increasing increments: the squares by proof, the pick by a
    search along the lines of the pocket (the squares, pocket and line
    lemmas, module docstring).

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
    lines = _rim_masks(pts3, domain)
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
    ``_least_plane``, the scan of ``hull._scan_pick``.  So its tie list holds
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


# --- liftings ---------------------------------------------------------------

def separable_lifting(nd: NewtonDiagram) -> LiftedSupport:
    """The default lifting nu(i, j) = i(i+1)/2 + j(j+1)/2 of a diagram,
    ``_kinked_lifting`` at lam = 0; anything but a ``NewtonDiagram`` is a
    SchemaError."""
    require(isinstance(nd, NewtonDiagram),
            f"separable_lifting takes a NewtonDiagram, not {type(nd).__name__}")
    return _kinked_lifting(nd, 0)


def _kinked_lifting(nd: NewtonDiagram, lam: int) -> LiftedSupport:
    """nu(i, j) = (a_0 + ... + a_i) + (b_0 + ... + b_j) on every lattice
    point under the boundary, with the increments of ``subdivide_diagram``;
    for every lam >= 0 they strictly increase.  Equal heights share one
    Fraction, so a kept lifting holds one object per distinct height
    (x^n + y^(n+1) for n = 10, 20, 30, 40 has 1658 heights and 672 values).
    """
    corners = nd.gamma_vertices[1:-1]

    def sums(axis, need):
        return list(accumulate(k + lam * sum(v[axis] < k for v in corners)
                               for k in range(need + 1)))

    sa, sb = sums(0, nd.p), sums(1, nd.q)
    heights = {pt: sa[pt.i] + sb[pt.j] for pt in nd.gamma_minus_lattice}
    shared = {h: Fraction(h) for h in set(heights.values())}
    return LiftedSupport.from_mapping({pt: shared[h] for pt, h in heights.items()})


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
        return dict(Counter(self.subdivision.cells[c].kind for c in self.inside_cells))


def _land(nd: NewtonDiagram, lifting: LiftedSupport,
          used_fallback: bool) -> SubdividedDiagram | None:
    """The subdivided diagram if the lifting, a ``_kinked_lifting`` of
    ``nd``, lands on the special tiling: the cells under the boundary
    tile the region exactly (``clean``), and each is a unit square or a
    half-square triangle.  ``classify_cells_by_region`` tests the
    boundary's unit steps against the skeleton before it locates any
    cell, so a lifting that misses one costs no point location.

    Clean is enough.  Let R be the region: the support is every lattice
    point of R, and nu = A(i) + B(j) with strictly increasing increments
    a_k and b_k.  Each lattice point (i, j) of R has a strict supporting
    plane, a line under A at i with slope strictly between a_i and
    a_(i+1) plus the like line under B at j, so it is a corner of every
    cell that holds it.  An inside cell of a clean tiling lies in R, so
    it is an empty lattice polygon: a unimodular triangle
    (``half_triangle``) or a parallelogram p, p + u, p + u + v, p + v of
    area 1 (De Loera, Rambau, Santos, Triangulations, 2010).  A cell is
    flat, so its fold defect nu(p) + nu(p+u+v) - nu(p+u) - nu(p+v) is 0:
    an A term with the sign of u1*v1 (a strictly convex function's
    second mixed difference has the sign of the product of its steps)
    plus a B term with the sign of u2*v2.  Opposite signs, say
    u1*v1 > 0 > u2*v2, would give |det(u, v)| = |u1*v2| + |u2*v1| >= 2;
    so both are 0, and the parallelogram is the unit square.

    The staircase decomposition's counts (``decompose_diagram``) then
    hold for the inside cells with no test.  The inside squares are the
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
    return SubdividedDiagram(nd, sd, inside, used_fallback) if clean else None


def subdivide_diagram(nd: NewtonDiagram) -> SubdividedDiagram:
    """Special subdivision of the region under the Newton boundary.

    Tries the kinked lifting ``_kinked_lifting(nd, lam)``, with
    increments

        a_k = k + lam * #{interior corners v : v.i < k}
        b_k = k + lam * #{interior corners v : v.j < k},

    at lam = 0 first, the default lifting i(i+1)/2 + j(j+1)/2.  If its
    restriction to the region is not the special tiling, it tries
    lam = (p + q)^2, and ``used_fallback`` is set.  Why the kink lands:
    its heights are lam * K + s, with s the default lifting and

        K(i, j) = sum over interior corners v of relu(i - v.i) + relu(j - v.j).

    K is convex and affine exactly on the boxes cut out by the rows and
    columns through the corners, so its own subdivision splits the
    region into the staircase rectangles and the corner triangle under
    each boundary edge.  Once lam is large, lam * K + s induces the
    refinement of that split by s (De Loera, Rambau, Santos,
    Triangulations, 2010).  s tiles each rectangle by unit squares, and
    on a corner triangle it differs from the default lifting of the
    single-edge diagram of the same shape by an affine function (a
    translation), which does not change its subdivision.  Two steps are
    measured, not proved.  The default lifting lands on every
    single-edge diagram with p, q <= 30;
    ``test_default_lifting_lands_on_every_single_edge_diagram`` pins
    p, q <= 12.  lam = (p + q)^2 is large enough on every chain tried;
    ``test_kinked_lifting_lands_on_every_small_chain`` pins the 246
    chains with two edges and p, q <= 7 or three edges and p, q <= 6.

    Both liftings are separable with strictly increasing increments, so
    ``_land`` builds each hull with ``_square_wrap``: the full unit
    squares by the squares lemma, the gift-wrap only over the pocket
    (module docstring), and one ``_certify`` proof of the whole result.
    ``_land`` then checks that the result tiles the region, which makes
    it the special tiling; a miss at lam = (p + q)^2 raises
    RegularityCertificationError rather than passing silently.
    """
    lam = (nd.p + nd.q) ** 2
    for k in (0, lam):
        result = _land(nd, _kinked_lifting(nd, k), k > 0)
        if result is not None:
            return result
    raise RegularityCertificationError(
        "kinked separable lifting missed the special tiling",
        {"chain": [tuple(v) for v in nd.gamma_vertices], "lam": lam})
