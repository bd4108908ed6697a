"""Exact plane lattice geometry.

All predicates run on Python ints or fractions.Fraction; no floats enter
any decision.  Points are (i, j) pairs; LatticePoint is a named tuple so
lattice data stays tuple-compatible, while rational points (cell plane
gradients, midpoints) are plain tuples of Fraction.

Polygon conventions:
  * boundaries are counterclockwise,
  * the canonical vertex order starts at the lexicographically smallest
    vertex (smallest i, then smallest j),
  * ConvexPolygon additionally forbids three consecutive collinear
    vertices, so equality of polygons is equality of vertex tuples.

Only the package builds polygons, each through ``_Polygon._trusted``
with no check, because each ring is proved where it is made: a
``ConvexPolygon`` is the monotone chain's hull, which proves the
conventions as it runs (see ``convex_hull_of_sorted``), or a cell that
``certificate._certify`` has proved; the one ``LatticePolygon`` is
``NewtonDiagram.gamma_minus``, whose ring its docstring proves.  A
caller builds a polygon with ``convex_hull``, which raises SchemaError
for a point that is not a lattice point (``lattice_key``, the one
conversion of a caller's point).  ``lower_chain`` is the package's one
monotone chain: each hull half, the Newton boundary, the wrap's first
edge.  ``_located`` is its one scan of a region's bounding box.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import DegenerateHullError, SchemaError, ZeroSegmentError

Coord = Union[int, Fraction]
Point = Sequence[Coord]


class LatticePoint(NamedTuple):
    i: int
    j: int

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


def lattice_key(p, what: str = "point") -> LatticePoint:
    """``p`` as a LatticePoint: a SchemaError unless it is a pair of
    integral numbers, so no coordinate is ever truncated.  A LatticePoint
    with ``int`` coordinates is returned as it is, so keys already checked
    are not copied."""
    if type(p) is LatticePoint and type(p[0]) is int and type(p[1]) is int:
        return p
    try:
        i, j = p
        lattice = int(i) == i and int(j) == j
    except (TypeError, ValueError, OverflowError):
        lattice = False
    if not lattice:
        raise SchemaError(f"{what} {p!r} is not a lattice point")
    return LatticePoint(int(i), int(j))


def lattice_keys(points, what: str = "point") -> set[LatticePoint]:
    """The distinct ``lattice_key``s of ``points``, an iterable."""
    try:
        return {lattice_key(p, what) for p in points}
    except TypeError:  # no iterable: lattice_key raises only SchemaErrors
        raise SchemaError(f"{what}s must be an iterable, not {type(points).__name__}") from None


def cross(o: Point, a: Point, b: Point) -> Coord:
    """Signed area x2 of triangle (o, a, b); positive if counterclockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def lattice_length(a: Point, b: Point) -> int:
    """Number of primitive lattice steps from lattice point a to lattice
    point b along their segment."""
    n = gcd(b[0] - a[0], b[1] - a[1])
    if not n:
        raise ZeroSegmentError(f"zero segment at {tuple(a)}")
    return n


def segment_lattice_points(a: Point, b: Point) -> list[LatticePoint]:
    """All lattice points on segment [a, b], endpoints included, in order."""
    a, b = lattice_key(a), lattice_key(b)
    n = lattice_length(a, b)
    si, sj = (b.i - a.i) // n, (b.j - a.j) // n
    return [LatticePoint(a.i + k * si, a.j + k * sj) for k in range(n + 1)]


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """Exact test: p lies on the closed segment [a, b]."""
    if cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def shoelace2(vertices: Sequence[Point]) -> Coord:
    """Twice the signed area of the closed polygon through ``vertices``."""
    total = 0
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        total += a[0] * b[1] - b[0] * a[1]
    return total


class _Polygon:
    """Vertex tuple, counterclockwise from the smallest vertex, immutable.

    Two polygons are equal when they have the same class and vertices.
    """

    __slots__ = ("vertices",)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.vertices)})"

    @classmethod
    def _trusted(cls, verts: tuple):
        """A polygon from vertices already known to be distinct
        LatticePoints that meet the class's conventions, in canonical
        order, so none of that is checked again."""
        polygon = object.__new__(cls)
        object.__setattr__(polygon, "vertices", verts)
        return polygon

    def edges(self) -> Iterator[tuple[LatticePoint, LatticePoint]]:
        v = self.vertices
        return zip(v, v[1:] + v[:1])

    @property
    def area2(self) -> int:
        return int(shoelace2(self.vertices))

    def bbox(self) -> tuple[int, int, int, int]:
        xs = [v.i for v in self.vertices]
        ys = [v.j for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


class ConvexPolygon(_Polygon):
    """Strictly convex lattice polygon, counterclockwise, canonical start."""

    __slots__ = ()

    def locate(self, p: Point) -> str:
        """'inside', 'boundary' or 'outside', decided exactly."""
        x, y = p[0], p[1]
        on_edge = False
        for (ax, ay), (bx, by) in self.edges():
            c = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
            if c < 0:
                return "outside"
            if c == 0:
                on_edge = True
        return "boundary" if on_edge else "inside"

    def interior_point(self) -> tuple[Fraction, Fraction]:
        """The vertex average; lies strictly inside by convexity."""
        n = len(self.vertices)
        return (Fraction(sum(v.i for v in self.vertices), n),
                Fraction(sum(v.j for v in self.vertices), n))


class LatticePolygon(_Polygon):
    """Simple closed lattice polygon, possibly non-convex, ccw.  A vertex
    between its neighbours on a straight run is kept as given."""

    __slots__ = ()

    def locate(self, p: Point) -> str:
        """'inside', 'boundary' or 'outside' by exact crossing count."""
        x, y = Fraction(p[0]), Fraction(p[1])
        for a, b in self.edges():
            if on_segment((x, y), a, b):
                return "boundary"
        crossings = 0
        for a, b in self.edges():
            ay, by = a.j, b.j
            if (ay > y) == (by > y):
                continue
            x_hit = Fraction(a.i) + (y - ay) * Fraction(b.i - a.i, by - ay)
            if x < x_hit:
                crossings += 1
        return "inside" if crossings % 2 == 1 else "outside"


Region = Union[ConvexPolygon, LatticePolygon]


def convex_hull(points: Iterable[Point]) -> ConvexPolygon:
    """Convex hull by monotone chain.  Needs 3 non-collinear points; a
    point that is not a lattice point is a SchemaError."""
    return convex_hull_of_sorted(sorted(lattice_keys(points)))


def convex_hull_of_sorted(pts: Sequence[LatticePoint]) -> ConvexPolygon:
    """Convex hull of distinct LatticePoints already in sorted order.

    The hull is trusted, not re-checked.  Why it meets the polygon
    conventions: the lower chain starts at pts[0], the smallest point,
    so the vertex order is already canonical.  The lower half is
    ``lower_chain`` of the points and the upper half ``lower_chain`` of
    the points reversed; the two chains meet at pts[0] and pts[-1], the
    leftmost and rightmost points, with the lower chain below the upper
    one, so once the points are not all collinear, the vertices are
    distinct, strictly convex and counterclockwise.  With three points
    the turn sign orders them from pts[0] directly.
    """
    if len(pts) < 3:
        raise DegenerateHullError(f"{len(pts)} distinct points")
    if len(pts) == 3:
        # three points are their own triangle, counterclockwise from the first
        p, q, r = pts
        turn = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if turn == 0:
            raise DegenerateHullError("all points collinear")
        return ConvexPolygon._trusted((p, q, r) if turn > 0 else (p, r, q))
    verts = lower_chain(pts)[:-1] + lower_chain(pts[::-1])[:-1]
    if len(verts) < 3:
        raise DegenerateHullError("all points collinear")
    return ConvexPolygon._trusted(tuple(verts))


def lower_chain(points: Sequence[Point]) -> list:
    """Andrew's monotone chain (Inf. Process. Lett. 9, 1979): the convex
    chain from the first to the last of distinct points sorted by x,
    then y, with every point on or above it and a strict left turn at
    each kept point; over the points reversed, the upper chain.

    It skips a point that comes right after another point of its column,
    unless it ends the chain: it lies straight above that point (below,
    reversed), so the first point of the next column would pop it and
    leave the chain as it was.
    """
    chain: list = []
    column = None
    last = len(points) - 1
    for k, p in enumerate(points):
        px, py = p
        if px == column and k < last:
            continue
        column = px
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _located(region: Region) -> Iterator[tuple[int, int, str]]:
    """Each lattice point (i, j) of the region's bbox, column by column,
    with its exact location."""
    x0, y0, x1, y1 = region.bbox()
    for i in range(x0, x1 + 1):
        for j in range(y0, y1 + 1):
            yield i, j, region.locate((i, j))


def enumerate_lattice_points(region: Region) -> list[LatticePoint]:
    """Lattice points of a region, boundary included, by exact point
    location over its bbox.

    Fine at desk scale; the scan is |bbox| point-in-polygon tests.
    """
    return [LatticePoint(i, j) for i, j, where in _located(region) if where != "outside"]
