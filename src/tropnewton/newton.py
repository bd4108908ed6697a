"""Newton boundary of a plane curve germ and the numbers read off it.

The germ must be singular at the origin and convenient: the support
misses (0,0), (1,0), (0,1) and meets both coordinate axes.  The
boundary gamma is the chain of compact faces of the shifted positive
quadrant hull; everything downstream (region below the boundary,
staircase decomposition, Milnor and delta numbers) is derived from it
in exact integer arithmetic.  The ``lemma`` counts of the unit squares
in and across a corner triangle close the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    NotConvenientError,
    NotCoprimeError,
    NotSingularAtOriginError,
    ParityViolationError,
    SchemaError,
    check,
    require,
    require_instance,
)
from .lattice import (
    LatticePoint,
    LatticePolygon,
    enumerate_lattice_points,
    lattice_keys,
    lattice_length,
    lower_chain,
    segment_lattice_points,
)
from .parsing import SupportSet


@dataclass(frozen=True)
class NewtonDiagram:
    """Support plus its Newton boundary from (0, q) down to (p, 0), both
    read off the support alone: exponent points or a ``SupportSet``,
    stored sorted.  A point off the lattice or with a negative exponent
    is a SchemaError; a germ not singular at the origin or not
    convenient, a precondition error."""

    support: tuple[LatticePoint, ...]
    gamma_vertices: tuple[LatticePoint, ...] = field(init=False)
    gamma_lattice: tuple[LatticePoint, ...] = field(init=False)
    p: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        points = self.support
        if isinstance(points, SupportSet):
            points = points.points
        pts = sorted(lattice_keys(points, "support point"))
        for pt in pts:
            if pt.i < 0 or pt.j < 0:
                raise SchemaError(f"support point {tuple(pt)} has a negative exponent")
        for bad in ((0, 0), (1, 0), (0, 1)):
            if LatticePoint(*bad) in pts:
                raise NotSingularAtOriginError(
                    f"support contains {bad}; the germ is not singular at the origin")
        on_x = [p.i for p in pts if p.j == 0]
        on_y = [p.j for p in pts if p.i == 0]
        if not on_x or not on_y:
            raise NotConvenientError("support must meet both coordinate axes")
        p, q = min(on_x), min(on_y)

        # the boundary: the lower chain from (0, q), column 0's lowest point,
        # to (p, 0) over the points left of column p (the rest lie in (p, 0) +
        # R^2_+).  Convex and ending at its only point on the x-axis, it falls
        # strictly, so it drops every point at or above an earlier one
        chain = lower_chain([pt for pt in pts if pt.i < p] + [LatticePoint(p, 0)])

        lattice: list[LatticePoint] = [chain[0]]
        for a, b in zip(chain, chain[1:]):
            lattice.extend(segment_lattice_points(a, b)[1:])
        for name, value in (("support", tuple(pts)), ("gamma_vertices", tuple(chain)),
                            ("gamma_lattice", tuple(lattice)), ("p", p), ("q", q)):
            object.__setattr__(self, name, value)

    @property
    def primitive_steps(self) -> tuple[tuple[int, int], ...]:
        """(p_i, q_i) for each unit lattice segment along the boundary."""
        g = self.gamma_lattice
        return tuple((b.i - a.i, a.j - b.j) for a, b in zip(g, g[1:]))

    @property
    def branch_count(self) -> int:
        return len(self.gamma_lattice) - 1

    @cached_property
    def gamma_minus(self) -> LatticePolygon:
        """Region between the boundary and the axes, built with no check.
        The boundary falls strictly and convexly from ``(0, q)`` to
        ``(p, 0)``, inner vertices in the open quadrant, so with the two
        axis segments the ring ``(0, 0)``, boundary reversed, is simple,
        counterclockwise, of positive area, turns at every vertex (no
        spike) and starts at its smallest vertex."""
        return LatticePolygon._trusted((LatticePoint(0, 0),) + self.gamma_vertices[::-1])

    @cached_property
    def gamma_minus_lattice(self) -> tuple[LatticePoint, ...]:
        return tuple(enumerate_lattice_points(self.gamma_minus))

    @property
    def interior_lattice_count(self) -> int:
        """Lattice points strictly under the boundary, by Pick's theorem:
        ``gamma_minus`` has ``p + q + branch_count`` lattice points on
        its boundary, the axis segments and the chain's unit steps."""
        return (self.gamma_minus.area2 - self.p - self.q - self.branch_count) // 2 + 1


def analyze_support(points) -> NewtonDiagram:
    """The Newton diagram of ``points``, as ``NewtonDiagram`` takes them."""
    return NewtonDiagram(points)


@dataclass(frozen=True)
class StaircaseDecomposition:
    """Split of the region under the boundary into corner triangles
    and the grid staircase beneath them."""

    triangles: tuple[tuple[LatticePoint, LatticePoint, LatticePoint], ...]
    triangle_squares: int
    staircase_squares: int

    @property
    def square_count(self) -> int:
        return self.triangle_squares + self.staircase_squares

    @property
    def touching_count(self) -> int:
        """Squares that will meet the boundary in a vertex: one per
        lattice point interior to the boundary chain."""
        return len(self.triangles) - 1


def decompose_diagram(nd: NewtonDiagram) -> StaircaseDecomposition:
    """Corner triangles of the primitive steps, and the staircase below:
    for the boundary's lattice points g, the union of the rectangles
    [g[k-1].i, g[k].i] x [0, g[k].j] over the inner points g[k].  Their
    x-ranges only meet at their ends, so its area is their sum."""
    require_instance(nd, NewtonDiagram, "decompose_diagram")
    g = nd.gamma_lattice
    triangles = []
    tri_squares2 = 0
    for a, b in zip(g, g[1:]):
        corner = LatticePoint(a.i, b.j)
        triangles.append((corner, b, a))
        tri_squares2 += (b.i - a.i - 1) * (a.j - b.j - 1)
    staircase_squares = sum((g[k].i - g[k - 1].i) * g[k].j for k in range(1, len(g) - 1))
    return StaircaseDecomposition(tuple(triangles), tri_squares2 // 2, staircase_squares)


def milnor_number(nd: NewtonDiagram) -> int:
    """Count for a boundary-generic germ, computed two independent ways."""
    require_instance(nd, NewtonDiagram, "milnor_number")
    via_area = nd.gamma_minus.area2 - (nd.p + nd.q) + 1
    dec = decompose_diagram(nd)
    hypotenuse = sum(pi * qi for pi, qi in nd.primitive_steps)
    via_steps = hypotenuse + 2 * dec.staircase_squares - (nd.p + nd.q) + 1
    check(via_area == via_steps, "area route and staircase route disagree")
    return via_area


def delta_invariant(mu: int, branches: int) -> int:
    require(isinstance(mu, int) and isinstance(branches, int),
            f"delta_invariant takes two ints, not {type(mu).__name__} "
            f"and {type(branches).__name__}")
    total = mu + branches - 1
    if total % 2 != 0:
        raise ParityViolationError(
            f"mu + branches - 1 = {total} is odd; counts are inconsistent")
    return total // 2


# --- the lemma counts, which check decompose_diagram's corner triangles ---

def _check_legs(p: int, q: int) -> None:
    require(isinstance(p, int) and isinstance(q, int), "legs must be ints")
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
