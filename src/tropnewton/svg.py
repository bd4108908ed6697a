"""Standalone SVG figures: diagram, subdivision, and dual curve.

Output is deterministic byte for byte.  The scene is drawn on integers:
a coordinate is an integer numerator over a positive denominator, not
necessarily in lowest terms, and ``_fmt`` rounds the value to four
decimal places, half to even, from the quotient and remainder of the
numerator by the denominator (no float and no ``Fraction`` arithmetic).
Those depend on the value alone, so the digits are those of the reduced
fraction.  The curve's vertices come as they are stored, each
``TropicalVertex.triple`` (X, Y, D) read as (X/D, Y/D), so a figure
makes no ``Fraction``.  Each distinct x and each distinct flipped y is
formatted once per figure.  Rays are clipped to the viewbox exactly;
the viewbox is the bounding box of the hull and the finite curve
vertices, padded by twenty percent per side.
"""

from __future__ import annotations

import math

from .errors import SchemaError
from .newton import NewtonDiagram, analyze_support
from .subdivision import subdivide_diagram
from .tropical import _sub_curve, dual_tropical_curve


def _fmt(n: int, d: int) -> str:
    """n/d, for ints n and d > 0, to four decimal places, half to even.

    ``divmod(10^4 n, d)`` gives floor(10^4 n/d) and a remainder r with
    r/d the fractional part of 10^4 n/d; both, and so the rounding and
    the half-tie test 2r == d, depend on n/d alone, so n/d need not be
    in lowest terms.
    """
    q, r = divmod(n * 10000, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    s = f"{abs(q) // 10000}.{abs(q) % 10000:04d}".rstrip("0").rstrip(".")
    return ("-" if q < 0 else "") + s


def _key(n: int, d: int):
    """The key of n/d (d > 0) in an ``_Axis``: an int, or a pair in
    lowest terms, so that equal values share one entry."""
    g = math.gcd(n, d)
    return n // g if g == d else (n // g, d // g)


class _Axis(dict):
    """The formatted coordinates of one axis of a figure, by ``_key``;
    each is formatted on its first lookup.  The entry for n/d is the
    value s - n/d with s = sn/sd when ``flip`` is set, else n/d."""

    def __init__(self, sn: int = 0, sd: int = 1, flip: bool = False):
        super().__init__()
        self.sn, self.sd, self.sign = sn, sd, -1 if flip else 1

    def __missing__(self, key) -> str:
        n, d = (key, 1) if type(key) is int else key
        text = self[key] = _fmt(self.sn * d + self.sign * n * self.sd, self.sd * d)
        return text


def _attrs(**attrs) -> str:
    """Attribute text; ``stroke_width`` is written stroke-width and
    ``class_`` class."""
    return "".join(f' {k.rstrip("_").replace("_", "-")}="{v}"' for k, v in attrs.items())


_GRID = _attrs(stroke="#eeeeee", stroke_width="0.02")
_REGION = _attrs(fill="#dbe9f6", stroke="none", class_="region")
_BOUNDARY = _attrs(stroke="#27496d", stroke_width="0.07", class_="boundary")
_CELL = _attrs(fill="none", stroke="#8a8a8a", stroke_width="0.03",
               fill_opacity="0.85", class_="cell")
_SQUARE = _attrs(fill="#ffe3a3", stroke="#8a8a8a", stroke_width="0.03",
                 fill_opacity="0.85", class_="cell square")
_SEG = _attrs(stroke="#b3202c", stroke_width="0.06", class_="seg")
_RAY = _attrs(stroke="#b3202c", stroke_width="0.06", class_="ray")
_WEIGHT = _attrs(font_size="0.3", fill="#b3202c", class_="weight")
_HALF = _attrs(stroke="#b3202c", stroke_width="0.06",
               stroke_dasharray="0.12 0.08", class_="half")
_VERTEX = _attrs(fill="#27496d", class_="vertex")


class _Scene:
    """One figure's elements.  ``box`` is (X0, Y0, X1, Y1, B), the
    viewbox from X0/B to X1/B and Y0/B to Y1/B; y is drawn flipped, as
    (Y0 + Y1)/B - y, which keeps the box fixed."""

    def __init__(self, box: tuple[int, int, int, int, int]):
        self.box = box
        self.xs = _Axis()
        self.ys = _Axis(box[1] + box[3], box[4], flip=True)
        self.parts: list[str] = []

    def line(self, a: tuple[str, str], b: tuple[str, str], attrs: str) -> None:
        self.parts.append(f'<line x1="{a[0]}" y1="{a[1]}" '
                          f'x2="{b[0]}" y2="{b[1]}"{attrs}/>')

    def polygon(self, ring, attrs: str) -> None:
        xs, ys = self.xs, self.ys
        pts = " ".join([f"{xs[i]},{ys[j]}" for i, j in ring])
        self.parts.append(f'<polygon points="{pts}"{attrs}/>')

    def grid(self) -> None:
        """The lattice lines across the box."""
        x0, y0, x1, y1, den = self.box
        xs, ys = self.xs, self.ys
        left, right = xs[_key(x0, den)], xs[_key(x1, den)]
        top, bottom = ys[_key(y0, den)], ys[_key(y1, den)]
        for gx in range(-(-x0 // den), x1 // den + 1):
            self.line((xs[gx], top), (xs[gx], bottom), _GRID)
        for gy in range(-(-y0 // den), y1 // den + 1):
            self.line((left, ys[gy]), (right, ys[gy]), _GRID)

    def point(self, n: int, m: int, d: int) -> tuple[str, str]:
        """The formatted point (n/d, m/d)."""
        return self.xs[_key(n, d)], self.ys[_key(m, d)]

    def curve_edge(self, a, b, weight: int, attrs: str) -> None:
        """A curve edge between the points a and b, triples (X, Y, D),
        labelled at its midpoint if weight > 1."""
        self.line(self.point(*a), self.point(*b), attrs)
        if weight > 1:
            mx, my = self.point(*_midpoint(a, b))
            self.parts.append(f'<text x="{mx}" y="{my}"{_WEIGHT}>{weight}</text>')

    def to_svg(self) -> str:
        x0, y0, x1, y1, den = self.box
        vb = f"{_fmt(x0, den)} {_fmt(y0, den)} {_fmt(x1 - x0, den)} {_fmt(y1 - y0, den)}"
        body = "\n".join(self.parts)
        return ('<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'viewBox="{vb}">\n{body}\n</svg>\n')


def _midpoint(a, b) -> tuple[int, int, int]:
    """The midpoint of the points with triples a and b, as a triple."""
    (x, y, d), (u, v, c) = a, b
    return x * c + u * d, y * c + v * d, 2 * d * c


def _clip_ray(a: tuple[int, int, int], d: tuple[int, int], box) -> tuple[int, int, int]:
    """Exact exit point (X, Y, D) of the ray a + t d from the box, for a
    = (X/D, Y/D) inside it.  Against the wall at W/B on one axis, the
    ray's parameter is t = P/(B D Q) with P = |W D - X B| and Q = |d| on
    that axis; the exit is at the least t."""
    x, y, den = a
    x0, y0, x1, y1, b = box
    best = None
    for at, step, lo, hi in ((x, d[0], x0, x1), (y, d[1], y0, y1)):
        if step:
            p, q = abs((hi if step > 0 else lo) * den - at * b), abs(step)
            if best is None or p * best[1] < best[0] * q:
                best = (p, q)
    p, q = best
    return x * b * q + p * d[0], y * b * q + p * d[1], den * b * q


def _bounding_box(nd: NewtonDiagram, triples) -> tuple[int, int, int, int, int]:
    """(X0, Y0, X1, Y1, B): the least box around the hull vertices and
    the curve vertices, given as triples (X, Y, D), with each side moved
    out by a fifth of the box's extent on its axis (by one where that is
    zero), over the one denominator B."""
    pts = [(p.i, p.j, 1) for p in nd.gamma_minus.vertices] + list(triples)
    x0 = x1 = y0 = y1 = pts[0]
    for p in pts:
        if p[0] * x0[2] < x0[0] * p[2]:
            x0 = p
        elif p[0] * x1[2] > x1[0] * p[2]:
            x1 = p
        if p[1] * y0[2] < y0[1] * p[2]:
            y0 = p
        elif p[1] * y1[2] > y1[1] * p[2]:
            y1 = p
    den = math.lcm(x0[2], x1[2], y0[2], y1[2])
    lo_x, hi_x = _padded(x0[0] * (den // x0[2]), x1[0] * (den // x1[2]), den)
    lo_y, hi_y = _padded(y0[1] * (den // y0[2]), y1[1] * (den // y1[2]), den)
    return lo_x, lo_y, hi_x, hi_y, 5 * den


def _padded(lo: int, hi: int, den: int) -> tuple[int, int]:
    """lo/den and hi/den moved apart by a fifth of their distance, or by
    one each if they are equal, over 5 den: lo - (hi - lo)/5 = (6 lo -
    hi)/5."""
    if lo == hi:
        return 5 * (lo - den), 5 * (hi + den)
    return 6 * lo - hi, 6 * hi - lo


REGIONS = ("gamma-minus", "full")


def render_svg(support, show_subdivision: bool = True, show_curve: bool = True,
               region: str = "gamma-minus") -> str:
    """Figure for a support set, as ``analyze_support`` takes it;
    ``region``, one of ``REGIONS``, picks the curve restriction: the
    region under the boundary or the whole hull.

    No cell is classified here.  ``subdivide_diagram`` has found the
    cells under the boundary, ``inside_cells``, and proved that they tile
    it; ``_certify`` has proved that all the cells tile the hull.  So
    the sub-curve is cut from those ids, as ``restrict`` would cut it.
    """
    if region not in REGIONS:
        raise SchemaError(f"region {region!r} is not one of {', '.join(REGIONS)}")
    nd = analyze_support(support)
    sdd = subdivide_diagram(nd)
    sd = sdd.subdivision
    tc = dual_tropical_curve(sd)

    triples = [v.triple for v in tc.vertices]
    scene = _Scene(_bounding_box(nd, triples))
    scene.grid()  # lattice grid under everything
    scene.polygon(nd.gamma_minus.vertices, _REGION)
    for a, b in zip(nd.gamma_vertices, nd.gamma_vertices[1:]):
        scene.line(scene.point(a.i, a.j, 1), scene.point(b.i, b.j, 1), _BOUNDARY)

    if show_subdivision:
        for cell in sd.cells:
            scene.polygon(cell.polygon.vertices,
                          _SQUARE if cell.kind == "square" else _CELL)

    if show_curve:
        if region == "gamma-minus":
            sc = _sub_curve(tc, sdd.inside_cells)
        else:
            sc = _sub_curve(tc, tuple(range(len(sd.cells))))
        for k in sc.full_segments:
            e = tc.edges[k]
            v, w = e.endpoints
            scene.curve_edge(triples[v], triples[w], e.weight, _SEG)
        for k in sc.rays:
            e = tc.edges[k]
            a = triples[e.endpoints[0]]
            scene.curve_edge(a, _clip_ray(a, e.direction, scene.box), e.weight, _RAY)
        kept = set(sc.vprime)
        for k in sc.half_edges:
            v, w = tc.edges[k].endpoints
            if v not in kept:
                v, w = w, v
            scene.line(scene.point(*triples[v]),
                       scene.point(*_midpoint(triples[v], triples[w])), _HALF)
        for vid in sc.vprime:
            cx, cy = scene.point(*triples[vid])
            scene.parts.append(f'<circle cx="{cx}" cy="{cy}" r="0.09"{_VERTEX}/>')

    return scene.to_svg()
