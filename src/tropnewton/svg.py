"""Standalone SVG figures: diagram, subdivision, and dual curve.

Output is deterministic byte for byte: all geometry is exact rational
until the final formatting step, which quantizes to four decimal
places with half-even rounding on the integer numerator and
denominator (no float and no ``Fraction`` arithmetic).  Rays are
clipped to the viewbox exactly; the viewbox is the bounding box of the
hull and the finite curve vertices, padded by twenty percent per side.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SchemaError
from .newton import NewtonDiagram, analyze_support
from .subdivision import subdivide_diagram
from .tropical import TropicalCurve, dual_tropical_curve, restrict


def _fmt(x) -> str:
    """x (an int or a Fraction) to four decimal places, half to even."""
    d = x.denominator
    n, r = divmod(x.numerator * 10000, d)
    if 2 * r > d or (2 * r == d and n & 1):
        n += 1
    s = f"{abs(n) // 10000}.{abs(n) % 10000:04d}".rstrip("0").rstrip(".")
    return ("-" if n < 0 else "") + s


def _attrs(attrs: dict) -> str:
    return "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())


class _Scene:
    def __init__(self, box: tuple[Fraction, Fraction, Fraction, Fraction]):
        self.box = box
        self.flip = box[1] + box[3]  # y + flip-constant keeps the box fixed
        self.parts: list[str] = []

    def pt(self, x, y) -> str:
        return f"{_fmt(x)},{_fmt(self.flip - y)}"

    def line(self, a, b, **attrs) -> None:
        x1, y1 = a
        x2, y2 = b
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(self.flip - y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(self.flip - y2)}"{_attrs(attrs)}/>')

    def polygon(self, ring, **attrs) -> None:
        pts = " ".join(self.pt(p[0], p[1]) for p in ring)
        self.parts.append(f'<polygon points="{pts}"{_attrs(attrs)}/>')

    def circle(self, c, r, **attrs) -> None:
        self.parts.append(
            f'<circle cx="{_fmt(c[0])}" cy="{_fmt(self.flip - c[1])}" '
            f'r="{r}"{_attrs(attrs)}/>')

    def text(self, c, s, **attrs) -> None:
        self.parts.append(
            f'<text x="{_fmt(c[0])}" y="{_fmt(self.flip - c[1])}"'
            f'{_attrs(attrs)}>{s}</text>')

    def curve_edge(self, a, b, weight: int, cls: str) -> None:
        """A curve edge from a to b, labelled at its midpoint if weight > 1."""
        self.line(a, b, stroke="#b3202c", stroke_width="0.06", **{"class": cls})
        if weight > 1:
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            self.text(mid, str(weight), font_size="0.3", fill="#b3202c",
                      **{"class": "weight"})

    def to_svg(self) -> str:
        x0, y0, x1, y1 = self.box
        vb = f"{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}"
        body = "\n".join(self.parts)
        return ('<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'viewBox="{vb}">\n{body}\n</svg>\n')


def _clip_ray(a, d, box):
    """Exact exit point of the ray a + t d from the box; a must be inside."""
    x0, y0, x1, y1 = box
    ts = []
    if d[0] > 0:
        ts.append((x1 - a[0]) / d[0])
    elif d[0] < 0:
        ts.append((x0 - a[0]) / d[0])
    if d[1] > 0:
        ts.append((y1 - a[1]) / d[1])
    elif d[1] < 0:
        ts.append((y0 - a[1]) / d[1])
    t = min(ts)
    return (a[0] + t * d[0], a[1] + t * d[1])


def _bounding_box(nd: NewtonDiagram, tc: TropicalCurve):
    xs = [Fraction(p.i) for p in nd.gamma_minus.vertices]
    ys = [Fraction(p.j) for p in nd.gamma_minus.vertices]
    xs += [v.coords[0] for v in tc.vertices]
    ys += [v.coords[1] for v in tc.vertices]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    mx = (x1 - x0) / 5 or Fraction(1)
    my = (y1 - y0) / 5 or Fraction(1)
    return (x0 - mx, y0 - my, x1 + mx, y1 + my)


REGIONS = ("gamma-minus", "full")


def render_svg(support, show_subdivision: bool = True, show_curve: bool = True,
               region: str = "gamma-minus") -> str:
    """Figure for a support set; ``region``, one of ``REGIONS``, picks the
    curve restriction: the region under the boundary or the whole hull."""
    if region not in REGIONS:
        raise SchemaError(f"region {region!r} is not one of {', '.join(REGIONS)}")
    nd = analyze_support(support)
    sdd = subdivide_diagram(nd)
    tc = dual_tropical_curve(sdd.subdivision)
    sc = restrict(tc, nd.gamma_minus if region == "gamma-minus"
                  else sdd.subdivision.domain)

    box = _bounding_box(nd, tc)
    sc_scene = _Scene(box)

    # lattice grid under everything
    x0, y0, x1, y1 = box
    gx0, gx1 = math.ceil(x0), math.floor(x1)
    gy0, gy1 = math.ceil(y0), math.floor(y1)
    for gx in range(gx0, gx1 + 1):
        sc_scene.line((gx, y0), (gx, y1), stroke="#eeeeee", stroke_width="0.02")
    for gy in range(gy0, gy1 + 1):
        sc_scene.line((x0, gy), (x1, gy), stroke="#eeeeee", stroke_width="0.02")

    sc_scene.polygon([(p.i, p.j) for p in nd.gamma_minus.vertices],
                     fill="#dbe9f6", stroke="none", **{"class": "region"})
    for a, b in zip(nd.gamma_vertices, nd.gamma_vertices[1:]):
        sc_scene.line((a.i, a.j), (b.i, b.j), stroke="#27496d",
                      stroke_width="0.07", **{"class": "boundary"})

    if show_subdivision:
        for cell in sdd.subdivision.cells:
            cls = "cell square" if cell.kind == "square" else "cell"
            fill = "#ffe3a3" if cell.kind == "square" else "none"
            sc_scene.polygon([(p.i, p.j) for p in cell.polygon.vertices],
                             fill=fill, stroke="#8a8a8a", stroke_width="0.03",
                             fill_opacity="0.85", **{"class": cls})

    if show_curve:
        for k in sc.full_segments:
            e = tc.edges[k]
            sc_scene.curve_edge(tc.vertices[e.endpoints[0]].coords,
                              tc.vertices[e.endpoints[1]].coords, e.weight, "seg")
        for k in sc.rays:
            e = tc.edges[k]
            a = tc.vertices[e.endpoints[0]].coords
            sc_scene.curve_edge(a, _clip_ray(a, e.direction, box), e.weight, "ray")
        for h in sc.half_edges:
            a = tc.vertices[h.vertex].coords
            sc_scene.line(a, h.midpoint, stroke="#b3202c",
                          stroke_width="0.06", stroke_dasharray="0.12 0.08",
                          **{"class": "half"})
        for vid in sc.vprime:
            sc_scene.circle(tc.vertices[vid].coords, "0.09", fill="#27496d",
                            **{"class": "vertex"})

    return sc_scene.to_svg()
