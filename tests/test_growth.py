"""A deterministic growth gate for ``analyze``: work counts, unlike run
times, do not spread between runs, so their growth in the number of
lattice points under the boundary is asserted exactly.

Spies in the test count, on three families of germs at three sizes:
point-location calls and the ``cross`` and ``on_segment`` tests under
them, the lifted-point reads of the wrap's picks, ``_certify``'s tests
of loose points against planes, the dual curve's edges and the duality
check's vertex reads.  The log-log slope of each count against the
lattice points, fitted by least squares over the three sizes, must stay
below ``BOUND``.  On the thin family a flat pick over the pocket reads
about points^2 lifted points, so its slope would be near 2.  Chains
with many edges do not meet the bound yet; their test is an expected
failure until point location under a chain stops scanning the
bounding box (ROADMAP item 3).
"""

from collections import Counter
from math import log

import pytest

from tropnewton import lattice, patchwork, subdivision
from tropnewton.lattice import ConvexPolygon, LatticePolygon
from tropnewton.patchwork import analyze

from oracles import Counted

BOUND = 1.15


# a germ like the corpus's (p, q <= 12), with five boundary edges, that
# takes the kinked lifting, as its multiples do
CHAIN = [(0, 8), (1, 4), (2, 3), (4, 2), (7, 1), (11, 0)]
FAMILIES = {
    "ladder": [[(n, 0), (0, n + 1)] for n in (8, 16, 32)],
    "thin": [[(2, 0), (0, 2 * k + 1)] for k in (12, 50, 200)],
    "chain": [[(s * i, s * j) for i, j in CHAIN] for s in (1, 2, 4)],
}


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [log(x) for x in xs], [log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def _stair(m: int) -> list:
    """The chain from (0, q) with steps (1, m), ..., (1, 1), (2, 1), ...,
    (m, 1): 2m - 1 boundary edges."""
    steps = [(1, k) for k in range(m, 0, -1)] + [(k, 1) for k in range(2, m + 1)]
    chain = [(0, sum(dy for _, dy in steps))]
    for dx, dy in steps:
        chain.append((chain[-1][0] + dx, chain[-1][1] - dy))
    return chain


NAMES = ("locate", "cross", "on_segment", "pick reads", "loose tests",
         "curve edges", "duality vertex reads")


def _spied(monkeypatch) -> Counter:
    """Install the spies; the returned counter gathers their counts."""
    counts: Counter = Counter()

    def counted(name, fn):
        def spy(*args):
            counts[name] += 1
            return fn(*args)
        return spy

    for region in (LatticePolygon, ConvexPolygon):
        monkeypatch.setattr(region, "locate", counted("locate", region.locate))
    monkeypatch.setattr(lattice, "cross", counted("cross", lattice.cross))
    monkeypatch.setattr(lattice, "on_segment", counted("on_segment", lattice.on_segment))
    real_lifted, real_wrap = subdivision._lifted, subdivision._wrap_over
    real_certify, real_curve = subdivision._certify, patchwork.dual_tropical_curve
    real_duality = patchwork.verify_duality

    def lifted(lifting):
        domain, scale, pts3 = real_lifted(lifting)
        return domain, scale, {pt: Counted(p) for pt, p in pts3.items()}

    def wrap(*args):
        before = Counted.reads
        facets = real_wrap(*args)
        counts["pick reads"] += Counted.reads - before
        return facets

    def certify(lifting, domain, pts3, scale, facets, lines):
        tight = {pt for _, on, _ in facets for pt in on}
        counts["loose tests"] += len(facets) * sum(pt not in tight for pt in pts3)
        return real_certify(lifting, domain, pts3, scale, facets, lines)

    def curve(sd):
        tc = real_curve(sd)
        counts["curve edges"] += len(tc.edges)
        return tc

    def duality(tc):
        # verify_duality reads each vertex's triple once
        counts["duality vertex reads"] += len(tc.vertices)
        return real_duality(tc)

    monkeypatch.setattr(subdivision, "_lifted", lifted)
    monkeypatch.setattr(subdivision, "_wrap_over", wrap)
    monkeypatch.setattr(subdivision, "_certify", certify)
    monkeypatch.setattr(patchwork, "dual_tropical_curve", curve)
    monkeypatch.setattr(patchwork, "verify_duality", duality)
    return counts


def _assert_near_linear(family, germs, counts, kinked: bool) -> None:
    points, rows = [], []
    for support in germs:
        counts.clear()
        report = analyze(support)
        assert report.verdicts_hold, (family, support)
        assert ("kinked" in report.notes[1]) == kinked
        points.append(len(report.lifting))  # one height per lattice point
        rows.append([counts[name] for name in NAMES])
    assert points[-1] >= 8 * points[0], (family, points)
    for name, values in zip(NAMES, zip(*rows)):
        if name == "loose tests" and not any(values):
            continue  # a diagram lifting makes every point a cell corner
        assert all(values), (family, name, values)
        assert slope(points, values) < BOUND, (family, name, points, values)


def test_work_grows_near_linearly_in_the_lattice_points(monkeypatch):
    counts = _spied(monkeypatch)
    for family, germs in FAMILIES.items():
        _assert_near_linear(family, germs, counts, kinked=family == "chain")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a LatticePolygon.locate per point "
                   "of the bounding box, each walking every boundary edge")
def test_work_grows_near_linearly_on_many_edge_chains(monkeypatch):
    # 29, 95 and 304 points; the locate, cross and on_segment counts grow
    # with slopes of about 1.2 to 1.7, as the bounding box outgrows the
    # region and the edges multiply
    _assert_near_linear("stair", [_stair(m) for m in (3, 5, 8)], _spied(monkeypatch),
                        kinked=False)
