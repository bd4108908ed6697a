"""Inputs, timed calls and output checks for the four workloads.

An item is one germ, one lifted support or one CLI call.  Running an
item times only the calls into tropnewton; the checks that follow are
the benchmark's own and use arithmetic that shares no code with the
package (Kouchnirenko's area formula, Pick's theorem, shoelace areas),
plus pinned goldens.  With a tracer, each call into a module runs
inside a span named ``<module>.<stage>``; germ items are then replayed
stage by stage through the public functions and must reproduce the
values ``analyze()`` gave for the same item in the untraced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tropnewton import (
    LiftedSupport,
    SplitMix64,
    analyze,
    analyze_support,
    build_patchwork,
    count_bounded_regions,
    count_four_valent,
    delta_invariant,
    dual_tropical_curve,
    emit_polynomial_text,
    lower_hull_subdivision,
    milnor_number,
    parse_germ,
    parse_puiseux_poly,
    render_svg,
    restrict,
    staircase_support,
    subdivide_diagram,
    verify_duality,
)
from tropnewton import cli
from tropnewton.corpus import random_lifted_support

from spans import NullTracer

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
NULL = NullTracer()

# The corpus is the one `tropnewton corpus` certifies by default (seed 1,
# pmax = qmax = 12).  Its per-germ cost is heavy-tailed: a germ that needs
# the exact-LP lifting costs about ten times one that does not, and a fresh
# 100- or 200-germ sample per benchmark seed moved the total by 24-27%
# between quartiles over ten seeds.  So it is pinned, like the ladder.
CORPUS_SEED = 1
CORPUS_COUNT = 80
LADDER_RUNGS = (10, 20, 30, 40)
LIFTING_COUNT = 500
LIFTING_SPAN = 20
LIFTING_MAX_POINTS = 120
# Outputs run mostly on fixed germs.  The seeded ones stay tiny (p, q <= 3),
# cheaper than the median call, so the seed does not decide the percentiles;
# two seeded germs up to p, q <= 4 moved item_s.p50 by 9% across seeds.
OUTPUT_FIXED = ("x^7+y^8", "x^6+x^3*y^3+y^6", "x^5+x*y^3+y^4", "x^4+x^2*y^2+y^6")
OUTPUT_SEEDED = 3
OUTPUT_PQ_MAX = 3
ANCHOR_GERM = "x^5+x^2*y^2+y^5"
LEMMA_PAIRS = ((2, 3), (5, 7), (12, 25), (40, 39))

# Pinned at the commit that introduced the benchmark; the ROADMAP requires
# emit-poly text and SVG bytes to stay byte-identical.
GOLDENS = {
    "x^5+x^2*y^2+y^5": {
        "report": (11, 6, 5, 6, 2),
        "svg": {
            (): "dfcf98f32bd688fb5419f1de9022927a922f1427d6b5d6cc36c6a82cc384ac9e",
            ("--region", "full"):
                "a83e5d55658b761014a318b5fd06fd896f74ec1e3a994620a10380c6373450a6",
        },
    },
    "x^2+y^3": {
        "report": (2, 1, 1, 1, 1),
        "emit": "1+tz+tw+t^3z^2+t^2zw+t^3w^2+t^6w^3",
        "svg": {
            (): "7bff95af2aa1b3319994e1b2b96bbd3afc465e506059bf06908b602785a3f8e6",
        },
    },
}


@dataclass
class Item:
    ident: str  # replayable description, printed when the item fails
    size: int  # lattice points the item certifies
    data: dict
    anchor: bool = False  # the workload's largest seed-independent input


@dataclass
class Outcome:
    call: tuple[float, float]  # perf_counter() around the calls into tropnewton
    problems: list[str]
    value: object = None
    counts: dict = field(default_factory=dict)


# --- arithmetic the checks use, independent of the package -------------------

def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_chain(points) -> list[tuple[int, int]]:
    chain: list[tuple[int, int]] = []
    for pt in sorted(set(points)):
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], pt) <= 0:
            chain.pop()
        chain.append(pt)
    return chain


def newton_expectations(points) -> tuple[int, int]:
    """(Newton number, lattice points on or under the Newton boundary).

    Kouchnirenko: mu = 2A - p - q + 1 for the area A under the boundary.
    Pick: the closed region holds A + B/2 + 1 lattice points.
    """
    pts = [(int(i), int(j)) for i, j in points]
    q = min(j for i, j in pts if i == 0)
    p = min(i for i, j in pts if j == 0)
    chain = _lower_chain([(i, j) for i, j in pts if i <= p and j <= q])
    chain = chain[:chain.index((p, 0)) + 1]
    area2 = sum((b[0] - a[0]) * (a[1] + b[1]) for a, b in zip(chain, chain[1:]))
    boundary = p + q + sum(math.gcd(b[0] - a[0], a[1] - b[1])
                           for a, b in zip(chain, chain[1:]))
    return area2 - p - q + 1, (area2 + boundary) // 2 + 1


def hull_area2(points) -> int:
    """Twice the area of the convex hull, by the shoelace formula."""
    lower = _lower_chain(points)
    upper = _lower_chain([(-i, -j) for i, j in points])
    ring = lower[:-1] + [(-i, -j) for i, j in upper[:-1]]
    return abs(sum(a[0] * b[1] - b[0] * a[1]
                   for a, b in zip(ring, ring[1:] + ring[:1])))


def germ_text(points) -> str:
    def term(i, j):
        x = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        y = "" if j == 0 else ("y" if j == 1 else f"y^{j}")
        return "*".join(f for f in (x, y) if f)
    return "+".join(term(i, j) for i, j in sorted(points, reverse=True))


# --- germs through analyze: corpus and ladder --------------------------------

def _germ_item(points, expect_mu: int | None = None) -> Item:
    """A germ with its expectations, computed from the generated support."""
    text = germ_text(points)
    mu, count = newton_expectations(points)
    return Item(text, count, {"germ": text, "points": count,
                              "mu": mu if expect_mu is None else expect_mu})


def _replay_analyze(text: str, tr) -> tuple[tuple, dict]:
    """analyze() stage by stage, one span per call into a module."""
    with tr.span("parsing.parse_germ"):
        support = parse_germ(text)
    with tr.span("newton.analyze_support"):
        nd = analyze_support(support.points)
    with tr.span("lattice.enumerate"):
        points = len(nd.gamma_minus_lattice)
    with tr.span("subdivision.separable") as sp:
        sdd = subdivide_diagram(nd)
        fallback = bool(getattr(sdd, "used_fallback", False))
        if fallback:
            sp.name = "subdivision.fallback"
    with tr.span("patchwork.build"):
        pp = build_patchwork(nd, sdd)
    with tr.span("tropical.curve"):
        tc = dual_tropical_curve(sdd.subdivision)
    with tr.span("tropical.duality"):
        duality = verify_duality(tc)
    with tr.span("tropical.restrict"):
        sc = restrict(tc, nd.gamma_minus)
    with tr.span("tropical.counts"):
        v = count_four_valent(sc)
        r = count_bounded_regions(sc)
    with tr.span("newton.invariants"):
        mu = milnor_number(nd)
        branches = nd.branch_count
        delta = delta_invariant(mu, branches)
    value = (mu, v, r, delta, branches, mu == v + r, delta == v, duality.ok,
             nd.gamma_lattice, tuple(sorted(pp.nu.items())))
    counts = {"germs": 1, "fallbacks": int(fallback), "points": points,
              "cells": len(sdd.subdivision.cells), "edges": len(tc.edges),
              "v": v, "r": r}
    return value, counts


def run_germ(item: Item, tr=None, reference=None) -> Outcome:
    text = item.data["germ"]
    counts = {}
    t0 = perf_counter()
    if tr is None:
        rep = analyze(parse_germ(text))
        t1 = perf_counter()
        value = (rep.mu, rep.v, rep.r, rep.delta, rep.branches,
                 rep.identity_holds, rep.corollary_holds, rep.duality_ok,
                 rep.gamma_lattice, rep.lifting)
    else:
        value, counts = _replay_analyze(text, tr)
        t1 = perf_counter()
    mu, v, r, delta, branches, identity, corollary, duality = value[:8]
    problems = [name for name, ok in (("mu = v + r fails", identity),
                                      ("delta = v fails", corollary),
                                      ("duality fails", duality)) if not ok]
    if mu != item.data["mu"]:
        problems.append(f"mu = {mu}, expected {item.data['mu']}")
    if len(value[9]) != item.data["points"]:
        problems.append(f"{len(value[9])} lifted points, expected "
                        f"{item.data['points']}")
    if reference is not None and value != reference:
        problems.append("stage-by-stage replay differs from analyze()")
    return Outcome((t0, t1), problems, value, counts)


def corpus_items(seed: int, tiny: bool = False) -> list[Item]:
    """The default `tropnewton corpus` germs; seed-independent (see above)."""
    rng = SplitMix64(CORPUS_SEED)
    items = [_germ_item(staircase_support(rng, 12, 12))
             for _ in range(6 if tiny else CORPUS_COUNT)]
    max(items, key=lambda it: it.size).anchor = True
    return items


def ladder_items(seed: int, tiny: bool = False) -> list[Item]:
    """x^n + y^(n+1), whose Milnor number is (n-1)n; seed-independent."""
    items = [_germ_item([(n, 0), (0, n + 1)], expect_mu=(n - 1) * n)
             for n in ((3, 4, 6) if tiny else LADDER_RUNGS)]
    items[-1].anchor = True
    return items


# --- lifted supports through the general lower hull --------------------------

def _lifting_item(ident: str, ls: LiftedSupport) -> Item:
    return Item(ident, len(ls.entries),
                {"lifting": ls, "area2": hull_area2(ls.points)})


def anchor_lifting(span: int, count: int) -> LiftedSupport:
    """A fixed support of ``count`` points with quarter-integer heights."""
    rng = SplitMix64(0)
    cells = rng.sample(0, span * span - 1, count)
    return LiftedSupport.from_mapping(
        {(c // span, c % span): Fraction(rng.below(32), 4) for c in cells})


def lifting_items(seed: int, tiny: bool = False) -> list[Item]:
    span, cap, count = (6, 10, 8) if tiny else (
        LIFTING_SPAN, LIFTING_MAX_POINTS, LIFTING_COUNT)
    rng = SplitMix64(seed)
    items = [_lifting_item(f"anchor span={span} points={cap}",
                           anchor_lifting(span, cap))]
    items[0].anchor = True
    items += [_lifting_item(f"seed={seed} span={span} max_points={cap} #{k}",
                            random_lifted_support(rng, span, cap))
              for k in range(count)]
    return items


def run_lifting(item: Item, tr=None, reference=None) -> Outcome:
    tr = tr or NULL
    ls = item.data["lifting"]
    t0 = perf_counter()
    with tr.span("subdivision.lower_hull"):
        sd = lower_hull_subdivision(ls)
    with tr.span("tropical.curve"):
        tc = dual_tropical_curve(sd)
    with tr.span("tropical.duality"):
        duality = verify_duality(tc)
    t1 = perf_counter()
    problems = ["duality: " + s for s in duality.violations]
    area2 = sum(c.polygon.area2 for c in sd.cells)
    if area2 != item.data["area2"]:
        problems.append(f"cells cover area2 {area2}, hull has {item.data['area2']}")
    counts = {"points": item.size, "cells": len(sd.cells), "edges": len(tc.edges)}
    return Outcome((t0, t1), problems, None, counts)


# --- CLI calls and their emitted text and bytes ------------------------------

def output_items(seed: int, tiny: bool = False) -> list[Item]:
    """Every subcommand but corpus on the goldens and a few seeded germs."""
    rng = SplitMix64(seed)
    seeded = [germ_text(staircase_support(rng, OUTPUT_PQ_MAX, OUTPUT_PQ_MAX))
              for _ in range(1 if tiny else OUTPUT_SEEDED)]
    germs = [*GOLDENS, *([] if tiny else OUTPUT_FIXED), *seeded]
    svg_path = str(OUT_DIR / "render.svg")
    items = []
    for germ in germs:
        mu, points = newton_expectations(parse_germ(germ).points)
        gold = GOLDENS.get(germ, {})
        base = {"germ": germ, "mu": mu, "points": points, "gold": gold}
        for argv in (["analyze", germ, "--json", "-"], ["certify", germ],
                     ["emit-poly", germ]):
            items.append(Item(" ".join(argv), points, {**base, "argv": argv}))
        for flags in gold.get("svg", {(): None}):
            argv = ["render", germ, *flags, "-o", svg_path]
            items.append(Item(" ".join(argv[:-2]), points,
                              {**base, "argv": argv, "flags": flags},
                              anchor=(germ == ANCHOR_GERM and not flags)))
    for p, q in LEMMA_PAIRS[:1] if tiny else LEMMA_PAIRS:
        items.append(Item(f"lemma {p} {q}", 0, {"argv": ["lemma", str(p), str(q)],
                                                "p": p, "q": q}))
    return items


def _call_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def _support(d, tr):
    with tr.span("parsing.parse_germ"):
        return parse_germ(d["germ"]).points


def _check_analyze(d, out, tr) -> list[str]:
    obj = json.loads(out)
    problems = [k for k in ("identity_holds", "corollary_holds", "duality_ok")
                if obj[k] is not True]
    got = tuple(obj[k] for k in ("mu", "v", "r", "delta", "branches"))
    if got[0] != d["mu"] or len(obj["lifting"]) != d["points"]:
        problems.append(f"mu {got[0]} over {len(obj['lifting'])} points, expected "
                        f"{d['mu']} over {d['points']}")
    if "report" in d["gold"] and got != d["gold"]["report"]:
        problems.append(f"report {got}, golden {d['gold']['report']}")
    pts = _support(d, tr)
    with tr.span("patchwork.analyze"):
        rep = analyze(pts)
    with tr.span("patchwork.to_json"):
        text = rep.to_json()
    if out != text + "\n":
        problems.append("JSON differs from AnalysisReport.to_json()")
    return problems


def _check_certify(d, out, tr) -> list[str]:
    lines = out.splitlines()
    problems = [] if len(lines) == 3 and all("PASS" in s for s in lines) else [
        "certify lines: " + " | ".join(lines)]
    if lines and f"({d['mu']} vs " not in lines[0]:
        problems.append(f"certify mu line {lines[0]!r}, expected mu {d['mu']}")
    return problems


def _check_emit(d, out, tr) -> list[str]:
    pts = _support(d, tr)
    with tr.span("newton.analyze_support"):
        nd = analyze_support(pts)
    with tr.span("patchwork.build"):
        pp = build_patchwork(nd)
    with tr.span("patchwork.emit"):
        text = emit_polynomial_text(pp)
    problems = [] if out == text + "\n" else ["emit-poly differs from the library"]
    if "emit" in d["gold"] and out != d["gold"]["emit"] + "\n":
        problems.append(f"emit-poly {out.strip()!r}, golden {d['gold']['emit']!r}")
    with tr.span("parsing.parse_puiseux_poly"):
        terms = parse_puiseux_poly(out.strip()).entries
    if len(terms) != d["points"]:
        problems.append(f"emit-poly has {len(terms)} terms, expected {d['points']}")
    return problems


def _check_render(d, out, tr) -> list[str]:
    data = Path(d["argv"][-1]).read_bytes()
    pts = _support(d, tr)
    region = "full" if "full" in d["flags"] else "gamma-minus"
    with tr.span("svg.render"):
        svg = render_svg(pts, region=region)
    problems = [] if data == svg.encode() else ["SVG file differs from render_svg()"]
    pinned = d["gold"].get("svg", {}).get(d["flags"])
    if pinned and hashlib.sha256(data).hexdigest() != pinned:
        problems.append("SVG digest differs from the pinned one")
    if not data.startswith(b'<?xml version="1.0"'):
        problems.append("SVG lacks its XML declaration")
    return problems


def _check_lemma(d, out, tr) -> list[str]:
    p, q = d["p"], d["q"]
    want = f"squares={(p - 1) * (q - 1) // 2} I={p + q - 1} PASS\n"
    return [] if out == want else [f"lemma printed {out.strip()!r}"]


_CHECKS = {"analyze": _check_analyze, "certify": _check_certify,
           "emit-poly": _check_emit, "render": _check_render,
           "lemma": _check_lemma}


def run_output(item: Item, tr=None, reference=None) -> Outcome:
    tr = tr or NULL
    d = item.data
    cmd = d["argv"][0]
    with tr.span("cli." + cmd.replace("-", "_")):
        t0 = perf_counter()
        code, out = _call_cli(d["argv"])
        t1 = perf_counter()
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += _CHECKS[cmd](d, out, tr)
    return Outcome((t0, t1), problems, counts={"points": item.size})


# name -> (item generator, item runner)
RUNNERS = {
    "corpus": (corpus_items, run_germ),
    "ladder": (ladder_items, run_germ),
    "liftings": (lifting_items, run_lifting),
    "outputs": (output_items, run_output),
}
