"""Print one SHA-256 digest per output family of the package in this
checkout, so that two checkouts can be compared line by line.

    python3 tools/equivalence.py            # seeds 1-3, every item
    python3 tools/equivalence.py --quick    # seed 1, first 50 items per family

Run it in the parent checkout and in the changed one and diff the two
outputs: a change that keeps every answer prints the same lines.
``tools/equivalence_quick.txt`` holds the ``--quick`` lines of the
current outputs and ``tools/equivalence_full.txt`` the full ones (about
30 s), and CI diffs against both; a change that means to change an
output updates those files and says why.  The families are

  * liftings.{subdivision,curve,duality}: ``repr`` of the lower hull
    subdivision, its dual curve and the duality report on 500
    ``random_lifted_support(SplitMix64(s), 20, 120)`` per seed, the
    benchmark's liftings;
  * {corpus,ladder}.{chosen,default}: ``repr(RegularSubdivision)`` under
    the lifting ``subdivide_diagram`` chooses and under the default
    separable lifting, on 200 ``staircase_support(SplitMix64(s), 12, 12)``
    per seed and on the ladder x^n + y^(n+1), n = 2..40.  ``chosen``
    digests the separable fast path (full squares by proof, the wrap
    over the pocket) and ``default`` the general gift-wrap,
    ``lower_hull_subdivision``, its oracle: the two agree exactly where
    ``subdivide_diagram`` keeps the default lifting;
  * {corpus,ladder}.{json,emit-poly}: ``analyze(...).to_json()`` and the
    ``emit-poly`` text on the same germs;
  * svg: ``render_svg`` bytes of the quintic and the cusp, both regions;
  * thin.{chosen,default,json}: as for the corpus, on thin diagrams, for
    k = 2, 4, 8, ... up to 256 (128 with ``--quick``): x^2 + y^(k+1) and
    x^(k+1) + y^2, x^3 + y^k and x^k + y^3 (k >= 4), and the bent
    x^2 + x*y^(k/8) + y^(k+1) (k >= 8), which takes the kinked lifting;
  * svg.{corpus,ladder,thin,layers}: ``render_svg`` bytes, both regions,
    of the first 200 corpus germs of seed 1 (50 with ``--quick``), the
    ladder for n = 2..12 and the thin diagrams for k <= 8; and of the
    quintic under the three layer choices of ``render`` (both layers,
    the subdivision alone, the curve alone);
  * parse.{germ,lifted}: ``repr`` of what ``parse_germ`` and
    ``parse_puiseux_poly`` return, or of the error's (class, message,
    ``pos``), on 10,000 strings of random characters and 10,000 token
    strings with a blank at each token boundary drawn with even odds,
    per parser, from ``SplitMix64(1)`` (1,000 each with ``--quick``);
    the lifted tokens include the run ``t^2/``, without which a zero
    denominator is almost never drawn;
  * demos: the standard output of each script in ``demos/``, run on a
    copy in a new temporary directory, with that directory's path
    written as ``<tmp>`` (demo 04 prints the paths of its figures).

Standard library only; the package is imported from this checkout's
``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tropnewton.corpus import SplitMix64, random_lifted_support, staircase_support  # noqa: E402
from tropnewton.errors import TropnewtonError  # noqa: E402
from tropnewton.newton import analyze_support  # noqa: E402
from tropnewton.parsing import parse_germ, parse_puiseux_poly  # noqa: E402
from tropnewton.patchwork import analyze, build_patchwork, emit_polynomial_text  # noqa: E402
from tropnewton.hull import lower_hull_subdivision  # noqa: E402
from tropnewton.subdivision import separable_lifting, subdivide_diagram  # noqa: E402
from tropnewton.svg import REGIONS, render_svg  # noqa: E402
from tropnewton.tropical import dual_tropical_curve, verify_duality  # noqa: E402

LIFTINGS = 500
GERMS = 200
LADDER = range(2, 41)
THIN = 8
SVG_LADDER = range(2, 13)
SVG_THIN = 3
LAYERS = ((True, True), (True, False), (False, True))
FIGURES = {"quintic": [(5, 0), (2, 2), (0, 5)], "cusp": [(2, 0), (0, 3)]}
PARSE_STRINGS = 10_000
PARSERS = {  # parser, characters, tokens
    "germ": (parse_germ, "xyi0123456789+-*^ ",
             ["x", "y", "i", "^", "*", "+", "-", "0", "1", "2", "12"]),
    "lifted": (parse_puiseux_poly, "tzw0123456789+-*^/() ",
               ["t", "z", "w", "^", "*", "+", "-", "/", "(", ")", "0", "1", "2", "12", "t^2/"]),
}


def _lifting_family(seed: int, count: int) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {"subdivision": [], "curve": [], "duality": []}
    rng = SplitMix64(seed)
    for _ in range(count):
        sd = lower_hull_subdivision(random_lifted_support(rng, 20, 120))
        tc = dual_tropical_curve(sd)
        out["subdivision"].append(repr(sd))
        out["curve"].append(repr(tc))
        out["duality"].append(repr(verify_duality(tc)))
    return out


def _germ_family(supports) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {"chosen": [], "default": [], "json": [], "emit-poly": []}
    for support in supports:
        nd = analyze_support(support)
        sdd = subdivide_diagram(nd)
        out["chosen"].append(repr(sdd.subdivision))
        out["default"].append(repr(lower_hull_subdivision(separable_lifting(nd))))
        out["json"].append(analyze(support).to_json())
        out["emit-poly"].append(emit_polynomial_text(build_patchwork(nd, sdd)))
    return out


def thin_supports(top: int) -> list[list[tuple[int, int]]]:
    """The thin diagrams for k = 2, 4, ..., 2^top (module docstring)."""
    out = []
    for m in range(1, top + 1):
        k = 2 ** m
        out += [[(2, 0), (0, k + 1)], [(k + 1, 0), (0, 2)]]
        if m >= 2:
            out += [[(3, 0), (0, k)], [(k, 0), (0, 3)]]
        if m >= 3:
            out.append([(2, 0), (1, k // 8), (0, k + 1)])
    return out


def families(quick: bool):
    """(name, texts) for every family, in a fixed order."""
    seeds = (1,) if quick else (1, 2, 3)
    cap = 50 if quick else None
    for seed in seeds:
        for name, texts in _lifting_family(seed, cap or LIFTINGS).items():
            yield f"liftings.{name} seed={seed}", texts
    for seed in seeds:
        rng = SplitMix64(seed)
        supports = [staircase_support(rng, 12, 12) for _ in range(GERMS)][:cap]
        for name, texts in _germ_family(supports).items():
            yield f"corpus.{name} seed={seed}", texts
    ladder = [[(n, 0), (0, n + 1)] for n in LADDER][:cap]
    for name, texts in _germ_family(ladder).items():
        yield f"ladder.{name} n={LADDER[0]}..{LADDER[0] + len(ladder) - 1}", texts
    yield "svg", [render_svg(points, region=region)
                  for points in FIGURES.values() for region in REGIONS]
    top = THIN - 1 if quick else THIN
    for name, texts in _germ_family(thin_supports(top)).items():
        if name != "emit-poly":
            yield f"thin.{name} k<={2 ** top}", texts
    yield from _svg_families(cap)
    for name, (parse, chars, tokens) in PARSERS.items():
        count = PARSE_STRINGS // 10 if quick else PARSE_STRINGS
        yield f"parse.{name}", _parse_family(parse, chars, tokens, count)
    yield "demos", _demo_family()


def _parse_family(parse, chars, tokens, count) -> list[str]:
    rng = SplitMix64(1)
    texts = ["".join(chars[rng.below(len(chars))] for _ in range(rng.below(16)))
             for _ in range(count)]
    for _ in range(count):
        drawn = [tokens[rng.below(len(tokens))] for _ in range(rng.between(1, 12))]
        texts.append("".join(" " * rng.below(2) + token for token in drawn + [""]))
    out = []
    for text in texts:
        try:
            out.append(repr(parse(text)))
        except TropnewtonError as exc:
            out.append(repr((type(exc).__name__, str(exc), getattr(exc, "pos", None))))
    return out


def _demo_family() -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp:
            script = Path(tmp) / demo.name
            shutil.copy(demo, script)
            proc = subprocess.run([sys.executable, str(script)], cwd=tmp, env=env,
                                  capture_output=True, text=True, check=True)
            out.append(proc.stdout.replace(tmp, "<tmp>"))
    return out


def _figures(supports) -> list[str]:
    return [render_svg(points, region=region)
            for points in supports for region in REGIONS]


def _svg_families(cap):
    rng = SplitMix64(1)
    corpus = [staircase_support(rng, 12, 12) for _ in range(GERMS)][:cap]
    yield "svg.corpus seed=1", _figures(corpus)
    ladder = [[(n, 0), (0, n + 1)] for n in SVG_LADDER]
    yield f"svg.ladder n={SVG_LADDER[0]}..{SVG_LADDER[-1]}", _figures(ladder)
    yield f"svg.thin k<={2 ** SVG_THIN}", _figures(thin_supports(SVG_THIN))
    yield "svg.layers quintic", [
        render_svg(FIGURES["quintic"], show_subdivision=sub, show_curve=curve,
                   region=region)
        for sub, curve in LAYERS for region in REGIONS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="seed 1 and the first 50 items of each family")
    ns = ap.parse_args(argv)
    for name, texts in families(ns.quick):
        digest = hashlib.sha256()
        for text in texts:
            digest.update(text.encode())
            digest.update(b"\0")
        print(f"{digest.hexdigest()}  {len(texts):4d}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
