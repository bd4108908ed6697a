"""Command line surface.

Subcommands: analyze, certify, render, emit-poly, lemma, corpus.
Exit codes: 0 all verdicts hold, 1 a verdict fails, 2 malformed input,
3 precondition violation, 4 file system trouble.

``main(argv)`` may be called repeatedly in one process.  The calls
share one argument parser, built on the first call; each parse returns
a fresh namespace, so no call sees another's arguments.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (
    DuplicateMonomialError,
    EmptySupportError,
    InternalCheckError,
    ParityViolationError,
    ParseError,
    SchemaError,
    TropnewtonError,
)
from .corpus import run_corpus
from .newton import analyze_support, crossed_square_count, triangle_square_count
from .parsing import SupportSet, germ_text, load_json, parse_germ
from .patchwork import analyze, build_patchwork, emit_polynomial_text
from .svg import REGIONS, render_svg

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4


def _load_support(ns) -> SupportSet:
    """The support, with its coefficients, from the positional
    expression or --file."""
    if ns.file:
        return load_json(ns.file)
    return parse_germ(ns.expression)


def _cmd_analyze(ns) -> int:
    rep = analyze(_load_support(ns))
    # with --json - the report owns stdout, so the summary moves to stderr
    summary_out = sys.stderr if ns.json == "-" else sys.stdout
    for line in rep.summary_lines():
        print(line, file=summary_out)
    if ns.json == "-":
        print(rep.to_json())
    elif ns.json:
        with open(ns.json, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json() + "\n")
    return EXIT_OK if rep.verdicts_hold else EXIT_VERDICT


def _cmd_certify(ns) -> int:
    rep = analyze(_load_support(ns))
    print(f"mu = v + r: {'PASS' if rep.identity_holds else 'FAIL'} "
          f"({rep.mu} vs {rep.v} + {rep.r})")
    print(f"delta = v:  {'PASS' if rep.corollary_holds else 'FAIL'} "
          f"({rep.delta} vs {rep.v})")
    print(f"duality:    {'PASS' if rep.duality_ok else 'FAIL'}")
    return EXIT_OK if rep.verdicts_hold else EXIT_VERDICT


def _cmd_emit_poly(ns) -> int:
    nd = analyze_support(_load_support(ns))
    print(emit_polynomial_text(build_patchwork(nd)))
    return EXIT_OK


def _cmd_render(ns) -> int:
    layers = ns.subdivision or ns.curve
    if ns.region and ns.subdivision and not ns.curve:
        print("error: --region restricts the curve, which --subdivision alone "
              "does not draw; add --curve or drop --region", file=sys.stderr)
        return EXIT_PARSE
    svg = render_svg(_load_support(ns),
                     show_subdivision=ns.subdivision or not layers,
                     show_curve=ns.curve or not layers,
                     region=ns.region or "gamma-minus")
    with open(ns.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def _cmd_lemma(ns) -> int:
    squares = triangle_square_count(ns.p, ns.q)
    crossed = crossed_square_count(ns.p, ns.q)
    ok = (2 * squares == (ns.p - 1) * (ns.q - 1)
          and crossed == ns.p + ns.q - 1
          and ns.p * ns.q == 2 * squares + crossed)
    try:
        line = f"squares={squares} I={crossed} {'PASS' if ok else 'FAIL'}"
    except ValueError as exc:  # a count past Python's int-to-str digit limit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    print(line)
    return EXIT_OK if ok else EXIT_VERDICT


def _cmd_corpus(ns) -> int:
    result = run_corpus(ns.seed, ns.count, ns.pmax, ns.qmax)
    print(f"{result.passed}/{result.count} identities hold")
    for support, report in result.failures:
        print("FAIL " + germ_text(SupportSet.from_points(support)),
              file=sys.stderr)
        print(report.to_json(), file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_VERDICT


def _at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}")
        return value
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tropnewton",
        description="Exact Newton-diagram and tropical-curve invariants "
                    "of isolated plane curve singularities.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("expression", nargs="?",
                       help="germ, e.g. \"x^5+x^2*y^2+y^5\"")
        p.add_argument("--file", help="JSON support instead of an inline expression")

    p = sub.add_parser("analyze", help="full pipeline with summary and verdicts")
    add_input(p)
    p.add_argument("--json", metavar="PATH",
                   help="write the report as JSON; '-' for standard output")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("certify", help="PASS/FAIL lines for the three verdicts")
    add_input(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("emit-poly", help="canonical coefficient polynomial text")
    add_input(p)
    p.set_defaults(fn=_cmd_emit_poly)

    p = sub.add_parser("render", help="write an SVG figure")
    add_input(p)
    p.add_argument("--subdivision", action="store_true",
                   help="draw the subdivision cells")
    p.add_argument("--curve", action="store_true", help="draw the dual curve")
    p.add_argument("--region", choices=REGIONS,
                   help="restrict the curve under the boundary (gamma-minus, the "
                        "default) or keep all of it; needs the curve layer")
    p.add_argument("-o", "--output", required=True, metavar="FILE.svg")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("lemma", help="square and crossed counts for a "
                                     "coprime right triangle")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(fn=_cmd_lemma)

    p = sub.add_parser("corpus", help="seeded batch certification")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=_at_least(1), default=100)
    p.add_argument("--pmax", type=_at_least(2), default=12)
    p.add_argument("--qmax", type=_at_least(2), default=12)
    p.set_defaults(fn=_cmd_corpus)

    return top


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    if getattr(ns, "expression", None) is not None and getattr(ns, "file", None):
        print("error: give an expression or --file, not both", file=sys.stderr)
        return EXIT_PARSE
    if hasattr(ns, "expression") and ns.expression is None and not ns.file:
        print("error: an expression or --file is required", file=sys.stderr)
        return EXIT_PARSE
    try:
        return ns.fn(ns)
    except ParseError as exc:
        print(f"error: {exc}\n{exc.caret_block()}", file=sys.stderr)
        return EXIT_PARSE
    except (SchemaError, DuplicateMonomialError, EmptySupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InternalCheckError, ParityViolationError):
        raise  # a defect, not an input problem; fail loudly
    except TropnewtonError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
