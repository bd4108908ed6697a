"""Exact invariants of isolated plane curve singularities.

The package ties together a Newton-diagram analyzer, a regular
subdivision engine over exact rationals, and the dual tropical curve,
and certifies the arithmetic identities between them.
"""

from .newton import (
    NewtonDiagram,
    analyze_support,
    decompose_diagram,
    delta_invariant,
    milnor_number,
)
from .parsing import (
    LiftedSupport,
    SupportSet,
    load_json,
    parse_germ,
    parse_puiseux_poly,
    serialize_json,
)
from .patchwork import (
    AnalysisReport,
    analyze,
    build_patchwork,
    emit_polynomial_text,
)
from .certificate import RegularSubdivision
from .hull import lower_hull_subdivision
from .subdivision import SubdividedDiagram, separable_lifting, subdivide_diagram
from .svg import render_svg
from .corpus import SplitMix64, run_corpus, staircase_support
from .tropical import (
    TropicalCurve,
    TropicalSubCurve,
    count_bounded_regions,
    count_four_valent,
    dual_tropical_curve,
    restrict,
    verify_duality,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "LiftedSupport",
    "NewtonDiagram",
    "RegularSubdivision",
    "SplitMix64",
    "SubdividedDiagram",
    "SupportSet",
    "TropicalCurve",
    "TropicalSubCurve",
    "analyze",
    "analyze_support",
    "build_patchwork",
    "count_bounded_regions",
    "count_four_valent",
    "decompose_diagram",
    "delta_invariant",
    "dual_tropical_curve",
    "emit_polynomial_text",
    "load_json",
    "lower_hull_subdivision",
    "milnor_number",
    "parse_germ",
    "parse_puiseux_poly",
    "render_svg",
    "restrict",
    "run_corpus",
    "separable_lifting",
    "serialize_json",
    "staircase_support",
    "subdivide_diagram",
    "verify_duality",
]
