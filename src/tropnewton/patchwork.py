"""Coefficient polynomial over Puiseux series and the full certification run.

The polynomial attaches t^{nu(i, j)} to each lattice point of the
region under the Newton boundary, where nu is the certified lifting of
the special subdivision.  ``analyze`` chains every stage together:
diagram, subdivision, dual curve, duality report, restriction, counts,
and the two verdicts the whole construction exists to certify.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import require, require_instance
from .lattice import LatticePoint
from .newton import NewtonDiagram, analyze_support, delta_invariant, milnor_number
from .parsing import LiftedSupport
from .subdivision import SubdividedDiagram, subdivide_diagram
from .tropical import (
    count_bounded_regions,
    count_four_valent,
    dual_tropical_curve,
    restrict,
    verify_duality,
)


def build_patchwork(nd: NewtonDiagram,
                    subdivided: SubdividedDiagram | None = None) -> LiftedSupport:
    """The certified lifting of every lattice point under the boundary:
    F(z, w) = sum of t^{nu(i, j)} z^i w^j over its points."""
    require_instance(nd, NewtonDiagram, "build_patchwork")
    sdd = subdivided if subdivided is not None else subdivide_diagram(nd)
    require_instance(sdd, SubdividedDiagram, "build_patchwork")
    # cannot fail for our own subdivision; guards a passed-in one of another diagram
    require(sdd.lifting.points == nd.gamma_minus_lattice,
            "lifting points differ from the lattice points under the boundary")
    return sdd.lifting


def _monomial_text(pt: LatticePoint) -> str:
    z = "" if pt.i == 0 else ("z" if pt.i == 1 else f"z^{pt.i}")
    w = "" if pt.j == 0 else ("w" if pt.j == 1 else f"w^{pt.j}")
    return z + w


def emit_polynomial_text(lifting: LiftedSupport) -> str:
    """Canonical text form: ascending total degree, ties by descending i."""
    require_instance(lifting, LiftedSupport, "emit_polynomial_text")
    parts = []
    for pt, k in sorted(lifting.entries, key=lambda e: (e[0].i + e[0].j, -e[0].i)):
        t = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        parts.append((t + _monomial_text(pt)) or "1")
    return "+".join(parts)


@dataclass(frozen=True)
class AnalysisReport:
    mu: int
    v: int
    r: int
    delta: int
    branches: int
    identity_holds: bool
    corollary_holds: bool
    duality_ok: bool
    gamma_lattice: tuple[LatticePoint, ...]
    lifting: tuple[tuple[LatticePoint, Fraction], ...]
    notes: tuple[str, ...]

    @property
    def verdicts_hold(self) -> bool:
        """mu = v + r, delta = v and the duality check all hold."""
        return self.identity_holds and self.corollary_holds and self.duality_ok

    def to_json_obj(self) -> dict:
        return {
            "mu": _json_int(self.mu),
            "v": _json_int(self.v),
            "r": _json_int(self.r),
            "delta": _json_int(self.delta),
            "branches": _json_int(self.branches),
            "identity_holds": self.identity_holds,
            "corollary_holds": self.corollary_holds,
            "duality_ok": self.duality_ok,
            "gamma_lattice": [[_json_int(p.i), _json_int(p.j)]
                              for p in self.gamma_lattice],
            "lifting": [{"i": _json_int(p.i), "j": _json_int(p.j),
                         "nu": f"{h.numerator}/{h.denominator}"}
                        for p, h in self.lifting],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def summary_lines(self) -> tuple[str, ...]:
        return (
            f"mu       = {self.mu}",
            f"v        = {self.v}",
            f"r        = {self.r}",
            f"delta    = {self.delta}",
            f"branches = {self.branches}",
            f"mu = v + r   {'holds' if self.identity_holds else 'FAILS'}",
            f"delta = v    {'holds' if self.corollary_holds else 'FAILS'}",
            f"duality      {'holds' if self.duality_ok else 'FAILS'}",
        )


def _json_int(n: int):
    """Ints beyond exact double range travel as strings."""
    return n if abs(n) <= 2 ** 53 else str(n)


def analyze(support) -> AnalysisReport:
    """Full pipeline: diagram, subdivision, curve, counts, verdicts, for
    a support as ``analyze_support`` takes it.

    The two sides of each verdict are computed independently: mu and
    delta come from the staircase arithmetic of the diagram, v and r
    from the restricted dual curve.  A false verdict is reported, not
    raised, and flagged in the notes.
    """
    nd = analyze_support(support)
    sdd = subdivide_diagram(nd)
    tc = dual_tropical_curve(sdd.subdivision)
    duality = verify_duality(tc)
    sc = restrict(tc, nd.gamma_minus)
    v = count_four_valent(sc)
    r = count_bounded_regions(sc)
    mu = milnor_number(nd)
    branches = nd.branch_count
    delta = delta_invariant(mu, branches)

    notes = [
        "input support: " + ", ".join(f"({p.i},{p.j})" for p in nd.support),
        "lifting: " + ("separable, kinked at the boundary corners"
                       if sdd.used_fallback else "default separable"),
        "coefficient exponents are +nu, so -val(c_ij) = nu(i,j)",
    ]
    if mu != v + r:
        notes.append(f"COUNT MISMATCH: mu = {mu} but v + r = {v + r}")
    if delta != v:
        notes.append(f"COUNT MISMATCH: delta = {delta} but v = {v}")
    if not duality.ok:
        notes.extend("duality: " + s for s in duality.violations)

    return AnalysisReport(
        mu=mu, v=v, r=r, delta=delta, branches=branches,
        identity_holds=(mu == v + r),
        corollary_holds=(delta == v),
        duality_ok=duality.ok,
        gamma_lattice=nd.gamma_lattice,
        lifting=sdd.lifting.entries,
        notes=tuple(notes))
