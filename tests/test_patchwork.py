"""Coefficient polynomial, canonical text form, and the full report."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from tropnewton import patchwork
from tropnewton.corpus import SplitMix64, staircase_support
from tropnewton.errors import (
    NotConvenientError,
    NotSingularAtOriginError,
    SchemaError,
)
from tropnewton.lattice import LatticePoint, convex_hull
from tropnewton.newton import analyze_support
from tropnewton.parsing import LiftedSupport, parse_germ, parse_puiseux_poly
from tropnewton.patchwork import (
    analyze,
    build_patchwork,
    emit_polynomial_text,
)
from tropnewton.subdivision import subdivide_diagram

CUSP_NU = {(0, 0): 0, (1, 0): 1, (0, 1): 1, (2, 0): 3,
           (1, 1): 2, (0, 2): 3, (0, 3): 6}


def test_cusp_polynomial_support_and_lifting():
    pp = build_patchwork(analyze_support([(2, 0), (0, 3)]))
    assert len(pp.points) == 7
    assert {tuple(p): int(h) for p, h in pp.nu.items()} == CUSP_NU
    assert pp.nu[LatticePoint(1, 1)] == 2
    assert LatticePoint(7, 7) not in pp.nu


def test_quintic_polynomial_support_is_region_lattice():
    nd = analyze_support([(5, 0), (2, 2), (0, 5)])
    pp = build_patchwork(nd)
    assert len(pp.points) == 17
    assert set(pp.points) == set(nd.gamma_minus_lattice)
    assert sorted(map(tuple, convex_hull(pp.points).vertices)) == [(0, 0), (0, 5), (5, 0)]


def test_node_polynomial_includes_boundary_midpoint():
    pp = build_patchwork(analyze_support([(2, 0), (0, 2)]))
    # (1, 1) sits on the boundary segment, so six points, not five
    assert sorted(map(tuple, pp.points)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_emit_cusp_text_is_byte_exact():
    pp = build_patchwork(analyze_support([(2, 0), (0, 3)]))
    assert emit_polynomial_text(pp) == "1+tz+tw+t^3z^2+t^2zw+t^3w^2+t^6w^3"


def test_emit_node_text_is_byte_exact():
    pp = build_patchwork(analyze_support([(2, 0), (0, 2)]))
    assert emit_polynomial_text(pp) == "1+tz+tw+t^3z^2+t^2zw+t^3w^2"


def test_emit_single_point():
    pp = LiftedSupport(((LatticePoint(0, 0), Fraction(0)),))
    assert emit_polynomial_text(pp) == "1"


def test_emit_fractional_exponent():
    pp = LiftedSupport.from_mapping(
        {LatticePoint(0, 0): Fraction(0), LatticePoint(1, 0): Fraction(3, 2)})
    assert emit_polynomial_text(pp) == "1+t^3/2z"


def test_emitted_polynomial_reads_back_as_the_lifting():
    # the first 40 corpus germs of seeds 1-3, the ladder x^n + y^(n+1),
    # the A_k germs x^2 + y^(k+1), and a bent staircase that takes the
    # kinked lifting
    germs = []
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        germs += [staircase_support(rng) for _ in range(40)]
    germs += [[(n, 0), (0, n + 1)] for n in range(2, 21)]
    germs += [[(2, 0), (0, k + 1)] for k in range(1, 33)]
    kinked = [(0, 8), (5, 2), (8, 0)]
    germs.append(kinked)
    for pts in germs:
        nd = analyze_support(pts)
        sdd = subdivide_diagram(nd)
        assert sdd.used_fallback or pts is not kinked
        lifting = build_patchwork(nd, sdd)
        assert lifting is sdd.lifting
        assert parse_puiseux_poly(emit_polynomial_text(lifting)) == sdd.lifting, pts


def test_report_golden_values():
    for text, want in [
        ("x^5+x^2*y^2+y^5", (11, 6, 5, 6, 2)),
        ("x^2+y^3", (2, 1, 1, 1, 1)),
        ("x^2+y^2", (1, 1, 0, 1, 2)),
    ]:
        rep = analyze(parse_germ(text))
        assert (rep.mu, rep.v, rep.r, rep.delta, rep.branches) == want
        assert rep.identity_holds and rep.corollary_holds and rep.duality_ok
        assert rep.verdicts_hold
        for field in ("identity_holds", "corollary_holds", "duality_ok"):
            assert not dataclasses.replace(rep, **{field: False}).verdicts_hold


def test_simple_singularity_table():
    # A_k = x^2 + y^(k+1) and its transpose have mu = k, two branches when
    # k is odd and one when it is even, and delta = (mu + branches - 1)/2;
    # E_6 = x^3 + y^4 and E_8 = x^3 + y^5 have mu 6 and 8 and one branch
    table = []
    for k in range(1, 61):
        branches = 2 if k % 2 else 1
        want = (k, branches, (k + branches - 1) // 2)
        table += [(f"x^2+y^{k + 1}", want), (f"x^{k + 1}+y^2", want)]
    table += [("x^3+y^4", (6, 1, 3)), ("x^3+y^5", (8, 1, 4))]
    for text, want in table:
        rep = analyze(parse_germ(text))
        assert (rep.mu, rep.branches, rep.delta) == want, text
        assert rep.verdicts_hold, text


def test_a_count_mismatch_is_reported_in_the_notes(monkeypatch):
    # each verdict and its note follow the comparison of its two sides
    rep = analyze(parse_germ("x^5+x^2*y^2+y^5"))
    assert not [n for n in rep.notes if "COUNT MISMATCH" in n]
    real = patchwork.count_four_valent
    monkeypatch.setattr(patchwork, "count_four_valent", lambda sc: real(sc) + 1)
    rep = analyze(parse_germ("x^5+x^2*y^2+y^5"))
    assert not rep.identity_holds and not rep.corollary_holds and rep.duality_ok
    assert [n for n in rep.notes if "COUNT MISMATCH" in n] == [
        "COUNT MISMATCH: mu = 11 but v + r = 12", "COUNT MISMATCH: delta = 6 but v = 7"]


def test_report_preconditions_propagate():
    with pytest.raises(NotSingularAtOriginError):
        analyze([(1, 0), (0, 2)])
    with pytest.raises(NotConvenientError):
        analyze([(2, 1), (0, 2)])


def test_build_patchwork_rejects_the_subdivision_of_another_diagram():
    quintic, cusp = analyze_support([(5, 0), (2, 2), (0, 5)]), analyze_support([(2, 0), (0, 3)])
    with pytest.raises(SchemaError, match="lifting points differ"):
        build_patchwork(quintic, subdivide_diagram(cusp))


def test_report_json_schema_and_determinism():
    rep = analyze(parse_germ("x^2+y^3"))
    obj = rep.to_json_obj()
    assert list(obj) == ["mu", "v", "r", "delta", "branches", "identity_holds",
                         "corollary_holds", "duality_ok", "gamma_lattice",
                         "lifting", "notes"]
    assert obj["gamma_lattice"] == [[0, 3], [2, 0]]
    assert {(e["i"], e["j"]): e["nu"] for e in obj["lifting"]} == {
        p: f"{h}/1" for p, h in CUSP_NU.items()}
    assert all(isinstance(s, str) for s in obj["notes"])
    again = analyze(parse_germ("x^2+y^3"))
    assert rep.to_json() == again.to_json()
    parsed = json.loads(rep.to_json())
    assert parsed["mu"] == 2


def test_report_ignores_support_order():
    a = analyze([(5, 0), (2, 2), (0, 5)])
    b = analyze([(0, 5), (5, 0), (2, 2)])
    assert a.to_json() == b.to_json()


def test_json_wide_integers_become_strings():
    rep = analyze(parse_germ("x^2+y^2"))
    wide = dataclasses.replace(rep, mu=2 ** 60)
    obj = wide.to_json_obj()
    assert obj["mu"] == str(2 ** 60)
    assert json.loads(json.dumps(obj))["mu"] == str(2 ** 60)


def random_staircase(rng):
    p = rng.randint(2, 10)
    q = rng.randint(2, 10)
    pts = {(p, 0), (0, q)}
    for _ in range(rng.randint(0, 4)):
        pts.add((rng.randint(1, max(1, p - 1)), rng.randint(1, max(1, q - 1))))
    return sorted(pts)


def test_verdicts_hold_on_random_corpus():
    rng = random.Random(1234)
    for _ in range(30):
        pts = random_staircase(rng)
        rep = analyze(pts)
        assert rep.identity_holds, rep.notes
        assert rep.corollary_holds, rep.notes
        assert rep.duality_ok, rep.notes
        nd = analyze_support(pts)
        # the bounded-region count doubles as an interior-point counter
        assert rep.r == nd.interior_lattice_count
        # the report and the polynomial read the subdivision's own lifting
        # and domain
        sdd = subdivide_diagram(nd)
        assert rep.lifting == sdd.lifting.entries
        pp = build_patchwork(nd)
        assert convex_hull(pp.points) == sdd.subdivision.domain


# the two metamorphic relations run on the first germs of the default
# corpus, seeds 1-3, as many as fit in about two seconds
METAMORPHIC_GERMS = 18


def corpus_germs():
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        for _ in range(METAMORPHIC_GERMS):
            yield seed, staircase_support(rng)


def test_swapping_x_and_y_mirrors_the_analysis(monkeypatch):
    # the five numbers stay, and the special subdivision's cells, inside
    # ones included, are mirrored across the diagonal
    made = []
    real = patchwork.subdivide_diagram

    def spy(nd):
        made.append(real(nd))
        return made[-1]

    monkeypatch.setattr(patchwork, "subdivide_diagram", spy)

    def numbers(rep):
        return rep.mu, rep.v, rep.r, rep.delta, rep.branches

    def cells(sdd, ids, mirror=False):
        return sorted(tuple(sorted((j, i) if mirror else (i, j) for i, j in
                                   sdd.subdivision.cells[c].polygon.vertices)) for c in ids)

    for seed, points in corpus_germs():
        made.clear()
        rep, swapped = analyze(points), analyze([(j, i) for i, j in points])
        assert numbers(rep) == numbers(swapped), (seed, points)
        a, b = made
        assert cells(a, range(len(a.subdivision.cells)), True) == \
            cells(b, range(len(b.subdivision.cells))), (seed, points)
        assert cells(a, a.inside_cells, True) == cells(b, b.inside_cells), (seed, points)


def test_a_monomial_above_the_boundary_changes_only_the_notes():
    # x^p*y^q, with p and q the intercepts, lies above the boundary
    for seed, points in corpus_germs():
        nd = analyze_support(points)
        want = analyze(points).to_json_obj()
        got = analyze(points + (LatticePoint(nd.p, nd.q),)).to_json_obj()
        assert want.pop("notes") != got.pop("notes")
        assert want == got, (seed, points)
