"""Acceptance gate: the headline guarantees, one test each, all exact.

Each test prints a single summary line; run with -v for per-criterion
PASS/FAIL from the test runner itself.  Criteria 4, 5 and 6 share one
seeded corpus, regenerated identically from the seed in each test.
"""

import json
import math
import time
from fractions import Fraction

from tropnewton.cli import main
from tropnewton.corpus import SplitMix64, random_lifted_support, run_corpus, staircase_support
from tropnewton.lattice import convex_hull
from tropnewton.hull import lower_hull_subdivision
from tropnewton.newton import analyze_support, crossed_square_count, triangle_square_count
from tropnewton.patchwork import analyze
from tropnewton.subdivision import subdivide_diagram
from tropnewton.tropical import dual_tropical_curve, verify_duality

from oracles import pick_interior_boundary
from test_subdivision import brute_force_cells

SEED = 20260814
CORPUS_SIZE = 200


def corpus_supports():
    rng = SplitMix64(SEED)
    return [staircase_support(rng, 12, 12) for _ in range(CORPUS_SIZE)]


def run_cli_json(capsys, expr):
    code = main(["analyze", expr, "--json", "-"])
    # stdout carries exactly one JSON document when the target is "-"
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_quintic_golden(capsys):
    t0 = time.perf_counter()
    code, rep = run_cli_json(capsys, "x^5+x^2*y^2+y^5")
    dt = time.perf_counter() - t0
    assert code == 0
    assert (rep["mu"], rep["v"], rep["r"], rep["delta"], rep["branches"]) \
        == (11, 6, 5, 6, 2)
    assert rep["identity_holds"] is True
    assert rep["corollary_holds"] is True
    assert dt < 1.0
    print(f"criterion 1: quintic analyze mu=11 v=6 r=5 delta=6 branches=2 "
          f"in {dt:.3f}s: PASS")


def test_criterion_2_cusp_golden(capsys):
    t0 = time.perf_counter()
    code, rep = run_cli_json(capsys, "x^2+y^3")
    assert code == 0
    assert (rep["mu"], rep["v"], rep["r"], rep["delta"], rep["branches"]) \
        == (2, 1, 1, 1, 1)
    assert rep["identity_holds"] and rep["corollary_holds"] and rep["duality_ok"]
    code = main(["emit-poly", "x^2+y^3"])
    out = capsys.readouterr().out
    dt = time.perf_counter() - t0
    assert code == 0
    assert out == "1+tz+tw+t^3z^2+t^2zw+t^3w^2+t^6w^3\n"
    assert dt < 1.0
    print(f"criterion 2: cusp analyze + byte-exact emit-poly in {dt:.3f}s: PASS")


def test_criterion_3_square_count_sweep():
    t0 = time.perf_counter()
    pairs = 0
    for p in range(1, 41):
        for q in range(1, 41):
            if math.gcd(p, q) != 1:
                continue
            squares = triangle_square_count(p, q)
            crossed = crossed_square_count(p, q)
            assert 2 * squares == (p - 1) * (q - 1)
            assert crossed == p + q - 1
            assert p * q == 2 * squares + crossed
            pairs += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 3: square counts on {pairs} coprime pairs up to 40 "
          f"in {dt:.2f}s: PASS")


def test_criterion_4_identity_corpus():
    t0 = time.perf_counter()
    result = run_corpus(SEED, CORPUS_SIZE, pmax=12, qmax=12)
    dt = time.perf_counter() - t0
    assert result.ok, result.failures
    assert result.passed == CORPUS_SIZE
    assert dt < 30.0
    print(f"criterion 4: mu = v + r and delta = v on {CORPUS_SIZE} seeded "
          f"staircases in {dt:.2f}s: PASS")


def test_criterion_5_duality_suite():
    t0 = time.perf_counter()
    for support in corpus_supports():
        sdd = subdivide_diagram(analyze_support(support))
        rep = verify_duality(dual_tropical_curve(sdd.subdivision))
        assert rep.ok, (support, rep.violations)
    rng = SplitMix64(SEED + 1)
    for _ in range(100):
        sd = lower_hull_subdivision(random_lifted_support(rng))
        rep = verify_duality(dual_tropical_curve(sd))
        assert rep.ok, rep.violations
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"criterion 5: duality correspondences + balancing on "
          f"{CORPUS_SIZE} staircases + 100 liftings in {dt:.2f}s: PASS")


def test_criterion_6_region_count_equals_interior_points():
    for support in corpus_supports():
        rep = analyze(support)
        assert rep.r == analyze_support(support).interior_lattice_count
    print(f"criterion 6: bounded-region count = interior lattice count on "
          f"{CORPUS_SIZE} corpus cases: PASS")


def test_criterion_7_kernel_oracles():
    t0 = time.perf_counter()
    rng = SplitMix64(SEED + 2)
    cases = 0
    while cases < 150:
        lift = random_lifted_support(rng, span=5, max_points=12)
        heights = {tuple(p): h for p, h in lift.entries}
        sd = lower_hull_subdivision(lift)
        got = {cell.polygon.vertices for cell in sd.cells}
        assert got == brute_force_cells(heights)
        cases += 1

    polygons = 0
    while polygons < 500:
        if polygons % 2 == 0:
            n = rng.between(3, 10)
            pts = set()
            while len(pts) < n:
                pts.add((rng.below(9), rng.below(9)))
            try:
                region = convex_hull(pts)
            except Exception:
                continue
        else:
            region = analyze_support(staircase_support(rng, 9, 9)).gamma_minus
        interior, boundary = pick_interior_boundary(region)
        assert region.area2 == 2 * interior + boundary - 2
        polygons += 1
    dt = time.perf_counter() - t0
    assert dt < 20.0
    print(f"criterion 7: hull oracle on {cases} liftings + Pick identity on "
          f"{polygons} polygons in {dt:.2f}s: PASS")


def test_criterion_8_every_value_exact():
    # every quantity in the pipeline is an int or Fraction; nothing is
    # compared with a tolerance anywhere in this suite
    rep = analyze([(5, 0), (2, 2), (0, 5)])
    assert all(isinstance(x, int)
               for x in (rep.mu, rep.v, rep.r, rep.delta, rep.branches))
    assert all(isinstance(h, Fraction) for _, h in rep.lifting)
    print("criterion 8: all reported values exact integers/rationals, "
          "no tolerances: PASS")
