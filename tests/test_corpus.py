"""Seeded generator portability and the batch runner."""

from fractions import Fraction

import pytest

from tropnewton.corpus import (
    SplitMix64,
    random_lifted_support,
    run_corpus,
    staircase_support,
)
from tropnewton.errors import SchemaError
from tropnewton.lattice import convex_hull
from tropnewton.newton import analyze_support

from oracles import deadline


def test_splitmix_reference_sequence():
    # published test vectors for the split-mix step, so replays match
    # implementations in any language
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert SplitMix64(1).next64() == 0x910A2DEC89025CC1


def test_bounded_draws_cover_the_range():
    rng = SplitMix64(7)
    seen = {rng.below(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
    assert all(2 <= rng.between(2, 4) <= 4 for _ in range(50))


def test_bounds_below_the_smallest_draw_are_schema_errors():
    with pytest.raises(SchemaError, match="^bound must be positive$"):
        SplitMix64(1).below(0)
    with pytest.raises(SchemaError, match="^intercept bounds must be at least 2$"):
        staircase_support(SplitMix64(1), 1, 5)


def test_below_refuses_a_bound_that_is_not_an_int():
    # 2.5 used to give the float 1.0, and Fraction(3) a Fraction
    for bound in (2.5, 3.0, Fraction(3), float("nan")):
        with pytest.raises(SchemaError, match="^bound must be an int$"):
            SplitMix64(1).below(bound)


def test_sample_refuses_a_size_outside_the_range():
    # k = -1 used to return all five values
    for k in (-1, 6):
        with pytest.raises(SchemaError, match="^sample size must be between 0 and the range's size$"):
            SplitMix64(1).sample(0, 4, k)
    with pytest.raises(SchemaError, match="^sample arguments must be ints$"):
        SplitMix64(1).sample(0, 4.0, 2)
    assert SplitMix64(1).sample(0, 4, 5) == [0, 1, 2, 3, 4]
    assert SplitMix64(1).sample(0, 4, 0) == []


def test_random_lifted_support_refuses_more_points_than_its_grid():
    # span 1 and 2 hold 1 and 4 points, so these used to draw forever
    for span, max_points in ((1, 10), (2, 10), (2, 5), (6, 3)):
        with deadline(1.0), pytest.raises(
                SchemaError, match=r"^max_points must be between 4 and span \* span$"):
            random_lifted_support(SplitMix64(1), span, max_points)
    with deadline(1.0):
        assert random_lifted_support(SplitMix64(1), 2, 4).points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_sample_is_distinct_and_sorted():
    rng = SplitMix64(3)
    for _ in range(20):
        got = rng.sample(1, 9, 4)
        assert got == sorted(got)
        assert len(set(got)) == 4
        assert all(1 <= x <= 9 for x in got)


def test_staircase_supports_are_valid_and_reproducible():
    rng = SplitMix64(42)
    supports = [staircase_support(rng, 12, 12) for _ in range(25)]
    again = SplitMix64(42)
    assert supports == [staircase_support(again, 12, 12) for _ in range(25)]
    for pts in supports:
        nd = analyze_support(pts)  # singular, convenient, or this raises
        assert 2 <= nd.p <= 12 and 2 <= nd.q <= 12
        assert not {(0, 0), (1, 0), (0, 1)} & {tuple(p) for p in pts}


def test_staircase_chain_is_strictly_monotone():
    rng = SplitMix64(11)
    for _ in range(40):
        pts = sorted(staircase_support(rng, 10, 10))
        for a, b in zip(pts, pts[1:]):
            assert a.i < b.i
            assert a.j > b.j


def test_random_lifted_supports():
    rng = SplitMix64(5)
    for _ in range(10):
        lift = random_lifted_support(rng)
        pts = [p for p, _ in lift.entries]
        assert len(convex_hull(pts).vertices) >= 3
        assert all(h >= 0 for _, h in lift.entries)
    assert (random_lifted_support(SplitMix64(5)).entries
            == random_lifted_support(SplitMix64(5)).entries)


def test_run_corpus_all_green():
    result = run_corpus(seed=1, count=30, pmax=12, qmax=12)
    assert result.ok
    assert result.passed == result.count == 30
    assert result.failures == ()


def test_run_corpus_rejects_empty():
    with pytest.raises(SchemaError, match="^corpus needs at least one case$"):
        run_corpus(seed=1, count=0)
    with pytest.raises(SchemaError, match="^corpus count must be an int$"):
        run_corpus(seed=1, count=2.5)  # used to escape range() as a TypeError
