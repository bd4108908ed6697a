"""Reproducible random inputs and the batch certification runner.

The generator is pinned to a concrete 64-bit split-mix sequence so a
seed printed in a failure report replays the exact same case on any
machine, independent of the host language's random module:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z xor z >> 30) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z xor z >> 27) * 0x94D049BB133111EB mod 2^64
    output = z xor z >> 31

Bounded draws use rejection sampling, so every value below the bound
is exactly equally likely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateHullError, SchemaError, require
from .lattice import LatticePoint, convex_hull
from .parsing import LiftedSupport
from .patchwork import AnalysisReport, analyze

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if not isinstance(n, int) or n < 1:
            raise SchemaError("bound must be positive" if isinstance(n, int)
                              else "bound must be an int")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next64()
            if z < limit:
                return z % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform on the inclusive range."""
        return lo + self.below(hi - lo + 1)

    def sample(self, lo: int, hi: int, k: int) -> list[int]:
        """k distinct values from the inclusive range, ascending."""
        require(all(isinstance(v, int) for v in (lo, hi, k)), "sample arguments must be ints")
        pool = list(range(lo, hi + 1))
        require(0 <= k <= len(pool), "sample size must be between 0 and the range's size")
        for idx in range(k):
            swap = idx + self.below(len(pool) - idx)
            pool[idx], pool[swap] = pool[swap], pool[idx]
        return sorted(pool[:k])


def staircase_support(rng: SplitMix64, pmax: int = 12,
                      qmax: int = 12) -> tuple[LatticePoint, ...]:
    """Random convenient support: axis points plus a strictly monotone
    chain of inner points, none at (0,0), (1,0), (0,1)."""
    require(pmax >= 2 and qmax >= 2, "intercept bounds must be at least 2")
    p = rng.between(2, pmax)
    q = rng.between(2, qmax)
    kmax = min(p - 1, q - 1)
    k = rng.below(kmax + 1)
    cols = rng.sample(1, p - 1, k)
    rows = rng.sample(1, q - 1, k)
    inner = [LatticePoint(i, j) for i, j in zip(cols, reversed(rows))]
    return tuple(sorted({LatticePoint(0, q), *inner, LatticePoint(p, 0)}))


def random_lifted_support(rng: SplitMix64, span: int = 6,
                          max_points: int = 10) -> LiftedSupport:
    """Random heights over a random planar support with a real hull;
    nothing ties the heights to any staircase structure.  The support
    holds 4 to ``max_points`` distinct points of the ``span`` x ``span``
    grid, so ``max_points`` past ``span * span`` is refused."""
    require(4 <= max_points <= span * span, "max_points must be between 4 and span * span")
    while True:
        n = rng.between(4, max_points)
        pts = set()
        while len(pts) < n:
            pts.add(LatticePoint(rng.below(span), rng.below(span)))
        try:
            convex_hull(pts)
        except DegenerateHullError:
            continue
        denom = rng.between(1, 4)
        return LiftedSupport.from_mapping(
            {p: Fraction(rng.below(8 * denom), denom) for p in sorted(pts)})


@dataclass(frozen=True)
class CorpusResult:
    count: int
    failures: tuple[tuple[tuple[LatticePoint, ...], AnalysisReport], ...]

    @property
    def passed(self) -> int:
        return self.count - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_corpus(seed: int, count: int, pmax: int = 12,
               qmax: int = 12) -> CorpusResult:
    """Certify ``count`` seeded staircase supports end to end."""
    require(isinstance(count, int), "corpus count must be an int")
    require(count >= 1, "corpus needs at least one case")
    rng = SplitMix64(seed)
    failures = []
    for _ in range(count):
        support = staircase_support(rng, pmax, qmax)
        report = analyze(support)
        if not report.verdicts_hold:
            failures.append((support, report))
    return CorpusResult(count, tuple(failures))
