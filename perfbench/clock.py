"""Wall time scaled to a fixed reference speed of the host.

On a shared 2-vCPU host the same code runs up to 1.7 times slower for
a second or so at a time.  A bare counting loop, timed in 100k-step
slices for 10 s, had half-second medians from 8.2 to 13.5 ms, and the
rung x^40+y^41 took from 1.7 to 2.9 s a few seconds apart.  Less than
1% of the time was lost in gaps over 0.5 ms, so the host slows the
vCPU down rather than stopping it.  Time taken before and after an
item does not predict its own time, because the speed changes within
one item.

So the clock samples the speed during the work itself: an interval
timer raises SIGALRM every SAMPLE_EVERY seconds, and the handler times
a tiny fixed kernel that shares no code with tropnewton.  An interval
from t0 to t1 loses the handler's own time and is scaled by
NOMINAL_KERNEL_S over the mean kernel time sampled inside it (or, for
a short interval, the MIN_SAMPLES samples nearest its middle).  A
scaled time reads as seconds on a host where the kernel takes
NOMINAL_KERNEL_S.  On 16 runs of x^30+y^31, this cut the spread
between quartiles from 26% to 5%.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

SAMPLE_EVERY = 0.01
MIN_SAMPLES = 10
NOMINAL_KERNEL_S = 0.00013


def kernel() -> None:
    """Small-denominator Fraction sums, the arithmetic tropnewton runs on."""
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k % 7, k % 5 + 1)


class Clock:
    """Use as a context manager around everything the run times."""

    def __init__(self):
        self.at: list[float] = []  # sample start times, ascending
        self.took: list[float] = []
        self._busy = False

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        self.took.append(perf_counter() - t0)
        self.at.append(t0)
        self._busy = False

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from perf_counter() reading t0 to t1, at the nominal speed."""
        lo, hi = bisect_left(self.at, t0), bisect_left(self.at, t1)
        net = (t1 - t0) - sum(self.took[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(self.at, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return net * NOMINAL_KERNEL_S / statistics.fmean(self.took[lo:hi])
