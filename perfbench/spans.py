"""In-memory spans around the benchmark's own calls into tropnewton.

A span records its name, start, end, the span it was opened inside and
the item it belongs to.  Spans stay in memory while the workload runs
and are written out once, when the run ends, so writing them never
lands inside a timed region.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    item: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, item: str = ""):
        """Time the body; the caller may rename the yielded span before it closes."""
        if not item and self._open:
            item = self.spans[self._open[-1]].item
        parent = self._open[-1] if self._open else -1
        rec = Span(name, 0.0, 0.0, parent, item)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def self_times(self, start: int = 0, stop: int | None = None,
                   key=lambda s: s.name) -> dict:
        """Self time of spans[start:stop], summed by ``key(span)``."""
        spans = self.spans[start:stop]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= start:
                child_time[s.parent - start] += s.end - s.start
        out: dict = {}
        for s, kids in zip(spans, child_time):
            k = key(s)
            out[k] = out.get(k, 0.0) + (s.end - s.start) - kids
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    """Stand-in for untraced runs: every span is a shared no-op."""

    _noop = contextlib.nullcontext()

    def span(self, name: str, item: str = ""):
        return self._noop
