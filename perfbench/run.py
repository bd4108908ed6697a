"""tropnewton benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
One process, no threads, closed loop: each item starts when the
previous one has been checked.  A run makes whole passes over the
workload's fixed item list until the next pass would overrun
--seconds (always at least one).  With --trace 1, half the time goes
to untraced passes and half to traced ones, so the tracing overhead
is measured in the same run.  Every time reported is scaled to a fixed
host speed by clock.Clock.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from clock import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
ANCHOR_REPEATS = 9
ANCHOR_EXTRA_S = 2.0  # at most this long on extra anchor runs
GROWTH_STEP = 1.25
WORKLOADS = ("corpus", "ladder", "liftings", "outputs")

END_TO_END = {
    "items_per_s": "1/s",
    "item_s.p50": "s",
    "item_s.p95": "s",
    "largest_item_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> per-layer metric; each is self time per pass, median over passes
LAYER_SPANS = {
    "parsing.parse_germ": "parsing.parse_germ_s",
    "parsing.parse_puiseux_poly": "parsing.parse_puiseux_poly_s",
    "newton.analyze_support": "newton.analyze_support_s",
    "newton.invariants": "newton.invariants_s",
    "lattice.enumerate": "lattice.enumerate_s",
    "subdivision.separable": "subdivision.separable_s",
    "subdivision.fallback": "subdivision.fallback_s",
    "subdivision.lower_hull": "subdivision.lower_hull_s",
    "patchwork.build": "patchwork.build_s",
    "patchwork.analyze": "patchwork.analyze_s",
    "patchwork.emit": "patchwork.emit_s",
    "patchwork.to_json": "patchwork.to_json_s",
    "tropical.curve": "tropical.curve_s",
    "tropical.duality": "tropical.duality_s",
    "tropical.restrict": "tropical.restrict_s",
    "tropical.counts": "tropical.counts_s",
    "svg.render": "svg.render_s",
    "cli.analyze": "cli.analyze_s",
    "cli.certify": "cli.certify_s",
    "cli.emit_poly": "cli.emit_poly_s",
    "cli.render": "cli.render_s",
    "cli.lemma": "cli.lemma_s",
    "bench.item": "bench.check_s",
}

# per-pass sums that repeat exactly for a given seed
COUNTS = {
    "points": "lattice.points",
    "cells": "subdivision.cells",
    "edges": "tropical.edges",
    "fallbacks": "subdivision.fallbacks",
    "v": "tropical.v",
    "r": "tropical.r",
}

PER_LAYER = {
    **{m: "s" for m in LAYER_SPANS.values()},
    **{m: "count" for m in COUNTS.values()},
    "subdivision.fallback_frac": "ratio",
    "subdivision.growth_exp": "exponent",
    "tropical.growth_exp": "exponent",
    "corpus.generate_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage_frac": "ratio",
}


@dataclass
class Pass:
    calls: list  # per item (t0, t1) around its calls; None where it raised
    values: list
    failures: list  # (item ident, problems)
    counts: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    spans: tuple = (0, 0)  # range of this pass in the tracer


def run_pass(run_item, items, tr=None, refs=None, number=0) -> Pass:
    result = Pass([], [], [])
    first = len(tr.spans) if tr else 0
    result.start = perf_counter()
    for idx, item in enumerate(items):
        root = (tr.span("bench.item", f"{number}:{idx}") if tr
                else contextlib.nullcontext())
        try:
            with root:
                out = run_item(item, tr, refs[idx] if refs else None)
        except Exception as exc:  # any raise is a failed item; keep going
            traceback.print_exc(file=sys.stderr)
            result.calls.append(None)
            result.values.append(None)
            result.failures.append((item.ident, [f"raised {exc!r}"]))
            continue
        result.calls.append(out.call)
        result.values.append(out.value)
        if out.problems:
            result.failures.append((item.ident, out.problems))
        for k, n in out.counts.items():
            result.counts[k] = result.counts.get(k, 0) + n
    result.end = perf_counter()
    result.spans = (first, len(tr.spans) if tr else 0)
    return result


def run_passes(run_item, items, budget, tr=None, refs=None) -> list[Pass]:
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(run_item, items, tr, refs, len(passes)))
        last = passes[-1].end - passes[-1].start
        if perf_counter() - start + last > budget:
            return passes


def time_anchor(run_item, items, passes) -> Pass:
    """Extra runs of the anchor item, until it has ANCHOR_REPEATS timings
    or the extra runs would take more than ANCHOR_EXTRA_S."""
    anchor = next(k for k, it in enumerate(items) if it.anchor)
    took = max((c[1] - c[0] for p in passes if (c := p.calls[anchor])), default=0.0)
    extra = ANCHOR_REPEATS - len(passes)
    if took > 0:
        extra = min(extra, int(ANCHOR_EXTRA_S / took))
    return run_pass(run_item, [items[anchor]] * max(0, extra))


def measure_setup(workload: str, seed: int, tiny: bool, clock: Clock) -> float:
    """Median scaled wall time of a fresh interpreter that imports the
    package and generates the workload's inputs."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; workloads.RUNNERS[{workload!r}][0]({seed}, {tiny})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(clock.scaled(t0, perf_counter()))
    return statistics.median(times)


def end_to_end(items, passes, extra: Pass, clock, setup_s) -> dict:
    per_pass = [[c and clock.scaled(*c) for c in p.calls] for p in passes]
    samples = [s for secs in per_pass for s in secs if s is not None]
    anchor = next(k for k, it in enumerate(items) if it.anchor)
    largest = [s for s in [secs[anchor] for secs in per_pass]
               + [c and clock.scaled(*c) for c in extra.calls] if s is not None]
    return {
        "items_per_s": len(samples) / sum(samples),
        "item_s.p50": statistics.median(samples),
        "item_s.p95": statistics.quantiles(samples, n=20, method="inclusive")[18],
        "largest_item_s": statistics.median(largest),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def growth_exponent(items, tr, clock, p: Pass, layer: str) -> float:
    """Log-log slope of the layer's self time against lattice points,
    from the largest item to the largest one at least GROWTH_STEP smaller
    (on the ladder, the top two rungs)."""
    order = sorted(range(len(items)), key=lambda k: items[k].size)
    big = order[-1]
    small = next((k for k in reversed(order)
                  if items[k].size * GROWTH_STEP <= items[big].size), None)
    if small is None or p.calls[big] is None or p.calls[small] is None:
        return 0.0
    times = tr.self_times(*p.spans, key=lambda s: (s.item, s.name.split(".")[0]))
    number = tr.spans[p.spans[0]].item.split(":")[0]

    def scaled(k):  # the item's self time at the speed measured during its calls
        t0, t1 = p.calls[k]
        return times.get((f"{number}:{k}", layer), 0.0) * clock.scaled(t0, t1) / (t1 - t0)

    t_big, t_small = scaled(big), scaled(small)
    if t_big <= 0 or t_small <= 0:
        return 0.0
    return math.log(t_big / t_small) / math.log(items[big].size / items[small].size)


def per_layer(items, plain, traced, tr, clock, generate_s) -> dict:
    med = statistics.median
    layer_times, coverage = [], []
    for p in traced:
        raw = tr.self_times(*p.spans)
        scale = clock.scaled(p.start, p.end) / (p.end - p.start)
        layer_times.append({name: t * scale for name, t in raw.items()})
        coverage.append(sum(raw.values()) / (p.end - p.start))
    metrics = {metric: med(t.get(span, 0.0) for t in layer_times)
               for span, metric in LAYER_SPANS.items()}
    counts = traced[0].counts
    metrics.update({metric: counts.get(k, 0) for k, metric in COUNTS.items()})
    germs = counts.get("germs", 0)
    metrics["subdivision.fallback_frac"] = counts.get("fallbacks", 0) / germs if germs else 0.0
    for layer in ("subdivision", "tropical"):
        metrics[f"{layer}.growth_exp"] = med(
            growth_exponent(items, tr, clock, p, layer) for p in traced)
    wall = med(clock.scaled(p.start, p.end) for p in traced)
    metrics["corpus.generate_s"] = generate_s
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - med(clock.scaled(p.start, p.end) for p in plain)
    metrics["trace.coverage_frac"] = med(coverage)
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False, items=None) -> dict:
    """Run one workload; ``items`` replaces the generated inputs (self-test)."""
    # imported late: workloads imports tropnewton, which main() first
    # checks for and puts on sys.path
    from spans import Tracer
    from workloads import OUT_DIR, RUNNERS

    make_items, run_item = RUNNERS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    with Clock() as clock:
        generate = []
        for _ in range(3 if trace else 1):
            t0 = perf_counter()
            made = make_items(seed, tiny)
            generate.append((t0, perf_counter()))
        items = made if items is None else items
        if trace:
            plain = run_passes(run_item, items, seconds / 2)
            tr = Tracer()
            traced = run_passes(run_item, items, seconds / 2, tr, plain[0].values)
            generate_s = statistics.median(clock.scaled(*g) for g in generate)
            metrics = per_layer(items, plain, traced, tr, clock, generate_s)
            units = PER_LAYER
            runs = plain + traced
            note = ""
        else:
            setup_s = measure_setup(workload, seed, tiny, clock)
            passes = run_passes(run_item, items, seconds)
            extra = time_anchor(run_item, items, passes)
            metrics = end_to_end(items, passes, extra, clock, setup_s)
            units = END_TO_END
            runs = passes + [extra]
            note = (f", percentiles over "
                    f"{sum(c is not None for p in passes for c in p.calls)} samples")
    if trace:
        tr.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    attempted = sum(len(p.calls) for p in runs)
    failed = sum(len(p.failures) for p in runs)
    for p in runs:
        for ident, problems in p.failures:
            print(f"FAIL {workload} {ident}: {'; '.join(problems)}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={int(trace)}: {len(items)} items per pass, "
          f"{attempted} item runs{note}, failed_frac={failed / attempted:g}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tropnewton" / "__init__.py").is_file():
        print(f"error: no tropnewton package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
