"""Fast self-test of the benchmark, a few seconds in all.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and checks that
each run is correct and emits exactly the metrics BENCHMARK.json names.
Then it tampers with one expected value per workload and checks that
the run reports the item as failed.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from workloads import RUNNERS  # noqa: E402

# the expected value each workload's tampered item carries
TAMPER = {"corpus": "mu", "ladder": "mu", "liftings": "area2", "outputs": "mu"}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    require({w["name"] for w in spec["workloads"]} == set(RUNNERS) == set(run.WORKLOADS),
            "BENCHMARK.json, run.py and workloads.py name different workloads")
    for workload in RUNNERS:
        for trace in (False, True):
            result = run.benchmark(workload, 1, 0.05, trace, tiny=True)
            require(result["correct"] and result["failed"] == 0,
                    f"{workload} trace={trace} failed at this commit")
            require(set(result["metrics"]) == names[trace],
                    f"{workload} trace={trace} emits {sorted(result['metrics'])}")

        items = copy.deepcopy(RUNNERS[workload][0](1, True))
        items[0].data[TAMPER[workload]] += 1
        for trace in (False, True):
            result = run.benchmark(workload, 1, 0.05, trace, tiny=True, items=items)
            require(not result["correct"] and result["failed"] > 0,
                    f"{workload} trace={trace} missed a tampered "
                    f"{TAMPER[workload]}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
