"""Smoke test of the benchmark: a tiny run of every workload, both modes.

    python3 -m pytest perfbench/test_smoke.py -q     (or: python3 perfbench/test_smoke.py)

Every metric named in BENCHMARK.json must appear with a finite value, and
every op of the tiny corpus must pass its check.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(workload: str, trace: bool) -> None:
    result = run.run(workload, seed=7, seconds=0.01, trace=trace, small=True)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names), set(names) ^ set(result["metrics"])
    for name in names:
        assert math.isfinite(result["metrics"][name]["value"]), name
    assert result["attempted"] >= 1 and result["failed"] == 0, result["failures"]


def test_every_metric_appears():
    assert run.prepare()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (False, True):
            check(workload, trace)


if __name__ == "__main__":
    test_every_metric_appears()
    print("ok")
