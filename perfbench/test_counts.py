"""The deterministic counts of a traced run repeat exactly for one seed.

    python3 -m pytest perfbench/test_counts.py

Each case runs the smallest run of a workload twice, traced, in fresh
interpreters, and compares every count: calls per layer, memo hits and
growth, oracle and closed-form terms, class tallies and bytes out.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent / "worker.py"


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--mode", "trace"],
        capture_output=True, text=True, timeout=300, check=True)
    ready, line = proc.stdout.strip().splitlines()[-2:]
    assert ready == "READY"
    result = json.loads(line)
    assert result["failed"] == 0 and not result["cross_check_errors"]
    # host-speed probes ("bench.reference") run on a timer, so they are not counted
    calls = {layer: n for layer, n in result["layers"]["calls"].items()
             if not layer.startswith("bench.")}
    return {"calls": calls, "trace": result["trace_counts"],
            "counts": result["counts"], "new_terms": result["new_terms"],
            "attempted": result["attempted"]}


@pytest.mark.parametrize("workload", ["catalog-sweep", "deep-oracle", "large-index"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, seed=7)
    assert first["attempted"] > 0 and first["calls"]
    assert traced_counts(workload, seed=7) == first
