"""The instruction counter: a deterministic gauge, on the interpreters that have one."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_instructions.py"


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=600)


@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring needs Python 3.12+")
def test_two_runs_give_equal_counts():
    runs = [_run("H") for _ in range(2)]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(run.stdout) for run in runs)
    assert first == second
    modules = first["modules"]
    assert first["total"] == sum(modules.values())
    assert min(modules["fractions"], modules["horadam_sums.sequences"],
               modules["horadam_sums.identities"]) > 0
    assert modules["horadam_sums.sequences"] == sum(
        value for key, value in first["functions"].items()
        if key.startswith("horadam_sums.sequences."))


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="counts run on Python 3.12+")
def test_refused_below_3_12():
    run = _run("H")
    assert run.returncode == 2 and not run.stdout
    assert "3.12" in run.stderr
