"""The line ledger, run on a fixture package and workload, never on tier-1 itself."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "line_coverage.py"

FIXTURE = '''\
def used(flag):
    if flag:
        return "run"
    return "never run"


class Box:
    size = 2

    def area(self):
        return self.size * self.size
'''
UNRUN = 'ledgerfix.mod.used: return "never run"'

# run by a fresh interpreter, so its monitoring tool id and imports are its
# own; the class body runs at import, the two functions in the workload
LEDGER = """
import importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import line_coverage

def workload():
    mod = importlib.import_module("ledgerfix.mod")
    mod.used(True)
    mod.Box().area()

sys.exit(line_coverage.ledger("ledgerfix", workload, json.loads(sys.argv[3])))
"""


def _ledger(root: Path, known: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", LEDGER, str(TOOLS), str(root), json.dumps(known)],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring needs Python 3.12+")
def test_unrun_lines_are_listed_or_fail(tmp_path):
    package = tmp_path / "ledgerfix"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)

    unlisted = _ledger(tmp_path, {})
    assert unlisted.returncode == 1, unlisted.stderr
    assert f"  4: NEW UNRUN: {UNRUN}\n" in unlisted.stdout
    assert "1 unrun (0 listed, 1 new), 0 stale entries" in unlisted.stdout

    listed = _ledger(tmp_path, {UNRUN: "the workload never passes a false flag"})
    assert listed.returncode == 0, listed.stderr
    assert f"  4: {UNRUN}  (the workload never passes a false flag)\n" in listed.stdout
    assert "1 unrun (1 listed, 0 new), 0 stale entries" in listed.stdout

    gone = "ledgerfix.mod.used: return None"
    stale = _ledger(tmp_path, {UNRUN: "never false", gone: "a line since deleted"})
    assert stale.returncode == 1, stale.stderr
    assert f"STALE: listed line ran or is gone: {gone}\n" in stale.stdout
    assert "1 unrun (1 listed, 0 new), 1 stale entries" in stale.stdout


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="the ledger runs on Python 3.12+")
def test_refused_below_3_12():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and not run.stdout
    assert "3.12" in run.stderr
