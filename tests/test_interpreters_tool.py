"""The interpreter check's own reporting: nothing it cannot run is skipped."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "interpreters.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("interpreters", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_interpreter_that_does_not_start_fails_the_check(tool, tmp_path, capsys):
    missing = str(tmp_path / "python-missing")
    assert tool.main([missing]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{missing}: cannot run: ") and out.count("\n") == 1


def test_tier1_borrows_the_running_pytest(tool):
    site = Path(tool._pytest_site())
    assert (site / "pytest" / "__init__.py").exists()
