"""The mutation tool's own parts: where it mutates and how it names a mutant."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate_rhs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("mutate_rhs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source", [
    "def f(x, c=1):\n    return x + 2\n",
    "def f(x: int = 3, *, c: int = 1) -> int:\n    return x + 2\n",
], ids=["default", "annotated"])
def test_sites_lie_in_the_body(tool, source):
    func = ast.parse(source).body[0]
    body = {id(node) for stmt in func.body for node in ast.walk(stmt)}
    sites = tool._sites(func)
    assert len(sites) == 2  # the + and the constant 2
    for node, field, replacement in sites:
        assert id(node) in body
        saved = getattr(node, field)
        setattr(node, field, replacement)
        assert isinstance(tool._statement(func, node), str)
        setattr(node, field, saved)


def test_products_lose_either_operand(tool):
    # x * y becomes x and y wherever it is held: a statement's field, an
    # element of a tuple, or an operand of another product
    func = ast.parse("def f(x, y, z):\n    a, b = x * y, z\n    return a * b * z\n").body[0]
    dropped = []
    for node, field, replacement in tool._sites(func):
        if not (isinstance(replacement, ast.expr) or field not in ("op", "ops", "value")):
            continue  # an operator swap or a raised constant
        saved = getattr(node, field)
        setattr(node, field, replacement)
        dropped.append(tool._statement(func, node))
        setattr(node, field, saved)
    assert dropped == ["a, b = (x, z)", "a, b = (y, z)", "return a * b", "return z",
                       "return a * z", "return b * z"]
