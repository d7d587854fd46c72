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


def test_install_reaches_every_shape_that_held_the_part(tool):
    # a closed-form part is called through the theorem shapes that hold it,
    # so a mutant installed only on the module would never run
    ids = tool.ids
    (group, owner, func), = [target for target in tool._targets()
                             if target[2].name == "_f5_ratio_base"]
    module = group.module
    original, registry = ids._f5_ratio_base, dict(ids._REGISTRY)
    point = lambda: ids.IdentityInstance(ids.IdentityId.F5, ids.FAMILIES["fibonacci"], 2, 3,
                                         r=2, d=1)
    holders = {ident for ident, record in registry.items()
               if record.shape.ratio_base is original}
    assert holders == {ids.IdentityId.F1A, ids.IdentityId.F1B, ids.IdentityId.F2A,
                       ids.IdentityId.F2B, ids.IdentityId.F5, ids.IdentityId.F5_G}
    # the one + the return statement holds, r + d, becomes r - d: the index step
    (node, field, replacement), = [site for site in tool._sites(func)
                                   if isinstance(site[2], ast.Sub)
                                   and tool._statement(func, site[0]).startswith("return")]
    saved = getattr(node, field)
    setattr(node, field, replacement)
    try:
        tool._install(module, owner, func)
        mutant = ids._f5_ratio_base
        assert mutant is not original and mutant(point(), ids.EvalCounter(), 2, 1)[2:] == (1, 2)
        assert {ident for ident, record in ids._REGISTRY.items()
                if record.shape.ratio_base is mutant} == holders
        assert all(ids._REGISTRY[ident] is registry[ident] for ident in registry.keys() - holders)
        assert ids.verify(point()).classification == ids.CLASS_MISMATCH
    finally:
        setattr(node, field, saved)
        ids._f5_ratio_base = original
        ids._REGISTRY.update(registry)
        tool._rebind("_f5_ratio_base", original)
    assert ids.verify(point()).classification == ids.CLASS_VERIFIED


def test_ring_judges_hold_the_ring(tool, monkeypatch):
    # QuadExt agrees with the matrix model and BinetView with the walk, and a
    # product that comes back conjugated shows in both
    assert tool._ring_check()[0] == tool._ring_model() and not tool._binet_broken()
    quad = tool.en.QuadExt
    real = quad.__mul__
    monkeypatch.setattr(quad, "__mul__", lambda self, other: real(self, other).conjugate())
    assert tool._ring_check()[0] != tool._ring_model() and tool._binet_broken()


def test_each_target_has_one_group(tool):
    # _targets yields a function once per row that holds it, so each must
    # come once; every row holds a target and names its judge, and a row
    # that lists names names only functions its module has
    targets = tool._targets()
    held = [(id(owner), func.name) for group, owner, func in targets]
    assert len(held) == len(set(held))
    for group in tool.GROUPS:
        names = [func.name if owner is group.module else f"{owner.__name__}.{func.name}"
                 for row, owner, func in targets if row is group]
        assert names and callable(group.judge)
        if not callable(group.targets):
            assert sorted(names) == sorted(group.targets)
