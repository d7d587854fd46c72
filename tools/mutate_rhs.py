"""Mutation check of the closed-form evaluators in ``horadam_sums.identities``.

    python3 tools/mutate_rhs.py

Each mutant changes one operator or constant in ``_lifted`` or in one of the
right-hand-side functions (``rhs_*`` and ``_rhs_*``): ``+`` and ``-`` swap,
``*`` and ``/`` swap (augmented assignments included), and each integer
constant is raised by 1. The mutated function is compiled into the live
module, so every caller (the registry, ``_rhs_F5``'s and ``_rhs_F6``'s
wrappers) runs it.

A mutant is killed when, for any tag whose evaluation calls the mutated
function, a point of the tier-1 deep-depth grid
(``tests/test_identities.py::_deep_instances``) or of the tag's default-grid
sweep shows a mismatch, an error report or an exception, or when it runs
longer than ``TIMEOUT_S``. A survivor listed in ``KNOWN_SURVIVORS`` is
equivalent to the original, for the reason given there. The script prints
the mutant and kill counts and the runtime, and exits 1 when any other
mutant survives (2 when the unmutated evaluators already fail).
"""

from __future__ import annotations

import ast
import dataclasses
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import horadam_sums.identities as ids  # noqa: E402
from horadam_sums.nestedcore import oracle_nested  # noqa: E402
from test_identities import _deep_instances  # noqa: E402

TIMEOUT_S = 60

# "function: mutated statement" -> why the mutant cannot change a value
KNOWN_SURVIVORS = {
    "rhs_F7: return _lifted(inst, counter, -q * u0 * wsd1 / w(r + s), base, 1, 0, "
    "lambda e, k: 1)": "F7's term ignores its index, so the index step is unread",
    "rhs_F7: return _lifted(inst, counter, -q * u0 * wsd1 / w(r + s), base, 0, 1, "
    "lambda e, k: 1)": "F7's term ignores its index, so the index multiplier is unread",
}

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}


def _targets(tree: ast.Module) -> list:
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)
            and (node.name == "_lifted" or node.name.startswith(("rhs_", "_rhs_")))]


def _sites(func: ast.FunctionDef) -> list:
    """Every mutable (node, field, replacement) in ``func``, in source order."""
    sites = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            sites.append((node, "op", _SWAPS[type(node.op)]()))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((node, "value", node.value + 1))
    return sites


def _statement(func: ast.FunctionDef, node: ast.AST) -> str:
    """The innermost statement of ``func`` that holds ``node``, unparsed."""
    best = None
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.stmt) and stmt is not func and any(
                child is node for child in ast.walk(stmt)):
            best = stmt
    return ast.unparse(best)


def _callers(names: set) -> dict:
    """For each target function, the tags whose evaluation calls it."""
    callers = {name: [] for name in names}
    for ident in ids.IdentityId:
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == ids.__file__:
                seen.add(frame.f_code.co_name)

        one = _deep_instances(ident)[0]
        sys.setprofile(profile)
        try:
            ids.evaluate_rhs(one)
        finally:
            sys.setprofile(None)
        for name in seen & names:
            callers[name].append(ident)
    return callers


def _install(func: ast.FunctionDef) -> None:
    """Compile ``func`` into the live module and point the registry at it."""
    code = compile(ast.Module(body=[func], type_ignores=[]), ids.__file__, "exec")
    exec(code, ids.__dict__)
    for ident, record in ids._REGISTRY.items():
        current = ids.__dict__[record.rhs.__name__]
        if current is not record.rhs:
            ids._REGISTRY[ident] = dataclasses.replace(record, rhs=current)


def _killed(tags: list) -> bool:
    for ident in tags:
        for one in _deep_instances(ident):
            if ids.evaluate_rhs(one) != oracle_nested(ids.lhs_spec(one)):
                return True
        for report in ids.iter_sweep(ident):
            if report.classification in (ids.CLASS_MISMATCH, ids.CLASS_ERROR):
                return True
    return False


def _on_alarm(signum, frame):
    raise TimeoutError


def main() -> int:
    start = time.perf_counter()
    tree = ast.parse(Path(ids.__file__).read_text())
    funcs = _targets(tree)
    originals = {func.name: ids.__dict__[func.name] for func in funcs}
    registry = dict(ids._REGISTRY)
    callers = _callers(set(originals))
    if _killed(list(ids.IdentityId)):
        print("the unmutated evaluators already fail the check")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    total = killed = 0
    survivors = []
    for func in funcs:
        for node, field, replacement in _sites(func):
            saved = getattr(node, field)
            setattr(node, field, replacement)
            key = f"{func.name}: {_statement(func, node)}"
            total += 1
            signal.alarm(TIMEOUT_S)
            try:
                _install(func)
                dead = _killed(callers[func.name])
            except Exception:  # a crash or a timeout kills the mutant
                dead = True
            finally:
                signal.alarm(0)
                setattr(node, field, saved)
                ids.__dict__.update(originals)
                ids._REGISTRY.update(registry)
            if dead:
                killed += 1
            else:
                survivors.append(key)
    elapsed = time.perf_counter() - start
    new = [key for key in survivors if key not in KNOWN_SURVIVORS]
    for key in survivors:
        print(f"{'NEW SURVIVOR' if key in new else 'equivalent'}: {key}"
              + ("" if key in new else f"  ({KNOWN_SURVIVORS[key]})"))
    for key in sorted(set(KNOWN_SURVIVORS) - set(survivors)):
        print(f"note: known survivor no longer generated or now killed: {key}")
    print(f"{total} mutants, {killed} killed, {len(survivors)} survived "
          f"({len(new)} new), {elapsed:.1f} s")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
