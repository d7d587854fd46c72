"""Count the bytecode instructions that catalog-sweep's requests execute.

    python3.12 tools/count_instructions.py [TAG ...]

It runs the default ``sweep`` of each identity tag given, in the order
given (all 25 in ``IdentityId`` order when none is), in-process through
``cli.main(["sweep", "--identity", TAG])`` with the output discarded: one
pass of the benchmark's catalog-sweep requests. Meanwhile INSTRUCTION
events (PEP 669, ``sys.monitoring``) are set locally on every code object of
the ``horadam_sums`` modules and of ``fractions``: each module's functions,
its classes' methods, properties, class and static methods, the functions
behind ``functools.lru_cache`` (their ``__wrapped__``), the functions
held by module-level containers and by instances of the modules' own
classes (the identity registry's lambdas), and every code object nested in
those (walked through ``co_consts``). Only code compiled
from a module's own file counts, so the methods ``dataclasses`` generates
from strings do not. It prints, as JSON, the total and the counts per
module and per function (``module.qualname``; code objects that share a
qualname, such as two lambdas of one function, share a count).

Local events are several times faster than global ones. A run with global
events, counting only those modules' files, printed the same JSON over all
25 sweeps, so the local set misses no code that runs.

A count is a function of the code and the input, not of the host. Its limit:
an operation on a big int counts as one instruction, whatever its size. So
the counts gauge the overhead-bound catalog-sweep, not deep-oracle or
large-index, whose cost is big-int arithmetic.

Needs Python 3.12 or later; below that it exits 2 with a message. Stdlib only.
"""

from __future__ import annotations

import contextlib
import fractions
import importlib
import io
import json
import pkgutil
import sys
from pathlib import Path
from types import CodeType, FunctionType

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import horadam_sums  # noqa: E402
from horadam_sums import cli  # noqa: E402
from horadam_sums.identities import IdentityId  # noqa: E402


def _modules() -> list:
    """``fractions`` and every module of the package, imported."""
    names = [f"horadam_sums.{info.name}" for info in pkgutil.iter_modules(horadam_sums.__path__)]
    return [fractions, horadam_sums, *(importlib.import_module(name) for name in names)]


def _codes(obj, seen: set, names: set):
    """Every code object reachable from ``obj``: a function's (and, behind a
    decorator, its ``__wrapped__`` one's), a class's members', the items'
    of a container, the attributes' of an instance of a class of a module
    named in ``names`` (the registry's shapes hold lambdas), and the code
    nested in each."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        for item in [*obj.keys(), *obj.values()]:
            yield from _codes(item, seen, names)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _codes(item, seen, names)
    elif isinstance(obj, CodeType):
        yield obj
        for const in obj.co_consts:
            yield from _codes(const, seen, names)
    elif isinstance(obj, (staticmethod, classmethod)):
        yield from _codes(obj.__func__, seen, names)
    elif isinstance(obj, property):
        for part in (obj.fget, obj.fset, obj.fdel):
            yield from _codes(part, seen, names)
    elif isinstance(obj, type):
        for member in vars(obj).values():
            yield from _codes(member, seen, names)
    else:
        if isinstance(obj, FunctionType):
            yield from _codes(obj.__code__, seen, names)
        wrapped = getattr(obj, "__wrapped__", None)
        if callable(wrapped):
            yield from _codes(wrapped, seen, names)
        if type(obj).__module__ in names and hasattr(obj, "__dict__"):
            yield from _codes(vars(obj), seen, names)


def count(tags: list) -> dict:
    """Instruction counts of the sweeps of ``tags`` (see the module docstring)."""
    modules = _modules()
    files = {module.__file__: module.__name__ for module in modules}
    names, seen = set(files.values()), set()
    codes = {code for module in modules for member in list(vars(module).values())
             for code in _codes(member, seen, names) if code.co_filename in files}
    # keyed on id(code): a code object's own hash is recomputed per call
    counts = dict.fromkeys(map(id, codes), 0)
    mon = sys.monitoring
    tool = mon.PROFILER_ID
    mon.use_tool_id(tool, "count_instructions")

    def on_instruction(code, offset):
        counts[id(code)] += 1

    mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
    for code in codes:
        mon.set_local_events(tool, code, mon.events.INSTRUCTION)
    try:
        for tag in tags:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(["sweep", "--identity", tag])
    finally:
        for code in codes:
            mon.set_local_events(tool, code, mon.events.NO_EVENTS)
        mon.register_callback(tool, mon.events.INSTRUCTION, None)
        mon.free_tool_id(tool)
    per_module = dict.fromkeys(sorted(files.values()), 0)
    per_function: dict = {}
    for code in codes:
        executed, module = counts[id(code)], files[code.co_filename]
        per_module[module] += executed
        key = f"{module}.{code.co_qualname}"
        per_function[key] = per_function.get(key, 0) + executed
    return {"python": sys.version.split()[0], "tags": tags,
            "total": sum(per_module.values()), "modules": per_module,
            "functions": {key: per_function[key] for key in sorted(per_function)
                          if per_function[key]}}


def main(argv: list) -> int:
    if sys.version_info < (3, 12):
        print("count_instructions needs Python 3.12 or later (sys.monitoring)", file=sys.stderr)
        return 2
    tags = argv or [ident.value for ident in IdentityId]
    print(json.dumps(count(tags), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
