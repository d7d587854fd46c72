"""Find the code objects of a set of modules, for tools that set
``sys.monitoring`` events on them locally (``count_instructions.py``,
``line_coverage.py``).

:func:`code_objects` walks each module's namespace: its functions, its
classes' methods, properties, class and static methods, the functions behind
``functools.lru_cache`` (their ``__wrapped__``), the functions held by
module-level containers and by instances of the modules' own classes (the
identity registry's lambdas), and every code object nested in those (walked
through ``co_consts``). Only code compiled from a module's own file counts,
so the methods ``dataclasses`` generates from strings do not. Module and
class bodies are not reached: they run once, at import. Stdlib only.
"""

from __future__ import annotations

import importlib
import pkgutil
from types import CodeType, FunctionType, ModuleType
from typing import Iterable, List, Set


def submodules(package: ModuleType) -> List[ModuleType]:
    """``package`` and every module in it, imported."""
    names = [f"{package.__name__}.{info.name}" for info in pkgutil.iter_modules(package.__path__)]
    return [package, *(importlib.import_module(name) for name in names)]


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


def code_objects(modules: Iterable[ModuleType]) -> Set[CodeType]:
    """The code objects of ``modules`` that the walk above reaches."""
    modules = list(modules)
    files = {module.__file__ for module in modules}
    names, seen = {module.__name__ for module in modules}, set()
    return {code for module in modules for member in list(vars(module).values())
            for code in _codes(member, seen, names) if code.co_filename in files}
