"""Hold every line of ``src/horadam_sums`` to tier-1: run, or named with a reason.

    PYTHONPATH=<site-packages with pytest> python3.12 tools/line_coverage.py

It takes no flags. It runs the tier-1 suite (``pytest -q
--continue-on-collection-errors`` on ``tests/``) in-process with LINE events
(PEP 669, ``sys.monitoring``) and prints, per module of the package, each
executable line that never ran. The package is imported with the events set
globally, so module and class bodies, which run once at import, are seen;
then they are set locally on the package's code objects, as
``code_objects.py`` finds them. Each line's event is disabled after its
first hit.

The executable lines are those that the package's source, compiled again,
holds bytecode for. A line that ran in a code object the walk misses is
reported as unrun, never lost. Each unrun line is keyed by module, the
qualname of the innermost code object holding it and its stripped text
(``horadam_sums.cli.<module>: entrypoint()``), not by its number, so moving
code does not stale an entry.

An unrun line listed in ``KNOWN_UNRUN`` is one tier-1's process cannot
reach, for the reason given there. The exit status is 0 when every unrun
line is listed and every entry names an unrun line; 1 when a line is unrun
and unlisted, an entry is stale (its line ran or is gone) or tier-1 fails;
2 below Python 3.12, or when pytest does not import. Stdlib and pytest only.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, List, Tuple

from code_objects import code_objects, submodules

ROOT = Path(__file__).resolve().parent.parent
TIER1_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
              str(ROOT / "tests")]

KNOWN_UNRUN = {
    "horadam_sums.cli.<module>: entrypoint()": "runs only when cli.py is the "
    "__main__ module (python -m horadam_sums.cli); tier-1 imports it",
    "horadam_sums.sequences.HoradamSequence.of: except KeyError:  # evicted by another "
    "thread since the get": "runs only when another thread evicts the sequence between "
    "the registry's get and move_to_end",
    "horadam_sums.sequences.HoradamSequence.of: pass": "the body of that except KeyError, "
    "run only in the same race",
}


def _executable(path: str) -> Dict[int, str]:
    """{line: "qualname: text"} for every line of ``path`` that its compiled
    code holds bytecode for, named by the innermost code object holding it."""
    source = Path(path).read_text(encoding="utf-8")
    text = source.splitlines()
    where: Dict[int, Tuple[int, str]] = {}
    stack = [(compile(source, path, "exec", dont_inherit=True), 0)]
    while stack:
        code, depth = stack.pop()
        for _, _, line in code.co_lines():
            if line and where.get(line, (-1, ""))[0] < depth:
                where[line] = (depth, code.co_qualname)
        stack.extend((const, depth + 1) for const in code.co_consts
                     if isinstance(const, CodeType))
    return {line: f"{qualname}: {text[line - 1].strip()}"
            for line, (_, qualname) in sorted(where.items())}


def unrun_lines(package: str, workload: Callable[[], object]
                ) -> Tuple[Dict[str, List[Tuple[int, str]]], int]:
    """Import ``package`` and run ``workload`` under LINE events (see the
    module docstring). Returns {module: [(line, key), ...]} of the lines
    that never ran, and the number of executable lines."""
    if package in sys.modules:
        raise RuntimeError(f"{package} was imported before its lines were watched")
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    hits = set()

    def on_line(code, line):
        hits.add((code.co_filename, line))
        return mon.DISABLE

    mon.use_tool_id(tool, "line_coverage")
    mon.register_callback(tool, mon.events.LINE, on_line)
    codes: set = set()
    try:
        mon.set_events(tool, mon.events.LINE)
        try:
            modules = submodules(importlib.import_module(package))
        finally:
            mon.set_events(tool, mon.events.NO_EVENTS)
        codes = code_objects(modules)
        for code in codes:
            mon.set_local_events(tool, code, mon.events.LINE)
        workload()
    finally:
        for code in codes:
            mon.set_local_events(tool, code, mon.events.NO_EVENTS)
        mon.register_callback(tool, mon.events.LINE, None)
        mon.free_tool_id(tool)
    unrun, executable = {}, 0
    for module in sorted(modules, key=lambda module: module.__name__):
        path = module.__file__
        lines = _executable(path)
        executable += len(lines)
        missed = [(line, f"{module.__name__}.{key}") for line, key in lines.items()
                  if (path, line) not in hits]
        if missed:
            unrun[module.__name__] = missed
    return unrun, executable


def ledger(package: str, workload: Callable[[], object], known: Dict[str, str]) -> int:
    """Print the unrun lines of ``package`` under ``workload``, each with its
    reason from ``known`` or as NEW, and the stale entries of ``known``;
    return 1 if there is any new line or stale entry, else 0."""
    start = time.perf_counter()
    unrun, executable = unrun_lines(package, workload)
    elapsed = time.perf_counter() - start
    keys = {key for missed in unrun.values() for _, key in missed}
    new = stale = 0
    for module, missed in unrun.items():
        print(module)
        for line, key in missed:
            listed = key in known
            new += not listed
            print(f"  {line}: " + (f"{key}  ({known[key]})" if listed else f"NEW UNRUN: {key}"))
    for key in sorted(set(known) - keys):
        stale += 1
        print(f"STALE: listed line ran or is gone: {key}")
    count = sum(map(len, unrun.values()))
    print(f"{executable} executable lines, {count} unrun ({count - new} listed, {new} new), "
          f"{stale} stale entries, {elapsed:.1f} s")
    return 1 if new or stale else 0


def main() -> int:
    if sys.version_info < (3, 12):
        print("line_coverage needs Python 3.12 or later (sys.monitoring)", file=sys.stderr)
        return 2
    try:
        import pytest
    except ImportError as exc:
        print(f"line_coverage runs tier-1 and needs pytest on PYTHONPATH ({exc})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    exits = []
    status = ledger("horadam_sums", lambda: exits.append(pytest.main(TIER1_ARGS)), KNOWN_UNRUN)
    if exits[0] != 0:
        print(f"tier-1 failed (pytest exit {exits[0]}), so the unrun lines above prove nothing")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
