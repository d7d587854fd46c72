"""Check the package on other Python interpreters.

    python3 tools/interpreters.py /usr/bin/python3.10 /usr/bin/python3.12 ...

For each interpreter path given, it runs the golden-sweep check: the default
``sweep`` of every identity tag, through the CLI, must exit 0 and give
output whose sha256 is the one ``perfbench/golden_sweep.json`` holds (the
file is only read). Where pytest and hypothesis import, it also runs the
tier-1 suite (``pytest`` in the repository root). The interpreter is given
the package's ``src`` on ``PYTHONPATH`` and, for tier-1, the site-packages
where the interpreter running this script finds pytest, so an interpreter
with no test packages of its own borrows those pure-Python ones.

It prints one line per interpreter. An interpreter that does not start, or
a pytest that does not import, is named on its line with the reason, never
skipped in silence. The exit status is 1 when any interpreter does not
start, any sweep's bytes differ or any tier-1 run fails, else 0. A pytest
that does not import leaves tier-1 unrun, which the line says, but does not
fail the check: the golden sweeps still ran there. Stdlib only.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SWEEP = ROOT / "perfbench" / "golden_sweep.json"
TIMEOUT_S = 1800

# run by the checked interpreter: {tag: [exit code, sha256 of stdout]}
GOLDEN_SCRIPT = """
import contextlib, hashlib, io, json
from horadam_sums import cli
from horadam_sums.identities import IdentityId
digests = {}
for ident in IdentityId:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["sweep", "--identity", ident.value])
    digests[ident.value] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(digests))
"""


def _pytest_site() -> Optional[str]:
    """The directory the running interpreter imports pytest from, if any."""
    spec = importlib.util.find_spec("pytest")
    if spec is None or not spec.submodule_search_locations:
        return None
    return str(Path(list(spec.submodule_search_locations)[0]).parent)


def _run(python: str, args: List[str], path: List[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1].strip() if lines else "no output"


def check(python: str, site: Optional[str]) -> Tuple[bool, str]:
    """(passed, the report line) for one interpreter."""
    src = [str(ROOT / "src")]
    try:
        version = _run(python, ["-c", "import platform; print(platform.python_version())"], src)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return False, f"{python}: cannot run: {exc}"
    if version.returncode:
        return False, f"{python}: cannot run: {_last_line(version.stderr)}"
    head = f"{version.stdout.strip()} {python}"
    golden = json.loads(GOLDEN_SWEEP.read_text())
    try:
        swept = _run(python, ["-c", GOLDEN_SCRIPT], src)
    except subprocess.TimeoutExpired:
        return False, f"{head}: golden sweeps did not finish in {TIMEOUT_S} s"
    if swept.returncode:
        return False, f"{head}: golden sweeps failed: {_last_line(swept.stderr)}"
    digests = json.loads(swept.stdout)
    wrong = [tag for tag, want in golden.items() if digests.get(tag) != [0, want["sha256"]]]
    ok = not wrong
    parts = [f"golden {len(golden) - len(wrong)}/{len(golden)} sweeps match"
             + (f" (differ: {', '.join(wrong)})" if wrong else "")]
    test_path = src + ([site] if site else [])
    probe = _run(python, ["-c", "import pytest, hypothesis"], test_path)
    if probe.returncode:
        parts.append(f"tier-1 not run: pytest does not import ({_last_line(probe.stderr)})")
    else:
        try:
            tier1 = _run(python, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                                  "--continue-on-collection-errors"], test_path)
        except subprocess.TimeoutExpired:
            ok = False
            parts.append(f"tier-1 did not finish in {TIMEOUT_S} s")
        else:
            ok = ok and tier1.returncode == 0
            parts.append(f"tier-1 {_last_line(tier1.stdout)}")
    return ok, f"{head}: {'; '.join(parts)}"


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    site = _pytest_site()
    passed = True
    for python in argv:
        ok, line = check(python, site)
        print(line, flush=True)
        passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
