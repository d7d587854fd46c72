"""Regenerate the reference data the benchmark checks outputs against.

    python3 perfbench/make_refs.py sweep          # golden_sweep.json, ~15 s
    python3 perfbench/make_refs.py large-index    # large_index_refs.json, minutes

``golden_sweep.json`` holds, per identity tag, the class tallies and the
sha256 of the default-grid ``sweep`` jsonl output. ``large_index_refs.json``
holds the large-index request pool: coordinates plus the sha256 of the value
``oracle_nested`` gives for each entry (the closed form must agree, or the
entry is refused). Both were made at the commit that defined the benchmark;
regenerating them from a later commit would make the gates check that
commit against itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from horadam_sums import cli  # noqa: E402
from horadam_sums.identities import (IdentityId, IdentityInstance,  # noqa: E402
                                     InvalidInstanceError, evaluate_rhs, lhs_spec)
from horadam_sums.nestedcore import oracle_nested  # noqa: E402
from horadam_sums.sequences import HoradamSequence, horadam  # noqa: E402

import workloads  # noqa: E402

GENERATOR_SEED = 20220908


def make_golden_sweep() -> dict:
    golden = {}
    for ident in IdentityId:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "--identity", ident.value])
        if code != 0:
            raise SystemExit(f"sweep {ident.value} exited {code}: {err.getvalue()}")
        data = out.getvalue().encode()
        tally = Counter(json.loads(line)["class"] for line in data.splitlines())
        golden[ident.value] = {"total": sum(tally.values()),
                               **{name: tally[name] for name in workloads.CLASSES},
                               "bytes": len(data),
                               "sha256": hashlib.sha256(data).hexdigest()}
    return golden


# r per level keeps a_n (the oracle's range) at most 1000, so making the
# references costs minutes rather than hours
_LARGE_R = {1000: (1, 2, 4, 5), 2000: (2, 4, 5), 4000: (4, 5, 8),
            8000: (8, 10), 16000: (16, 20)}
_LARGE_DEPTHS = {"F6a": (2, 4), "F6b": (1, 3)}


def _large_entry(rng: random.Random, level: int, tag: str, p: int, q: int, used: set) -> dict:
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a, b) == (0, 0) or (a, b, p, q) in used:
            continue
        r = rng.choice(_LARGE_R[level])
        n = rng.choice(_LARGE_DEPTHS.get(tag, (2, 3)))
        c = rng.choice((0, 1))
        s = rng.randrange(0, 4)
        d = rng.choice((1, 2)) if tag == "F5" else rng.choice((0, 1)) if tag in ("F6a", "F6b") else 0
        a_n = level // (2 * r if tag == "F4" else r)
        params = horadam(a, b, p, q)
        try:
            inst = IdentityInstance(IdentityId(tag), params, n, a_n, c, r, s, d)
        except InvalidInstanceError:
            continue
        oracle = oracle_nested(lhs_spec(inst))
        closed = evaluate_rhs(inst)
        HoradamSequence._shared.pop(params, None)  # keep the generator's memory flat
        if oracle != closed:
            raise SystemExit(f"closed form disagrees with the oracle at {inst}")
        used.add((a, b, p, q))
        return {"level": level, "tag": tag, "p": p, "q": q, "a": a, "b": b, "n": n,
                "a_n": a_n, "c": c, "r": r, "s": s, "d": d,
                "sha256": workloads.value_digest(oracle)}


def make_large_index_refs() -> list:
    rng = random.Random(GENERATOR_SEED)
    used: set = set()
    entries = []
    for level, tag, (p, q) in workloads.large_slots():
        for _ in range(workloads.LARGE_VARIANTS):
            entries.append(_large_entry(rng, level, tag, p, q, used))
        print(f"level {level} {tag}: done", file=sys.stderr, flush=True)
    return entries


def main(argv: list[str]) -> int:
    if argv == ["sweep"]:
        data = make_golden_sweep()
        path = workloads.GOLDEN_SWEEP
    elif argv == ["large-index"]:
        data = make_large_index_refs()
        path = workloads.LARGE_INDEX_REFS
    else:
        print(__doc__, file=sys.stderr)
        return 2
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
