"""A fixed task for timing the host's current speed; stdlib only.

A shared host can run the same work 1.5x slower for minutes at a time. The
benchmark times ``reference_work`` next to its requests and scales each
measured time by ``REFERENCE_S`` over the reference's own time, so the
reported values are times at one fixed host speed. The task never calls the
library, so no change to ``src/`` can move it; run.py uses it for set-up
times without importing the library.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# reference_work takes about this long on the quiet 2-core x86-64 host the
# benchmark was defined on (Python 3.11.7)
REFERENCE_S = 0.002


@dataclass(frozen=True)
class _Point:
    n: int
    a_n: int
    c: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")


def reference_work() -> int:
    """Work shaped like the library's hot paths: a recurrence walk over
    Fractions with a weighted prefix sum, validated small records and JSON
    rows."""
    memo = [Fraction(2), Fraction(1)]
    for _ in range(498):
        memo.append(memo[-1] + memo[-2])
    weight, power, total = Fraction(1, 3), Fraction(1), Fraction(0)
    for k in range(100):
        power *= weight
        total += memo[4 * k] * power
    seen = {}
    for k in range(200):
        seen[_Point(1 + k % 4, k, k % 3)] = k
    rows = [json.dumps({"n": k, "lhs": f"{k}/7", "class": "verified"}) for k in range(60)]
    return len(seen) + len(rows) + total.denominator % 7


def host_scale(samples: int = 3) -> float:
    """REFERENCE_S over the median of a few fresh reference timings."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)
