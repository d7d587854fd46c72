"""The three benchmark workloads: seeded inputs, the timed loop and the gates.

Every workload does a fixed amount of work per run, sized from ``--seconds``
by a nominal cost per unit (a sweep pass or a block of requests) measured
when the benchmark was defined. For one seed the requests, their order and
every deterministic count repeat exactly, whatever the speed of the code.

A unit repeats one fixed set of request keys; the seed shuffles the order
and draws the minor coordinates of each repetition. run.py takes each key's
median latency over its repetitions, so a burst of host load that slows one
repetition does not move the result, and the mix of tags, families, depths
and sizes, which sets the latency quantiles, is the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from horadam_sums import cli, identities, sequences
from horadam_sums.identities import FAMILIES, IdentityId, InvalidInstanceError
from horadam_sums.nestedcore import EvalCounter
from horadam_sums.sequences import horadam
from reference import REFERENCE_S, reference_work

HERE = Path(__file__).resolve().parent
GOLDEN_SWEEP = HERE / "golden_sweep.json"
LARGE_INDEX_REFS = HERE / "large_index_refs.json"

# Nominal cost of one unit at the commit that defined the benchmark (2-core
# x86-64 host, Python 3.11.7). They fix how much work --seconds buys and
# are never compared with a measurement.
CATALOG_PASS_S = 11.5
DEEP_BLOCK_S = 2.8
LARGE_BLOCK_S = 1.8

CLASSES = ("verified", "mismatch", "outside_domain", "skipped", "error")

PROBE_EVERY_S = 0.1    # between two reference timings
PROBE_WINDOW = 5       # reference timings in the rolling median


def value_digest(value: Fraction) -> str:
    """sha256 of an exact rational. Hex digits avoid the int-to-decimal
    length limit that values at indices near 2*10**4 exceed."""
    text = f"{value.numerator:x}/{value.denominator:x}"
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """What one worker's timed run produced, for run.py to turn into metrics.

    Every PROBE_EVERY_S the run times ``reference_work`` and scales each
    latency by REFERENCE_S over the median of the last few reference times,
    so the recorded values are latencies at a fixed host speed (see
    reference.py). Raw wall times are kept alongside.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.elapsed_s = 0.0
        self.scaled_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()
        self.reference_s: list[float] = []
        self.scale = 1.0
        self._last_probe = -PROBE_EVERY_S

    def probe(self) -> float:
        """Time the reference work if it is due; returns the seconds spent."""
        start = time.perf_counter()
        if start - self._last_probe < PROBE_EVERY_S:
            return 0.0
        reference_work()
        self._last_probe = time.perf_counter()
        self.reference_s.append(self._last_probe - start)
        self.scale = REFERENCE_S / statistics.median(self.reference_s[-PROBE_WINDOW:])
        return self._last_probe - start

    def record(self, key: str, seconds: float, scale: float | None = None) -> None:
        scaled = seconds * (self.scale if scale is None else scale)
        self.samples[key].append(scaled)
        self.elapsed_s += seconds
        self.scaled_s += scaled

    def as_dict(self) -> dict:
        return {"samples": self.samples, "elapsed_s": self.elapsed_s,
                "scaled_s": self.scaled_s, "attempted": self.attempted,
                "failed": self.failed, "reference_s": self.reference_s,
                "counts": dict(sorted(self.counts.items()))}


class NullTracer:
    """Stands in for the tracer in untraced runs; every hook is a no-op."""

    def request(self, request_id: int):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def next_request(self) -> None:
        pass


# ---------------------------------------------------------------------------
# catalog-sweep
# ---------------------------------------------------------------------------

class _RowSink:
    """Stand-in for stdout during one in-process sweep: keeps the text, the
    time each row was completed and the speed scale at that time. Reference
    timings made between rows are taken out of the stamps."""

    def __init__(self, tracer, out: Outcome):
        self.chunks: list[str] = []
        self.stamps: list[float] = []
        self.scales: list[float] = []
        self._tracer = tracer
        self._out = out
        self._paused = 0.0

    def write(self, text: str) -> int:
        now = time.perf_counter() - self._paused
        self.chunks.append(text)
        for _ in range(text.count("\n")):
            self.stamps.append(now)
            self.scales.append(self._out.scale)
            self._tracer.next_request()
        self._paused += self._out.probe()
        return len(text)

    def flush(self) -> None:
        pass


def _sweep(tag: str, tracer, out: Outcome) -> tuple:
    """Run ``horadam-sums sweep --identity TAG`` in-process, default grid, jsonl."""
    sink = _RowSink(tracer, out)
    err = io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with tracer.span("cli.main"):
                code = cli.main(["sweep", "--identity", tag])
        except Exception as exc:  # counted as failed points, never raised
            error = exc
    return sink, start, code, error


class CatalogSweep:
    """All 25 tags over their default grids through ``cli.main``, as jsonl.

    A pass is every tag once, in an order the seed permutes; a request is one
    grid point, keyed by tag and row. Each tag's output must match the class
    tallies and sha256 in ``golden_sweep.json``; a tag that differs counts
    all its points failed.
    """

    def __init__(self, seed: int, seconds: float, part: int):
        self.golden = json.loads(GOLDEN_SWEEP.read_text())
        rng = random.Random(seed)
        tags = sorted(self.golden)
        passes = max(1, round(seconds / CATALOG_PASS_S))
        self.parts = 1
        self.order = [rng.sample(tags, len(tags)) for _ in range(passes)]

    def warm_up(self) -> None:
        _sweep("H", NullTracer(), Outcome())

    def run(self, tracer) -> Outcome:
        out = Outcome()
        for tags in self.order:
            for tag in tags:
                out.probe()
                sink, start, code, error = _sweep(tag, tracer, out)
                previous = start
                for row, (stamp, scale) in enumerate(zip(sink.stamps, sink.scales)):
                    out.record(f"{tag}#{row}", stamp - previous, scale)
                    previous = stamp
                self._check(tag, sink, code, error, out)
        return out

    def _check(self, tag: str, sink: _RowSink, code, error, out: Outcome) -> None:
        golden = self.golden[tag]
        data = "".join(sink.chunks).encode()
        tally = Counter()
        for line in data.splitlines():
            try:
                tally[json.loads(line)["class"]] += 1
            except (ValueError, KeyError, TypeError):
                tally["unparsed"] += 1
        out.attempted += golden["total"]
        out.counts["bytes_out"] += len(data)
        for name, value in tally.items():
            out.counts[f"class.{name}"] += value
        same = (error is None and code == 0
                and hashlib.sha256(data).hexdigest() == golden["sha256"]
                and all(tally[name] == golden[name] for name in CLASSES)
                and sum(tally.values()) == golden["total"])
        if not same:
            out.failed += golden["total"]


# ---------------------------------------------------------------------------
# deep-oracle
# ---------------------------------------------------------------------------

DEEP_TAGS = ("H", "F1a", "F3", "F4", "F5", "F6a", "F6b")
DEEP_FAMILIES = tuple(FAMILIES)
# depth per slot; the F6 pair needs even and odd depths
DEEP_DEPTHS = {"F6a": (4, 6, 8, 4, 6, 8, 6), "F6b": (5, 7, 5, 7, 5, 7, 5)}
DEEP_DEFAULT_DEPTHS = (4, 5, 6, 7, 8, 5, 7)
DEEP_RANGE_LO, DEEP_RANGE_STEP = 500, 300   # five strata covering [500, 2000)
_FIXED_FAMILY_TAGS = ("H", "F1a")


def _deep_slots():
    """(key, tag, family, n, stratum, turn): 7 tags x 7 slots. Families
    rotate over the slots, so each parameterised tag meets all seven."""
    for ti, tag in enumerate(DEEP_TAGS):
        for k, n in enumerate(DEEP_DEPTHS.get(tag, DEEP_DEFAULT_DEPTHS)):
            family = None if tag in _FIXED_FAMILY_TAGS else FAMILIES[
                DEEP_FAMILIES[(k + ti) % len(DEEP_FAMILIES)]]
            yield f"{tag}#{k}", tag, family, n, (3 * k + ti) % 5, k


def _draw_deep(rng: random.Random, tag: str, family, n: int, span: int, turn: int):
    """One deep-oracle request. The seed draws c and s; d follows the design
    (``turn``) and r is 1, each changed only if validation refuses them."""
    ident = IdentityId(tag)
    if tag == "H":
        return (ident, None, n, span, 1, 1, 0, 0)
    d_values = {"F5": (1, 2), "F6a": (0, 1), "F6b": (0, 1)}.get(tag, (0,))
    d_order = d_values[turn % len(d_values):] + d_values[:turn % len(d_values)]
    for r in (1, 2):
        for d in d_order:
            for _ in range(8):
                c, s = rng.choice((-1, 0, 1)), rng.randrange(0, 4)
                coords = (ident, family, n, c + span - 1, c, r, s, d)
                try:
                    identities.IdentityInstance(*coords)
                except InvalidInstanceError:
                    continue
                return coords
    raise RuntimeError(f"no valid deep-oracle instance for {tag} over {family}")


class DeepOracle:
    """``verify`` on depth 4..8, range 500..2000 instances of seven tags.

    A block holds the 49 slots of ``_deep_slots``; the seed draws each
    repetition's range inside its slot's stratum, c, s, and the order within
    the block. Every report must be ``verified`` with
    ``oracle_terms == n * range``.
    """

    def __init__(self, seed: int, seconds: float, part: int):
        rng = random.Random(seed)
        self.parts = 1
        blocks = max(1, round(seconds / DEEP_BLOCK_S))
        slots = list(_deep_slots())
        # a slot's offsets inside its stratum are spread evenly over the
        # blocks, so the slot's median range hardly depends on the seed
        offsets = {}
        for key, *_ in slots:
            offsets[key] = [int((b + rng.random()) * DEEP_RANGE_STEP / blocks)
                            for b in range(blocks)]
            rng.shuffle(offsets[key])
        self.requests = []
        for b in range(blocks):
            block = []
            for key, tag, family, n, stratum, turn in slots:
                span = DEEP_RANGE_LO + DEEP_RANGE_STEP * stratum + offsets[key][b]
                block.append((key, _draw_deep(rng, tag, family, n, span, turn)))
            rng.shuffle(block)
            self.requests.extend(block)

    def warm_up(self) -> None:
        """Walk each family's memo across the index window the run reads,
        and run every tag once on a tiny instance."""
        window = {}
        first = {}
        for _, coords in self.requests:
            first.setdefault(coords[0], coords)
            inst = identities.IdentityInstance(*coords)
            summand = identities.lhs_spec(inst).term
            ends = (summand.index_mul * inst.c, summand.index_mul * inst.a_n)
            # the closed forms read a few terms past the summand's own range
            margin = 2 * (abs(inst.r) + abs(inst.d) + 3) * (inst.n + 1) + abs(inst.s)
            lo = min(ends) + summand.index_add - margin
            hi = max(ends) + summand.index_add + margin
            old_lo, old_hi = window.get(inst.params, (lo, hi))
            window[inst.params] = (min(old_lo, lo), max(old_hi, hi))
        for params, (lo, hi) in window.items():
            sequences.term(params, lo)
            sequences.term(params, hi)
        for ident, family, n, _, c, r, s, d in first.values():
            identities.verify(identities.IdentityInstance(ident, family, n, c + 5, c, r, s, d))

    def run(self, tracer) -> Outcome:
        out = Outcome()
        for i, (key, coords) in enumerate(self.requests):
            out.probe()
            report = None
            start = time.perf_counter()
            try:
                with tracer.request(i):
                    report = identities.verify(identities.IdentityInstance(*coords))
            except Exception:  # counted as a failed request, never raised
                pass
            out.record(key, time.perf_counter() - start)
            out.attempted += 1
            n, span = coords[2], coords[3] - coords[4] + 1
            if report is None:
                out.failed += 1
                continue
            out.counts[f"class.{report.classification}"] += 1
            out.counts["oracle_terms"] += report.oracle_terms
            out.counts["closed_terms"] += report.closed_terms
            if not (report.classification == identities.CLASS_VERIFIED and report.equal
                    and report.oracle_terms == n * span):
                out.failed += 1
        return out


# ---------------------------------------------------------------------------
# large-index
# ---------------------------------------------------------------------------

LARGE_TAGS = ("F3", "F4", "F5", "F6a", "F6b")
# largest summand index of a request: r * a_n (2 * r * a_n for F4)
LARGE_LEVELS = (1000, 2000, 4000, 8000, 16000)
# (p, q) per slot is LARGE_PQ[(level + tag) % 5], a Latin square, so every
# level and every tag meets each growth rate once per block
LARGE_PQ = ((1, -1), (2, -1), (3, 2), (1, 2), (2, 3))
LARGE_VARIANTS = 24        # reference entries per (level, tag) slot
LARGE_BLOCKS_PER_PART = 4  # the memo is never freed: ~0.5 GB per worker


def large_slots():
    for li, level in enumerate(LARGE_LEVELS):
        for ti, tag in enumerate(LARGE_TAGS):
            yield level, tag, LARGE_PQ[(li + ti) % len(LARGE_PQ)]


class LargeIndex:
    """Closed form only, ``IdentityInstance`` plus ``evaluate_rhs``, at
    summand indices 10**3..1.6*10**4 on sequences no earlier request touched.

    A block holds the 25 (level, tag) slots. The seed picks which reference
    entries of ``large_index_refs.json`` each slot's repetitions use, and
    their order. Every entry has its own (p, q, a, b), so each request walks
    a cold memo. Blocks are split over fresh workers (``part``) to bound the
    memory a worker accumulates. Each value is checked, untimed, against
    the sha256 of the value ``oracle_nested`` gave when the references were
    made.
    """

    def __init__(self, seed: int, seconds: float, part: int):
        refs = json.loads(LARGE_INDEX_REFS.read_text())
        rng = random.Random(seed)
        part_s = LARGE_BLOCK_S * LARGE_BLOCKS_PER_PART
        self.parts = min(LARGE_VARIANTS // LARGE_BLOCKS_PER_PART, max(1, round(seconds / part_s)))
        blocks = self.parts * LARGE_BLOCKS_PER_PART
        by_slot = defaultdict(list)
        for entry in refs:
            by_slot[(entry["level"], entry["tag"])].append(entry)
        picked = [rng.sample(by_slot[(level, tag)], blocks) for level, tag, _ in large_slots()]
        plan = []
        for block in range(blocks):
            chosen = [entries[block] for entries in picked]
            rng.shuffle(chosen)
            plan.append(chosen)
        mine = plan[part * LARGE_BLOCKS_PER_PART:(part + 1) * LARGE_BLOCKS_PER_PART]
        self.requests = [
            (f"{e['level']}/{e['tag']}",
             (IdentityId(e["tag"]), horadam(e["a"], e["b"], e["p"], e["q"]), e["n"], e["a_n"],
              e["c"], e["r"], e["s"], e["d"]), e["sha256"])
            for block in mine for e in block]

    def warm_up(self) -> None:
        """None: users pay the cold walk on every large index."""

    def run(self, tracer) -> Outcome:
        out = Outcome()
        for i, (key, coords, expected) in enumerate(self.requests):
            out.probe()
            value = None
            counter = EvalCounter()
            start = time.perf_counter()
            try:
                with tracer.request(i):
                    value = identities.evaluate_rhs(identities.IdentityInstance(*coords),
                                                    counter=counter)
            except Exception:  # counted as a failed request, never raised
                pass
            out.record(key, time.perf_counter() - start)
            out.attempted += 1
            out.counts["closed_terms"] += counter.count
            if value is None or value_digest(value) != expected:
                out.failed += 1
        return out


WORKLOADS = {
    "catalog-sweep": CatalogSweep,
    "deep-oracle": DeepOracle,
    "large-index": LargeIndex,
}
