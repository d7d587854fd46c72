"""Spans recorded around calls into each module, for the traced run only.

The wrappers live here, in the benchmark's own files; ``src/`` is not
touched. A function imported by value (``from .sequences import term``) is
a separate name in every importing module, so each wrapper is installed at
every module attribute that holds the original. Methods the library calls
through instances are wrapped on their class.

Spans are kept in memory, one row per call: layer, parent span, request id,
start and end. Self time is computed from them after the run: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import horadam_sums
import workloads
from horadam_sums import cli, combinatorics, exactnum, identities, nestedcore, sequences

MODULES = (horadam_sums, exactnum, sequences, combinatorics, nestedcore, identities, cli)
QUAD_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__neg__", "__pow__")


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.parent = array("l")
        self.request_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.request_id = 0
        self.counts: Counter = Counter()
        self.cross_check_errors: list[str] = []

    # -- recording ----------------------------------------------------------

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def open(self, lid: int) -> int:
        sid = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.request_of.append(self.request_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(self.layer_id(name))
        try:
            yield
        finally:
            self.close(sid)

    def request(self, request_id: int):
        self.request_id = request_id
        return self.span("request")

    def next_request(self) -> None:
        self.request_id += 1

    # -- results ------------------------------------------------------------

    def per_layer(self) -> dict:
        """Calls and self time (ns) per layer name."""
        spans = len(self.start)
        child_ns = [0] * spans
        parent, start, end = self.parent, self.start, self.end
        for sid in range(spans):
            p = parent[sid]
            if p >= 0:
                child_ns[p] += end[sid] - start[sid]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for sid in range(spans):
            name = self.layers[self.layer[sid]]
            calls[name] += 1
            self_ns[name] += end[sid] - start[sid] - child_ns[sid]
        return {"calls": dict(calls), "self_ns": dict(self_ns), "spans": spans,
                "requests": len(set(self.request_of))}


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _spanned(tracer: Tracer, name: str, fn):
    lid = tracer.layer_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(lid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)
    return wrapper


def _memo_len(seq) -> int:
    memo = getattr(seq, "_memo", None)
    return -1 if memo is None else len(memo)


def _term(tracer: Tracer, fn):
    lid = tracer.layer_id("sequences.term")
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(seq, j):
        before = _memo_len(seq)
        sid = tracer.open(lid)
        try:
            return fn(seq, j)
        finally:
            tracer.close(sid)
            if before >= 0 and _memo_len(seq) == before:
                counts["term.hits"] += 1
    return wrapper


def _instance_init(tracer: Tracer, fn):
    lid = tracer.layer_id("identities.instance")
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(lid)
        try:
            return fn(*args, **kwargs)
        except identities.InvalidInstanceError:
            counts["instance.invalid"] += 1
            raise
        finally:
            tracer.close(sid)
    return wrapper


def _evaluate_rhs(tracer: Tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(inst, counter=None):
        sid = tracer.open(tracer.layer_id(f"identities.evaluate_rhs.{inst.identity.value}"))
        before = 0 if counter is None else counter.count
        try:
            return fn(inst, counter)
        finally:
            tracer.close(sid)
            if counter is not None:
                counts["closed_terms"] += counter.count - before
    return wrapper


def _verify(tracer: Tracer, fn):
    """Also cross-checks each report: the DP oracle adds once per summand
    value per level, so ``oracle_terms`` must be depth times the summand
    calls made inside this verify."""
    lid = tracer.layer_id("identities.verify")
    summand = tracer.layer_id("nestedcore.summand")
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(inst):
        first = len(tracer.start)
        sid = tracer.open(lid)
        try:
            report = fn(inst)
        finally:
            tracer.close(sid)
        calls = tracer.layer[first:].count(summand)
        counts["oracle_terms"] += report.oracle_terms
        counts["verify.summand_calls"] += calls
        if report.oracle_terms != inst.n * calls:
            tracer.cross_check_errors.append(
                f"{inst}: oracle_terms {report.oracle_terms} != n * summand calls {inst.n * calls}")
        return report
    return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every module attribute that holds ``original``."""
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of the six modules. A renamed target raises
    AttributeError here instead of silently dropping out of the trace."""
    spanned = (
        (sequences.first_kind_term, "sequences.companion"),
        (sequences.second_kind_term, "sequences.companion"),
        (combinatorics.binom, "combinatorics.binom"),
        (nestedcore.oracle_nested, "nestedcore.oracle_nested"),
        (identities.lhs_spec, "identities.lhs_spec"),
        (cli._emit_jsonl, "cli.emit"),
    )
    for original, layer in spanned:
        _replace_everywhere(original, _spanned(tracer, layer, original))
    for original, make in ((identities.evaluate_rhs, _evaluate_rhs), (identities.verify, _verify)):
        _replace_everywhere(original, make(tracer, original))
    # host-speed probes can run inside cli.emit (between rows); a span of
    # their own keeps their time out of its self time
    workloads.reference_work = _spanned(tracer, "bench.reference", workloads.reference_work)

    seq_cls = sequences.HoradamSequence
    wrapped_term = _term(tracer, seq_cls.term)
    seq_cls.term = wrapped_term
    seq_cls.__getitem__ = wrapped_term
    nestedcore.SumTerm.value = _spanned(tracer, "nestedcore.summand", nestedcore.SumTerm.value)
    inst_cls = identities.IdentityInstance
    inst_cls.__init__ = _instance_init(tracer, inst_cls.__init__)
    quad = exactnum.QuadExt
    for op in QUAD_OPERATORS:
        setattr(quad, op, _spanned(tracer, "exactnum.quad", getattr(quad, op)))
