"""Command-line surface: verify, sweep, table, bench and lemmas subcommands.

Machine-readable output keeps every rational as an exact "num/den" string
(never a float). Sweep rows stream one record at a time in a fixed field
order, so identical configurations produce byte-identical output; summaries
go to stderr to keep data streams clean. A jsonl row is, by definition,
``json.dumps(report_row(report))`` and a newline; :func:`_emit_jsonl` writes
it from its family's encoded text with those bytes unchanged.

Exit status contract: 0 when everything verified or was skipped by a
precondition, 1 when any in-domain mismatch (or evaluation error) was found,
2 for usage errors, including a point whose cost estimate exceeds a cap
(see :func:`check_cost`) and a grid, range or lemma run larger than its cap.
``sweep``, ``table`` and ``bench`` pass their points through one gate,
:func:`check_points`, before any work.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb
from typing import IO, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .combinatorics import nested_ones
from .identities import (CLASS_MISMATCH, CLASS_OUTSIDE, CLASS_SKIPPED, CLASS_VERIFIED,
                         COORD_DEFAULTS, FAMILIES, EvaluationReport, IdentityId, IdentityInstance,
                         InvalidInstanceError, SweepGrid, SweepSummary, default_grid,
                         evaluate_line, evaluate_point, evaluate_rhs, fixed_family,
                         grid_size, iter_sweep, lhs_spec, summarize, sweep_lines)
from .nestedcore import (DEFAULT_NAIVE_CAP, ONES, EvalCounter, NaiveCapExceededError,
                         NestedSumSpec, geometric_term, master_E, oracle_nested,
                         oracle_nested_naive)
from .sequences import (ROOT_SHIFT_IDENTITIES, HoradamParams, horadam, lemma3_residual,
                        lemma4_residual)

SWEEP_CSV_COLUMNS = ("identity", "a", "b", "p", "q", "n", "a_n", "c", "r", "s",
                     "d", "lhs", "rhs", "equal", "class")
BENCH_CSV_COLUMNS = ("instance_id", "method", "n", "range", "summand_evals", "wall_ns")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# Caps on one point's cost estimate (see check_cost). Every point the tests
# run and every request of the benchmark's deep-oracle workload (depth 8,
# range 2000, reach about 14,000) stays under a tenth of each.
MAX_ORACLE_TERMS = 200_000
MAX_REACH = 150_000

# Caps on how many points one command runs; check_cost bounds each point.
# A sweep, table or bench grid holds at most MAX_GRID_POINTS points (the
# largest default grid, F7's, holds 7,290), and a start..end range longer
# than that is refused before its tuple is built. lemmas costs 5-7 ms per
# --points (default 400) on a 2-core x86-64 host.
MAX_GRID_POINTS = 100_000
MAX_LEMMA_POINTS = 4_000

# Cap on one command's summed cost (see check_points): the oracle terms of
# all its points, and for bench also the tuples of each naive row. The 25
# default grids total 267,570 terms, the largest (F7's) 45,360. A far term
# of an integral family near MAX_REACH costs about 3 us on a 2-core x86-64
# host (F4 on integer_root at a_n = 29,990), so the largest such command
# accepted runs about 15 s; a far term of a rational family costs
# milliseconds. The cap is 25 times MAX_ORACLE_TERMS, so one point with
# its naive row (at most DEFAULT_NAIVE_CAP tuples) is refused only where
# check_cost refuses it.
MAX_COMMAND_TERMS = 5_000_000


def format_rational(value: Optional[Fraction]) -> str:
    """Serialize exactly as "num/den"; None becomes the empty string."""
    if value is None:
        return ""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def parse_int_set(text: str) -> Tuple[int, ...]:
    """Parse "start..end" (inclusive), a comma list "1,3,5", or a single int."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError("range end below start")
            if hi - lo >= MAX_GRID_POINTS:
                raise ValueError(f"{hi - lo + 1} values exceed the cap {MAX_GRID_POINTS}")
            return tuple(range(lo, hi + 1))
        if "," in text:
            return tuple(int(part) for part in text.split(","))
        return (int(text),)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer range: {text!r} ({exc})")


def _family_list(args: argparse.Namespace) -> Tuple[HoradamParams, ...]:
    """Families named by --family, or the one given by --p/--q/--a/--b;
    naming both is a usage error."""
    explicit = [args.p, args.q, args.a, args.b]
    if any(value is not None for value in explicit):
        if any(value is None for value in explicit):
            raise argparse.ArgumentTypeError("--p/--q/--a/--b must be given together")
        if args.family:
            raise argparse.ArgumentTypeError("--family and --p/--q/--a/--b exclude each other")
        try:
            return (horadam(args.a, args.b, args.p, args.q),)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    result = []
    for name in args.family or ():
        try:
            result.append(FAMILIES[name])
        except KeyError:
            raise argparse.ArgumentTypeError(
                f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    return tuple(result)


def _point_family(identity: IdentityId, args: argparse.Namespace) -> HoradamParams:
    """The one family a single point runs on: the first one the flags name,
    else the tag's fixed family. A tag with neither is a usage error."""
    family = (_family_list(args) or (fixed_family(identity),))[0]
    if family is None:
        raise argparse.ArgumentTypeError(f"{identity.value} needs --family or --p/--q/--a/--b")
    return family


def check_cost(n: int, a_n: int, c: int, r: int, s: int, d: int) -> None:
    """Refuse a point whose evaluation would run away, before any work.

    The oracle adds n * (a_n - c + 1) summand values. The reach,
    (2|r| + |d| + 3) * (n + max(|a_n|, |c|)) + |s|, bounds the largest
    sequence index and power exponent that the oracle, the closed forms and
    validation read: a closed form reads W[step*n + mul*a_n + s] with step
    at most 2|r| + |d| and mul at most 2|r| (3 for F1/F2).
    """
    terms = n * (a_n - c + 1)
    if terms > MAX_ORACLE_TERMS:
        raise argparse.ArgumentTypeError(
            f"n * (a_n - c + 1) = {terms} oracle terms exceeds the cap {MAX_ORACLE_TERMS}")
    reach = (2 * abs(r) + abs(d) + 3) * (n + max(abs(a_n), abs(c))) + abs(s)
    if reach > MAX_REACH:
        raise argparse.ArgumentTypeError(
            f"sequence indices and powers up to about {reach} exceed the cap {MAX_REACH}")


def check_points(count: int, lines: Iterable[Tuple[int, Sequence[int], int, int, int, int]],
                 naive: bool = False) -> None:
    """Refuse a run of more than MAX_GRID_POINTS points, any point that
    :func:`check_cost` refuses, or a run whose summed cost exceeds
    MAX_COMMAND_TERMS, before any work. ``lines`` yields each grid line as
    (n, a_values, c, r, s, d) and is read only once ``count`` passes.

    A line is checked at its smallest and its largest a_n. The term count
    n * (a_n - c + 1) is linear in a_n, and the reach grows with |a_n|, so
    on a line both are largest at one of the two. Only a line refused there
    is checked point by point, in order, so the first point refused, and
    its message, are those of a check of every point in grid order.

    The summed cost is the oracle terms n * (a_n - c + 1) of each point with
    a_n >= c and, with ``naive``, the C(a_n - c + n, n) tuples of each such
    point that the naive enumeration runs, at most DEFAULT_NAIVE_CAP."""
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"a grid of {count} points exceeds the cap {MAX_GRID_POINTS}")
    total = 0
    for n, a_values, c, r, s, d in lines:
        if not a_values:
            continue
        try:
            check_cost(n, min(a_values), c, r, s, d)
            check_cost(n, max(a_values), c, r, s, d)
        except argparse.ArgumentTypeError:
            # the refused extreme is one of the points, so this loop raises
            for a_n in a_values:
                check_cost(n, a_n, c, r, s, d)
        ranges = [a_n - c + 1 for a_n in a_values if a_n >= c]
        total += n * sum(ranges)
        if naive:
            tuples = [comb(size + n - 1, n) for size in ranges]
            total += sum(t for t in tuples if t <= DEFAULT_NAIVE_CAP)
    if total > MAX_COMMAND_TERMS:
        summed = "oracle terms and naive tuples" if naive else "oracle terms"
        raise argparse.ArgumentTypeError(
            f"a command of {total} {summed} exceeds the cap {MAX_COMMAND_TERMS}")


def report_row(report: EvaluationReport) -> dict:
    """Fixed-order record for one evaluation: the jsonl row, and through
    :func:`_flat_row` every other format's."""
    params = report.params
    return {
        "identity": report.identity.value,
        "params": {name: format_rational(getattr(params, name))
                   for name in ("a", "b", "p", "q")},
        "n": report.n,
        "a_n": report.a_n,
        "c": report.c,
        "r": report.r,
        "s": report.s,
        "d": report.d,
        "lhs": format_rational(report.lhs),
        "rhs": format_rational(report.rhs),
        "equal": report.equal,
        "class": report.classification,
    }


_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def _emit_jsonl(reports: Iterable[EvaluationReport], out: IO[str]) -> Counter:
    """Write each report's jsonl row, by definition
    ``json.dumps(report_row(report))`` and a newline, with one ``write`` per
    row as the report arrives, and return the tally of the rows' classes.

    The row is written from its family's encoded text: the identity and the
    params go through ``json.dumps``, again only when either differs from the
    previous row's. Every other value is an int, a "num/den" string, a JSON
    literal or a fixed class name, none of which needs escaping, so the bytes
    are unchanged. A report whose ``rhs`` is its ``lhs`` object, as
    :func:`~horadam_sums.identities.verify` gives when the two agree, has
    that value formatted once for both.
    """
    tally: Counter = Counter()
    params = identity = head = None
    for report in reports:
        tally[report.classification] += 1
        if report.params is not params or report.identity is not identity:
            params, identity = report.params, report.identity
            row = report_row(report)
            head = (f'{{"identity": {json.dumps(row["identity"])}, '
                    f'"params": {json.dumps(row["params"])}, "n": ')
        lhs = format_rational(report.lhs)
        rhs = lhs if report.rhs is report.lhs else format_rational(report.rhs)
        out.write(f'{head}{report.n}, "a_n": {report.a_n}, "c": {report.c}, '
                  f'"r": {report.r}, "s": {report.s}, "d": {report.d}, '
                  f'"lhs": "{lhs}", "rhs": "{rhs}", '
                  f'"equal": {_JSON_LITERALS[report.equal]}, '
                  f'"class": "{report.classification}"}}\n')
    return tally


def _flat_row(report: EvaluationReport) -> dict:
    """:func:`report_row` with its params spread out, in SWEEP_CSV_COLUMNS order."""
    row = report_row(report)
    row.update(row.pop("params"))
    return {name: row[name] for name in SWEEP_CSV_COLUMNS}


def _equal_text(equal: Optional[bool]) -> str:
    return "" if equal is None else str(equal).lower()


def _pairs(row: dict, names: Sequence[str]) -> str:
    return " ".join(f"{name}={row[name]}" for name in names)


def _emit_csv(reports: Iterable[EvaluationReport], out: IO[str]) -> Counter:
    tally: Counter = Counter()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for report in reports:
        tally[report.classification] += 1
        row = _flat_row(report)
        row["equal"] = _equal_text(row["equal"])
        writer.writerow(row.values())
    return tally


def _emit_human(reports: Iterable[EvaluationReport], out: IO[str]) -> Counter:
    tally: Counter = Counter()
    for report in reports:
        tally[report.classification] += 1
        row = _flat_row(report)
        out.write(f"{row['identity']} {_pairs(row, SWEEP_CSV_COLUMNS[1:])}\n")
    return tally


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[IO[str]]:
    """The --out file, closed on leaving; stdout for None and "-"."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    params = _point_family(args.identity, args)
    check_cost(args.n, args.an, args.c, args.r, args.s, args.d)
    report = evaluate_point(args.identity, params, args.n, args.an, args.c,
                            args.r, args.s, args.d)
    with _output(args.out) as out:
        if args.format == "jsonl":
            _emit_jsonl([report], out)
        elif args.format == "csv":
            _emit_csv([report], out)
        elif report.classification == CLASS_SKIPPED:
            out.write(f"skipped: {report.detail}\n")
        else:
            row = _flat_row(report)
            out.write(f"identity: {row['identity']}\n"
                      f"params: {_pairs(row, SWEEP_CSV_COLUMNS[1:5])}\n"
                      f"{_pairs(row, SWEEP_CSV_COLUMNS[5:11])}\n"
                      f"lhs: {row['lhs']}\n"
                      f"rhs: {row['rhs']}\n"
                      f"equal: {_equal_text(report.equal)}, value {row['rhs'] or row['lhs']}\n"
                      f"class: {row['class']}\n")
            if report.detail:
                out.write(f"detail: {report.detail}\n")
            out.write(f"oracle_terms: {report.oracle_terms} "
                      f"closed_terms: {report.closed_terms}\n")
    return summarize([report]).exit_code


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# sweep flag -> the SweepGrid field it replaces; --an pins absolute a_n
# values, which take the place of the grid's a_offsets
_GRID_FIELDS = (("n", "n_values"), ("an", "a_values"), ("c", "c_values"),
                ("r", "r_values"), ("s", "s_values"), ("d", "d_values"))


def _grid_from_args(identity: IdentityId, args: argparse.Namespace) -> SweepGrid:
    updates = {field: getattr(args, flag) for flag, field in _GRID_FIELDS
               if getattr(args, flag) is not None}
    families = _family_list(args)
    if families:
        updates["families"] = families
    return dataclasses.replace(default_grid(identity), **updates)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Stream one row per grid point and a summary line on stderr.

    A grid carries families, so a sweep given no --family or --p/--q/--a/--b
    keeps the default grid's; a point has one family, so verify, table and
    bench need it named for a tag with no fixed family (see _point_family).
    Before any work the grid passes :func:`check_points` one line at a time,
    checked at each line's extreme a_n, and a refusal names the first
    refused point in grid order.
    """
    identity = args.identity
    grid = _grid_from_args(identity, args)
    check_points(grid_size(identity, grid),
                 (line[1:] for line in sweep_lines(identity, grid)))
    # rows are written as they are produced; each emitter returns the tally
    # of the classes it wrote
    reports = iter_sweep(identity, grid)
    with _output(args.out) as out:
        if args.format == "csv":
            tally = _emit_csv(reports, out)
        elif args.format == "human":
            tally = _emit_human(reports, out)
        else:
            tally = _emit_jsonl(reports, out)
    summary = SweepSummary.of(tally)
    counts = " ".join(f"{name}={count}" for name, count in dataclasses.asdict(summary).items())
    print(f"sweep {identity.value}: {counts}", file=sys.stderr)
    return summary.exit_code


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_TABLE_STATUS = {CLASS_VERIFIED: "ok", CLASS_MISMATCH: "MISMATCH",
                 CLASS_OUTSIDE: "outside_domain"}


def cmd_table(args: argparse.Namespace) -> int:
    params = _point_family(args.identity, args)
    a_values = args.an or ()
    check_points(len(a_values), [(args.n, a_values, args.c, args.r, args.s, args.d)])
    reports = list(evaluate_line(args.identity, params, args.n, a_values, args.c,
                                 args.r, args.s, args.d))
    rows = [(report.a_n, format_rational(report.lhs), format_rational(report.rhs),
             _TABLE_STATUS.get(report.classification,
                               f"{report.classification}: {report.detail}"))
            for report in reports]
    with _output(args.out) as out:
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(("a_n", "lhs", "rhs", "status"))
            writer.writerows(rows)
        else:
            out.write(f"{'a_n':>6s}  {'oracle lhs':>20s}  {'closed rhs':>20s}  status\n")
            for a_n, lhs, rhs, status in rows:
                out.write(f"{a_n:>6d}  {lhs:>20s}  {rhs:>20s}  {status}\n")
    return summarize(reports).exit_code


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_point(kind: str, inst_args: dict, n: int, a_n: int,
                 c: int) -> Tuple[Callable[[EvalCounter], Fraction], NestedSumSpec]:
    """The closed-form evaluation of one bench point and its nested-sum spec.

    An identity point builds its instance here, once, so that validation
    stays outside the timed closed-form call.
    """
    if kind == "ones":
        def closed(counter: EvalCounter) -> Fraction:
            counter.count += 1  # a single binomial evaluation
            return nested_ones(n, a_n, c)
        return closed, NestedSumSpec(n, a_n, c, ONES)
    if kind == "geometric":
        x = inst_args["x"]
        return (lambda counter: master_E(x, n, a_n, c, counter=counter),
                NestedSumSpec(n, a_n, c, geometric_term(x)))
    inst = IdentityInstance(inst_args["identity"], inst_args["params"], n, a_n,
                            c, inst_args["r"], inst_args["s"], inst_args["d"])
    return lambda counter: evaluate_rhs(inst, counter=counter), lhs_spec(inst)


def bench_rows(kind: str, inst_args: dict, n_values: Sequence[int],
               a_values: Sequence[int], c: int) -> List[tuple]:
    """Measured (instance_id, method, n, range, summand_evals, wall_ns) rows.

    ``range`` is the number of admissible values per index, a_n - c + 1.
    Methods: closed form, chain-count oracle (dp), literal enumeration (naive;
    omitted above ``DEFAULT_NAIVE_CAP`` tuples). Evaluation counts are
    deterministic; wall times are not. An identity point that fails a
    precondition gets no rows and a ``skipped:`` line on stderr.
    """
    rows = []
    for n in n_values:
        for a_n in a_values:
            instance_id = f"{kind}-n{n}-c{c}-a{a_n}"
            try:
                closed, spec = _bench_point(kind, inst_args, n, a_n, c)
            except InvalidInstanceError as exc:
                print(f"skipped: {exc}", file=sys.stderr)
                continue
            methods = (("closed", closed),
                       ("dp", lambda counter: oracle_nested(spec, counter=counter)),
                       ("naive", lambda counter: oracle_nested_naive(spec, counter=counter)))
            for method, run in methods:
                counter = EvalCounter()
                start = time.perf_counter_ns()
                try:
                    run(counter)
                except NaiveCapExceededError:
                    continue
                wall_ns = time.perf_counter_ns() - start
                rows.append((instance_id, method, n, a_n - c + 1, counter.count, wall_ns))
    return rows


def _check_bench_flags(args: argparse.Namespace) -> None:
    """Refuse a flag that the bench kind would ignore: the identity flags
    (--identity, the family flags and non-default --r/--s/--d) without
    ``--kind identity``, and --x without ``--kind geometric``."""
    if args.kind != "identity":
        given = [f"--{name}" for name in ("identity", "family", "p", "q", "a", "b")
                 if getattr(args, name) is not None]
        given += [f"--{name}" for name, default in COORD_DEFAULTS.items()
                  if name != "c" and getattr(args, name) != default]
        if given:
            raise argparse.ArgumentTypeError(f"--kind identity is required by {', '.join(given)}")
    if args.kind != "geometric" and args.x is not None:
        raise argparse.ArgumentTypeError("--kind geometric is required by --x")


def cmd_bench(args: argparse.Namespace) -> int:
    _check_bench_flags(args)
    n_values = args.n or (1, 2, 3, 4, 5)
    if min(n_values) < 1:
        raise argparse.ArgumentTypeError("--n values must be at least 1")
    x = Fraction(2) if args.x is None else args.x
    if args.kind == "geometric" and x in (0, 1):
        raise argparse.ArgumentTypeError(f"x = {x} is a pole of the master closed form")
    inst_args = {"x": x}
    if args.kind == "identity":
        identity = args.identity or IdentityId.F3
        inst_args.update(identity=identity, params=_point_family(identity, args),
                         r=args.r, s=args.s, d=args.d)
    a_values = args.an or tuple(args.c + off for off in (4, 8, 16, 32))
    check_points(len(n_values) * len(a_values),
                 ((n, a_values, args.c, args.r, args.s, args.d) for n in n_values), naive=True)
    rows = bench_rows(args.kind, inst_args, n_values, a_values, args.c)
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BENCH_CSV_COLUMNS)
        writer.writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

_LEMMA_BUILTIN_PQ = (
    (Fraction(1), Fraction(-1)),
    (Fraction(3), Fraction(2)),
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(3)),
    (Fraction(2), Fraction(1)),   # discriminant 0: reported as skipped
)

_LEMMA_RESTRICTED = ("fibonacci", "gibonacci31", "negative_d", "generic")


def cmd_lemmas(args: argparse.Namespace) -> int:
    import random

    if args.points > MAX_LEMMA_POINTS:
        raise argparse.ArgumentTypeError(
            f"--points {args.points} exceeds the cap {MAX_LEMMA_POINTS}")
    rng = random.Random(args.seed)
    failures = 0
    checks = 0

    # Column sums and nested unit counts against literal summation.
    from .combinatorics import binom, binom_column_sum
    for k in range(0, 9):
        for c in (-3, 0, 1, 5):
            for m in range(c - 3, c + 13):
                direct = sum(binom(j - c + k, k) for j in range(c, m + 1))
                checks += 1
                if direct != binom_column_sum(k, m, c):
                    failures += 1
    for depth in range(1, 6):
        for c in (-3, 0, 1, 5):
            for upper in range(c - 1, c + 9):
                oracle = oracle_nested(NestedSumSpec(depth, upper, c, ONES))
                checks += 1
                if oracle != nested_ones(depth, upper, c):
                    failures += 1
    print(f"unit-count identities: {checks} checks, {failures} failures")

    # Root-shift residuals over built-in and randomized (p, q, r, d) points.
    pq_points = list(_LEMMA_BUILTIN_PQ)
    while len(pq_points) < args.points // 20:
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if p != 0 and q != 0:
            pq_points.append((p, q))
    residual_checks = residual_failures = skipped = 0
    for p, q in pq_points:
        if p * p - 4 * q == 0:
            print(f"skipped (p={p}, q={q}): degenerate discriminant")
            skipped += 1
            continue
        for r in range(-4, 5):
            for d in range(-4, 5):
                for which in ROOT_SHIFT_IDENTITIES:
                    residual_checks += 1
                    if lemma3_residual(p, q, r, d, which) != 0:
                        residual_failures += 1
    print(f"root-shift residuals: {residual_checks} checks, "
          f"{residual_failures} failures, {skipped} families skipped")

    # Odd Binet combination for restricted (p = 1) families.
    lemma4_checks = lemma4_failures = 0
    for name in _LEMMA_RESTRICTED:
        params = FAMILIES[name]
        for j in range(-8, 9):
            lemma4_checks += 1
            if lemma4_residual(params, j) != 0:
                lemma4_failures += 1
    print(f"restricted odd-combination residuals: {lemma4_checks} checks, "
          f"{lemma4_failures} failures")

    total_failures = failures + residual_failures + lemma4_failures
    print(f"lemmas: {'PASS' if total_failures == 0 else 'FAIL'}")
    return EXIT_OK if total_failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_point_flags(parser: argparse.ArgumentParser, grid: bool, n: dict, an: dict) -> None:
    """The family flags, --n and --an (``add_argument`` keywords, which
    differ by command) and --c/--r/--s/--d: a set of values each for a sweep
    grid (``grid``), else one value each with its point default."""
    parser.add_argument("--family", action="append", default=None,
                        metavar="NAME",
                        help=f"built-in parameter family ({', '.join(sorted(FAMILIES))})"
                             + ("; repeatable" if grid else ""))
    for name, what in (("p", "recurrence coefficient p"), ("q", "recurrence coefficient q"),
                       ("a", "seed W0"), ("b", "seed W1")):
        parser.add_argument(f"--{name}", type=parse_rational, default=None,
                            help=f'{what} as "n/d"')
    parser.add_argument("--n", **n)
    parser.add_argument("--an", **an)
    coord_help = {"c": 'lower limits, e.g. "-2,0,1,3"' if grid else "lower limit (default 1)"}
    for name, default in COORD_DEFAULTS.items():
        parser.add_argument(f"--{name}", type=parse_int_set if grid else int,
                            default=None if grid else default, help=coord_help.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horadam-sums",
        description="Verify and benchmark closed forms of nested sums over "
                    "second-order recurrence sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a single identity instance")
    p_verify.add_argument("--identity", type=IdentityId, required=True)
    _add_point_flags(p_verify, grid=False,
                     n=dict(type=int, required=True, help="nesting depth"),
                     an=dict(type=int, required=True, help="outer upper limit"))
    p_verify.add_argument("--format", choices=("human", "jsonl", "csv"), default="human")
    p_verify.add_argument("--out", default=None, help="output path (default stdout)")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify an identity over a parameter grid")
    p_sweep.add_argument("--identity", type=IdentityId, required=True)
    _add_point_flags(p_sweep, grid=True,
                     n=dict(type=parse_int_set, default=None, help='depths, e.g. "1..4"'),
                     an=dict(type=parse_int_set, default=None,
                             help='absolute outer upper limits, e.g. "0..8"'))
    p_sweep.add_argument("--format", choices=("human", "jsonl", "csv"), default="jsonl")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="tabulate oracle vs closed form over a_n")
    p_table.add_argument("--identity", type=IdentityId, default="H")
    _add_point_flags(p_table, grid=False, n=dict(type=int, default=2),
                     an=dict(type=parse_int_set, default=tuple(range(1, 11)),
                             help='upper limits, e.g. "1..10"'))
    p_table.add_argument("--format", choices=("human", "csv"), default="human")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=cmd_table)

    p_bench = sub.add_parser("bench", help="closed form vs oracle cost comparison")
    p_bench.add_argument("--kind", choices=("ones", "geometric", "identity"),
                         default="ones")
    p_bench.add_argument("--identity", type=IdentityId, default=None,
                         help="identity for --kind identity (default F3)")
    _add_point_flags(p_bench, grid=False, n=dict(type=parse_int_set, default=None),
                     an=dict(type=parse_int_set, default=None))
    p_bench.add_argument("--x", type=parse_rational, default=None,
                         help="geometric base for --kind geometric (default 2)")
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_lemmas = sub.add_parser("lemmas", help="run the lemma residual suites")
    p_lemmas.add_argument("--seed", type=int, default=0)
    p_lemmas.add_argument("--points", type=int, default=400,
                          help="size of the root-shift check: max(N // 20, 5) (p, q) "
                          "families, the 5 built in and the rest drawn from --seed, each "
                          "(D = 0 ones skipped) checked at 81 (r, d) shifts for L1-L4")
    p_lemmas.set_defaults(func=cmd_lemmas)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Values the cost caps accept can run past the interpreter's limit on
    # int-to-str digits (4300 by default; F[25001] has 5225). The command
    # prints them in full and puts the limit back for library callers.
    # Interpreters before 3.10.7 have no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
