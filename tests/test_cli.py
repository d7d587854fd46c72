"""Command-line surface: flags, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from _util import fib_list
import horadam_sums.cli as cli
import horadam_sums.identities as identities
from horadam_sums.cli import (BENCH_CSV_COLUMNS, SWEEP_CSV_COLUMNS, format_rational,
                              main, parse_int_set)
from horadam_sums.combinatorics import binom
from horadam_sums.identities import IdentityId
from horadam_sums.sequences import horadam

GOLDEN_SWEEP = Path(__file__).resolve().parent.parent / "perfbench" / "golden_sweep.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_range(self):
        assert parse_int_set("1..4") == (1, 2, 3, 4)

    def test_comma_list(self):
        assert parse_int_set("-2,0,1,3") == (-2, 0, 1, 3)

    def test_single(self):
        assert parse_int_set("-7") == (-7,)

    def test_bad_range(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_int_set("4..1")

    def test_format_rational(self):
        assert format_rational(Fraction(7)) == "7/1"
        assert format_rational(Fraction(-5, 3)) == "-5/3"
        assert format_rational(None) == ""


class TestVerifyCommand:
    def test_classic_instance(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "F3",
                               "--family", "fibonacci", "--n", "2", "--an", "3")
        assert code == 0
        assert "equal: true, value 7/1" in out
        assert "class: verified" in out

    def test_precondition_skip(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "F3",
                               "--p", "2", "--q", "2", "--a", "1", "--b", "1",
                               "--n", "1", "--an", "3", "--r", "2")
        assert code == 0
        assert "skipped" in out and "V_2 = 0" in out

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_skipped_point_written_like_a_sweep_row(self, capsys, tmp_path, fmt):
        point = ("--identity", "F5", "--family", "fibonacci", "--n", "1", "--c", "1",
                 "--r", "0", "--s", "0", "--d", "0", "--an", "3")
        path = tmp_path / f"skip.{fmt}"
        code, out, _ = run_cli(capsys, "verify", *point, "--format", fmt, "--out", str(path))
        assert code == 0 and out == ""
        _, swept, _ = run_cli(capsys, "sweep", *point, "--format", fmt)
        assert path.read_text() == swept
        assert "skipped" in swept

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "F1a",
                               "--n", "1", "--an", "2", "--format", "jsonl")
        assert code == 0
        row = json.loads(out)
        assert row["identity"] == "F1a"
        assert row["lhs"] == row["rhs"] == "10/1"
        assert row["equal"] is True
        assert list(row) == ["identity", "params", "n", "a_n", "c", "r", "s", "d",
                             "lhs", "rhs", "equal", "class"]

    def test_explicit_params(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "F3",
                               "--p", "1", "--q", "3", "--a", "2", "--b", "5",
                               "--n", "2", "--an", "4", "--c", "0",
                               "--r", "2", "--s", "1", "--format", "jsonl")
        assert code == 0
        assert json.loads(out)["class"] == "verified"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--identity", "NOPE", "--n", "1", "--an", "2"])
        assert excinfo.value.code == 2

    def test_unknown_family_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "F3",
                               "--family", "bogus", "--n", "1", "--an", "2")
        assert code == 2
        assert "unknown family" in err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("command", [
    ("verify", "--identity", "F3", "--n", "1", "--an", "3", "--format", "jsonl"),
    ("table", "--identity", "F3"),
    ("bench", "--kind", "identity", "--identity", "F3"),
], ids=lambda command: command[0])
def test_missing_family_is_usage_error(capsys, command):
    # a point has one family; a tag with no fixed family needs it named
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert err == "error: F3 needs --family or --p/--q/--a/--b\n"


@pytest.mark.parametrize("command", [
    ("verify", "--identity", "F3", "--n", "1", "--an", "3"),
    ("sweep", "--identity", "F3", "--n", "1", "--an", "3"),
], ids=lambda command: command[0])
def test_family_with_explicit_params_is_usage_error(capsys, command):
    # neither source of families may silently win over the other
    code, out, err = run_cli(capsys, *command, "--family", "lucas", "--family", "generic",
                             "--p", "1", "--q", "-1", "--a", "0", "--b", "1")
    assert code == 2 and out == ""
    assert err == "error: --family and --p/--q/--a/--b exclude each other\n"


@pytest.mark.parametrize("zero", ["--p", "--q"])
@pytest.mark.parametrize("command", [
    ("verify", "--identity", "F3", "--n", "1", "--an", "2"),
    ("sweep", "--identity", "F3", "--n", "1", "--an", "2"),
    ("table", "--identity", "F3", "--an", "2"),
    ("bench", "--kind", "identity", "--identity", "F3", "--n", "1", "--an", "2"),
])
def test_zero_coefficient_is_usage_error(capsys, command, zero):
    coefficients = {"--p": "1", "--q": "1", zero: "0"}
    code, _, err = run_cli(capsys, *command, "--a", "0", "--b", "1",
                           *(item for pair in coefficients.items() for item in pair))
    assert code == 2
    assert err.startswith("error:") and "must be nonzero" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "F3", "--family", "fibonacci", "--n", "2", "--an", "10000000"),
    ("verify", "--identity", "F5", "--family", "generic", "--n", "2", "--an", "3",
     "--r", "1", "--d", "1000000"),
    ("verify", "--identity", "H", "--n", "20", "--an", "20000"),
    ("sweep", "--identity", "F3", "--family", "fibonacci", "--an", "1,10000000"),
    ("sweep", "--identity", "F4", "--family", "fibonacci", "--r", "1,100000"),
    ("table", "--identity", "F3", "--family", "fibonacci", "--an", "1,10000000"),
    ("bench", "--kind", "ones", "--n", "1", "--an", "10000000"),
])
def test_runaway_point_refused_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceed" in err


def test_sweep_caps_only_swept_coordinates(capsys):
    # H sweeps no r, so a huge --r never reaches an instance
    code, out, _ = run_cli(capsys, "sweep", "--identity", "H", "--n", "1",
                           "--an", "1..3", "--r", "1000000")
    assert code == 0 and len(out.splitlines()) == 3


def test_cost_caps_leave_tenfold_headroom():
    # the benchmark's deepest oracle request: depth 8, range 2000, d up to 2
    cli.check_cost(8, 2000, 1, 1, 3, 2)
    cli.check_cost(8, 20000, 1, 1, 3, 2)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.check_cost(8, 200000, 1, 1, 3, 2)


@pytest.mark.parametrize("argv", [
    ("sweep", "--identity", "F3", "--family", "fibonacci", "--an", "0..2000000"),
    ("table", "--identity", "F3", "--family", "fibonacci", "--an", "1..100001"),
    ("bench", "--kind", "ones", "--n", "1", "--an=-5000000..5000000"),
])
def test_overlong_range_refused_while_parsing(capsys, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert time.perf_counter() - start < 1
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --an" in err and "exceed the cap" in err


@pytest.mark.parametrize("argv", [
    # every point passes check_cost; there are just too many of them
    ("sweep", "--identity", "F3", "--family", "fibonacci", "--n", "1..10",
     "--an", "0..99", "--c", "0..9", "--r", "1..11"),
    ("table", "--identity", "H", "--n", "1",
     "--an", ",".join(map(str, range(cli.MAX_GRID_POINTS + 1)))),
    ("bench", "--kind", "ones", "--n", "1..400", "--an", "1..300"),
])
def test_oversized_grid_refused_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: a grid of") and "exceeds the cap" in err


def test_lemma_points_refused_above_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lemmas", "--points", str(cli.MAX_LEMMA_POINTS + 1))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: --points") and "exceeds the cap" in err


def test_size_caps_leave_tenfold_headroom():
    from horadam_sums.identities import grid_size
    largest = max(grid_size(ident) for ident in IdentityId)
    assert largest == 7290
    assert cli.MAX_GRID_POINTS >= 10 * largest
    default_points = cli.build_parser().parse_args(["lemmas"]).points
    assert cli.MAX_LEMMA_POINTS >= 10 * default_points


def test_output_file_closed_when_the_work_raises(tmp_path):
    with pytest.raises(RuntimeError):
        with cli._output(str(tmp_path / "out.txt")) as out:
            raise RuntimeError("in the middle of writing")
    assert out.closed


def _decimal_digits(value: int) -> str:
    """Decimal digits of a nonnegative int, converted 1000 digits at a time,
    so no single conversion meets the interpreter's int-to-str limit."""
    chunks = []
    while True:
        value, chunk = divmod(value, 10 ** 1000)
        chunks.append(chunk)
        if not value:
            break
    return str(chunks[-1]) + "".join(f"{chunk:01000d}" for chunk in reversed(chunks[:-1]))


def test_values_past_the_int_digit_limit_print_exactly(capsys):
    # lhs = rhs = F[25001], 5225 digits, past the default limit of 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--identity", "F3", "--family", "fibonacci",
                           "--n", "1", "--an", "1", "--s", "25000")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    older, fib = 1, 0
    for _ in range(25001):
        older, fib = fib, older + fib
    expected = _decimal_digits(fib)
    assert len(expected) == 5225
    rows = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    for side in ("lhs", "rhs"):
        numerator, denominator = rows[side].split("/")
        assert denominator == "1"
        assert len(numerator) == len(expected)
        assert all(got == want for got, want in zip(numerator, expected))
    assert rows["class"] == "verified"


@pytest.mark.parametrize("argv, code, message", [
    (("--n", "0"), 2, "error: --n values must be at least 1"),
    (("--kind", "identity", "--n", "0..2"), 2, "error: --n values must be at least 1"),
    (("--kind", "geometric", "--x", "1"), 2, "error: x = 1 is a pole"),
    (("--kind", "geometric", "--x", "0"), 2, "error: x = 0 is a pole"),
    (("--kind", "identity", "--identity", "F6a", "--family", "fibonacci"), 0,
     "skipped: F6a: n must be even"),
])
def test_bench_bad_point_follows_exit_contract(capsys, argv, code, message):
    got, out, err = run_cli(capsys, "bench", *argv)
    assert got == code
    assert err and all(line.startswith(message) for line in err.splitlines())
    if code == 2:
        assert out == ""
    else:
        # the odd depths of the default --n 1..5 are skipped at each of the
        # four default --an values; the even depths run
        assert {row["n"] for row in csv.DictReader(io.StringIO(out))} == {"2", "4"}
        assert len(err.splitlines()) == 3 * 4


class TestSweepCommand:
    def test_jsonl_stream_and_summary(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--identity", "F1a",
                                 "--n", "1..2", "--c", "1", "--s", "0",
                                 "--an", "1..4")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 8
        assert all(row["class"] == "verified" for row in rows)
        assert "verified=8" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ("sweep", "--identity", "F3", "--family", "fibonacci",
                "--family", "generic", "--n", "1..2", "--c", "0,1",
                "--r", "1,2", "--s", "0", "--an", "0..4")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_header_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--identity", "F1a",
                               "--n", "1", "--c", "1", "--s", "0",
                               "--an", "1..3", "--format", "csv")
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        assert tuple(next(reader)) == SWEEP_CSV_COLUMNS
        assert len(list(reader)) == 3

    def test_skipped_points_recorded(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--identity", "F3",
                                 "--p", "2", "--q", "2", "--a", "1", "--b", "1",
                                 "--n", "1", "--c", "1", "--r", "2", "--s", "0",
                                 "--an", "1..3")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(row["class"] == "skipped" for row in rows)
        assert "skipped=3" in err

    def test_other_family_on_a_fixed_family_tag_skipped_as_in_verify(self, capsys):
        point = ("--identity", "F1a", "--family", "lucas", "--c", "1", "--s", "0",
                 "--format", "jsonl")
        code, out, err = run_cli(capsys, "sweep", *point, "--n", "1..2", "--an", "1..3")
        assert code == 0 and "skipped=6" in err
        rows = []
        for n in (1, 2):
            for a_n in (1, 2, 3):
                _, row, _ = run_cli(capsys, "verify", *point, "--n", str(n), "--an", str(a_n))
                assert json.loads(row)["class"] == "skipped"
                rows.append(row)
        assert out == "".join(rows)

    def test_fixed_family_tag_sweeps_each_named_family(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--identity", "F6_F_even",
                                 "--family", "fibonacci", "--family", "lucas", "--n", "2",
                                 "--c", "1", "--r", "1", "--s", "0", "--d", "0",
                                 "--an", "1..3")
        assert code == 0 and "verified=3" in err and "skipped=3" in err
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(row["params"]["a"], row["class"]) for row in rows] == \
            [("0/1", "verified")] * 3 + [("2/1", "skipped")] * 3

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        code, out, _ = run_cli(capsys, "sweep", "--identity", "F1a", "--n", "1",
                               "--c", "1", "--s", "0", "--an", "1..3",
                               "--out", str(path))
        assert code == 0 and out == ""
        assert len(path.read_text().strip().splitlines()) == 3


def _flat_cells(row: dict) -> list:
    """A jsonl sweep row's values in csv column order, written out by hand."""
    params = row["params"]
    return [row["identity"], params["a"], params["b"], params["p"], params["q"],
            row["n"], row["a_n"], row["c"], row["r"], row["s"], row["d"],
            row["lhs"], row["rhs"], row["equal"], row["class"]]


def _as_csv(rows: list) -> str:
    lines = ["identity,a,b,p,q,n,a_n,c,r,s,d,lhs,rhs,equal,class"]
    for row in rows:
        cells = _flat_cells(row)
        cells[13] = {True: "true", False: "false", None: ""}[row["equal"]]
        lines.append(",".join(str(cell) for cell in cells))
    return "".join(line + "\n" for line in lines)


def _as_human(rows: list) -> str:
    names = ("a", "b", "p", "q", "n", "a_n", "c", "r", "s", "d", "lhs", "rhs",
             "equal", "class")
    return "".join(
        cells[0] + "".join(f" {name}={cell}" for name, cell in zip(names, cells[1:])) + "\n"
        for cells in map(_flat_cells, rows))


def _raise_pole(inst, counter=None):
    raise ZeroDivisionError("pole here")


class TestRowFormats:
    """csv and human sweep rows carry the jsonl row's values, field by field."""

    def test_default_sweep_in_every_format(self, capsys):
        argv = ("sweep", "--identity", "F7_r1d0_w")
        code, out, err = run_cli(capsys, *argv)
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) == 864
        assert {row["class"] for row in rows} == {"verified", "outside_domain", "skipped"}
        for fmt, expected in (("csv", _as_csv(rows)), ("human", _as_human(rows))):
            assert run_cli(capsys, *argv, "--format", fmt) == (0, expected, err)

    def test_error_row_in_every_format(self, capsys, monkeypatch):
        import horadam_sums.identities as identities
        monkeypatch.setattr(identities, "evaluate_rhs", _raise_pole)
        argv = ("sweep", "--identity", "H", "--n", "1", "--an", "2")
        summary = ("sweep H: total=1 verified=0 mismatched=0 outside_domain=0 "
                   "skipped=0 errors=1\n")
        row = {"identity": "H", "params": {"a": "0/1", "b": "1/1", "p": "1/1", "q": "-1/1"},
               "n": 1, "a_n": 2, "c": 1, "r": 1, "s": 0, "d": 0, "lhs": "", "rhs": "",
               "equal": None, "class": "error"}
        assert run_cli(capsys, *argv) == (1, json.dumps(row) + "\n", summary)
        assert run_cli(capsys, *argv, "--format", "csv") == (1, _as_csv([row]), summary)
        assert run_cli(capsys, *argv, "--format", "human") == (1, _as_human([row]), summary)
        assert _as_human([row]) == ("H a=0/1 b=1/1 p=1/1 q=-1/1 n=1 a_n=2 c=1 r=1 s=0 d=0 "
                                    "lhs= rhs= equal=None class=error\n")

    def test_verify_human_block(self, capsys):
        point = ("verify", "--identity", "H", "--n", "2", "--an", "3")
        assert run_cli(capsys, *point) == (0, (
            "identity: H\n"
            "params: a=0/1 b=1/1 p=1/1 q=-1/1\n"
            "n=2 a_n=3 c=1 r=1 s=0 d=0\n"
            "lhs: 7/1\n"
            "rhs: 7/1\n"
            "equal: true, value 7/1\n"
            "class: verified\n"
            "oracle_terms: 6 closed_terms: 5\n"), "")

    def test_verify_human_block_at_an_error(self, capsys, monkeypatch):
        import horadam_sums.identities as identities
        monkeypatch.setattr(identities, "evaluate_rhs", _raise_pole)
        point = ("verify", "--identity", "H", "--n", "2", "--an", "3")
        assert run_cli(capsys, *point) == (1, (
            "identity: H\n"
            "params: a=0/1 b=1/1 p=1/1 q=-1/1\n"
            "n=2 a_n=3 c=1 r=1 s=0 d=0\n"
            "lhs: \n"
            "rhs: \n"
            "equal: , value \n"
            "class: error\n"
            "detail: pole here\n"
            "oracle_terms: 6 closed_terms: 0\n"), "")


class _RecordingSink:
    """An output stream that keeps each ``write`` apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _every_kind_of_report() -> list:
    """Reports of every class, on families A and B in the order A, B, A, and
    then on another identity; B's seeds and coefficients are negative or
    multi-digit rationals, and so are its values."""
    family_a = identities.FAMILIES["fibonacci"]
    family_b = horadam(Fraction(-7, 3), Fraction(12, 5), Fraction(3, 2), Fraction(-5, 4))
    f3, f4 = IdentityId.F3, IdentityId.F4
    on_a = [identities.evaluate_point(f3, family_a, 2, a_n, 1, 2, 1, 0) for a_n in (-1, 0, 4)]
    on_b = [identities.evaluate_point(f3, family_b, 2, 3, -1, 2, 1, 1),
            identities.evaluate_point(f3, family_b, 2, -4, 1, 2, 1, 1),
            identities.evaluate_point(f3, family_b, 1, 2, 1, 0, 0, 0)]
    genuine = on_a[-1]
    mismatch = dataclasses.replace(genuine, rhs=genuine.rhs + 1, equal=False,
                                   classification=identities.CLASS_MISMATCH)
    error = identities.EvaluationReport(f3, family_a, 1, 2, 1, 1, 0, 0, oracle_terms=2,
                                        classification=identities.CLASS_ERROR,
                                        detail="pole here")
    # the identity changes while the family stays
    other = [identities.evaluate_point(f4, family_a, 2, 4, 1, 2, 1, 0),
             identities.evaluate_point(f4, family_b, 2, 3, -1, 2, 1, 1),
             identities.evaluate_point(IdentityId.F5, family_b, 1, 3, 1, 0, 0, 0)]
    return on_a + on_b + [mismatch, error] + other


def test_jsonl_row_is_json_dumps_of_report_row():
    reports = _every_kind_of_report()
    classes = {report.classification for report in reports}
    assert classes == {"verified", "outside_domain", "skipped", "mismatch", "error"}
    assert any(report.lhs is not None and report.lhs < -10 and report.lhs.denominator > 10
               for report in reports)
    sink = _RecordingSink()

    def stream():
        # each row is written before the next report is asked for
        for count, report in enumerate(reports):
            assert len(sink.writes) == count
            yield report

    cli._emit_jsonl(stream(), sink)
    assert sink.writes == [json.dumps(cli.report_row(report)) + "\n" for report in reports]


@pytest.mark.parametrize("point", [
    ("--identity", "F3", "--family", "fibonacci", "--n", "2", "--an", "4", "--r", "2",
     "--s", "1"),
    ("--identity", "F3", "--p", "3/2", "--q=-5/4", "--a=-7/3", "--b", "12/5",
     "--n", "2", "--an", "3", "--c", "-1", "--r", "2", "--s", "1", "--d", "1"),
    ("--identity", "F5", "--family", "fibonacci", "--n", "1", "--an", "3", "--r", "0"),
], ids=["verified", "rationals", "skipped"])
def test_verify_jsonl_is_json_dumps_of_report_row(capsys, point):
    code, out, _ = run_cli(capsys, "verify", *point, "--format", "jsonl")
    args = cli.build_parser().parse_args(["verify", *point])
    report = identities.evaluate_point(args.identity, cli._point_family(args.identity, args),
                                       args.n, args.an, args.c, args.r, args.s, args.d)
    assert code == 0
    assert out == json.dumps(cli.report_row(report)) + "\n"


class TestTableCommand:
    def test_double_sum_column(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "2", "--an", "1..10",
                               "--format", "csv")
        assert code == 0
        reader = csv.DictReader(io.StringIO(out))
        fib = fib_list(20)
        for row in reader:
            m = int(row["a_n"])
            expected = fib[m + 4] - fib[4] - m
            assert row["lhs"] == row["rhs"] == f"{expected}/1"
            assert row["status"] == "ok"

    def test_triple_sum_column(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "3", "--an", "1..5",
                               "--format", "csv")
        assert code == 0
        reader = csv.DictReader(io.StringIO(out))
        fib = fib_list(20)
        for row in reader:
            m = int(row["a_n"])
            expected = fib[m + 6] - fib[6] - m * fib[4] - Fraction(m * (m + 1), 2)
            assert row["rhs"] == f"{expected}/1"

    def test_header_only_with_no_rows(self, capsys):
        import horadam_sums.cli as cli_mod
        args = cli_mod.build_parser().parse_args(["table", "--n", "2", "--format", "csv"])
        args.an = ()
        code = cli_mod.cmd_table(args)
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "a_n,lhs,rhs,status"

    def test_outside_domain_rows_classified_as_in_sweep(self, capsys):
        # a_n below the lower limit: the empty left side is not a mismatch
        point = ("--identity", "F3", "--family", "fibonacci", "--n", "1",
                 "--an=-3..0", "--c=-1", "--r=-2", "--s", "0")
        code, out, _ = run_cli(capsys, "table", *point, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["status"] for row in rows] == ["outside_domain", "outside_domain",
                                                   "ok", "ok"]
        assert rows[0]["lhs"] == "0/1" and rows[0]["rhs"] == "-27/1"
        sweep_code, sweep_out, _ = run_cli(capsys, "sweep", *point)
        assert sweep_code == 0
        assert [json.loads(line)["class"] for line in sweep_out.splitlines()] == [
            "outside_domain", "outside_domain", "verified", "verified"]

    def test_evaluation_error_row(self, capsys, monkeypatch):
        import horadam_sums.identities as identities

        def divide_by_zero(inst, counter=None):
            raise ZeroDivisionError("pole here")

        monkeypatch.setattr(identities, "evaluate_rhs", divide_by_zero)
        code, out, _ = run_cli(capsys, "table", "--n", "2", "--an", "1..2",
                               "--format", "csv")
        assert code == 1
        statuses = [row["status"] for row in csv.DictReader(io.StringIO(out))]
        assert statuses == ["error: pole here", "error: pole here"]


class TestBenchCommand:
    def test_ones_counts(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--kind", "ones",
                               "--n", "1..4", "--an", "5,9,13", "--c", "1")
        assert code == 0
        reader = csv.DictReader(io.StringIO(out))
        assert tuple(reader.fieldnames) == BENCH_CSV_COLUMNS
        seen = 0
        for row in reader:
            n = int(row["n"])
            span = int(row["range"])
            evals = int(row["summand_evals"])
            a_n = span  # c = 1 so range == a_n
            if row["method"] == "naive":
                assert evals == binom(a_n + n - 1, n)
            elif row["method"] == "dp":
                assert evals <= n * (span + 1)
            else:
                assert evals <= 2 * n + 2
            seen += 1
        assert seen == 3 * 4 * 3

    def test_counts_deterministic(self, capsys):
        argv = ("bench", "--kind", "ones", "--n", "1..3", "--an", "4,8", "--c", "0")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        strip = lambda text: [row.rsplit(",", 1)[0] for row in text.splitlines()]
        assert strip(out1) == strip(out2)  # all but wall_ns identical

    def test_identity_kind_closed_count(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--kind", "identity",
                               "--identity", "F3", "--family", "fibonacci",
                               "--n", "1..4", "--an", "6", "--c", "1")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            if row["method"] == "closed":
                n = int(row["n"])
                assert int(row["summand_evals"]) == 2 * n + 1

    def test_identity_point_built_once(self, capsys, monkeypatch):
        # the instance is validated once per point, before the timed closed form
        built = Counter()
        real = cli.IdentityInstance

        def counting(identity, params, n, a_n, *coords):
            built[(n, a_n)] += 1
            return real(identity, params, n, a_n, *coords)

        monkeypatch.setattr(cli, "IdentityInstance", counting)
        code, _, _ = run_cli(capsys, "bench", "--kind", "identity",
                             "--identity", "F3", "--family", "fibonacci",
                             "--n", "1..3", "--an", "4,8", "--c", "1")
        assert code == 0
        assert built == {(n, a_n): 1 for n in (1, 2, 3) for a_n in (4, 8)}

    def test_identity_point_times_its_own_line_part(self, capsys, monkeypatch):
        # each row's closed form makes its own ratio, base and coefficients,
        # so its wall time covers the work its summand_evals count
        made = Counter()
        real = identities._lifted_line

        def counting(inst, *args):
            made[(inst.n, inst.a_n)] += 1
            return real(inst, *args)

        monkeypatch.setattr(identities, "_lifted_line", counting)
        code, _, _ = run_cli(capsys, "bench", "--kind", "identity",
                             "--identity", "F3", "--family", "fibonacci",
                             "--n", "1..3", "--an", "4,8,16,32")
        assert code == 0
        assert made == {(n, a_n): 1 for n in (1, 2, 3) for a_n in (4, 8, 16, 32)}

    @pytest.mark.parametrize("tag", ["F1b", "F2b", "F6_L_even", "F6_L_odd"])
    def test_identity_kind_runs_a_fixed_family_tag(self, capsys, tag):
        # without --family, a tag specific to one family runs on that family
        n_values = "1,3" if tag.endswith("odd") else "2,4"
        code, out, err = run_cli(capsys, "bench", "--kind", "identity", "--identity", tag,
                                 "--n", n_values, "--an", "3")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["n"] for row in rows} == set(n_values.split(","))
        assert {row["method"] for row in rows} == {"closed", "dp", "naive"}

    def test_naive_rows_respect_cap(self, capsys):
        # C(45, 6) = 8,145,060 tuples, past the naive cap
        code, out, _ = run_cli(capsys, "bench", "--kind", "ones", "--n", "6",
                               "--an", "40", "--c", "1")
        assert code == 0
        methods = [row["method"] for row in csv.DictReader(io.StringIO(out))]
        assert "naive" not in methods and "dp" in methods

    def test_naive_row_dropped_at_a_point_both_cost_caps_accept(self, capsys):
        # 5,000 oracle terms and reach 5,025 pass check_cost; the naive
        # enumeration would visit C(1004, 5) = 8,416,958,750,200 tuples
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "bench", "--kind", "ones", "--n", "5", "--an", "1000")
        assert time.perf_counter() - start < 5
        assert code == 0
        methods = [row["method"] for row in csv.DictReader(io.StringIO(out))]
        assert methods == ["closed", "dp"]

    def test_naive_cap_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--kind", "ones", "--n", "1", "--an", "3", "--naive-cap", "1000"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --naive-cap" in capsys.readouterr().err


class TestLemmasCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--seed", "1", "--points", "100")
        assert code == 0
        assert "lemmas: PASS" in out
        assert "0 failures" in out

    def test_degenerate_family_skipped_with_message(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--seed", "0", "--points", "60")
        assert code == 0
        assert "degenerate discriminant" in out

    @pytest.mark.parametrize("points,checks", [(400, 6156), (10, 1296)])
    def test_points_set_the_family_count(self, capsys, points, checks):
        # max(points // 20, 5) families, the D = 0 built-in skipped, 9 x 9 (r, d) x L1-L4
        code, out, _ = run_cli(capsys, "lemmas", "--seed", "0", "--points", str(points))
        assert code == 0
        assert f"root-shift residuals: {checks} checks, 0 failures, 1 families skipped" in out


@pytest.mark.parametrize("identity", [ident.value for ident in IdentityId])
def test_default_sweep_matches_golden(capsys, identity):
    # byte-identical default-grid output is the contract every refactor keeps
    golden = json.loads(GOLDEN_SWEEP.read_text())[identity]
    code, out, _ = run_cli(capsys, "sweep", "--identity", identity)
    data = out.encode()
    tally = Counter(json.loads(line)["class"] for line in data.splitlines())
    assert code == 0
    assert len(data) == golden["bytes"]
    assert hashlib.sha256(data).hexdigest() == golden["sha256"]
    assert sum(tally.values()) == golden["total"]
    for name in ("verified", "mismatch", "outside_domain", "skipped", "error"):
        assert tally[name] == golden[name], name
