"""Command-line surface: flags, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import signal
import sys
import time
from collections import Counter
from fractions import Fraction
from math import log2
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import fib_list
import horadam_sums.cli as cli
import horadam_sums.identities as identities
from horadam_sums.cli import (BENCH_CSV_COLUMNS, SWEEP_CSV_COLUMNS, format_rational,
                              main, parse_int_set)
from horadam_sums.combinatorics import binom
from horadam_sums.identities import IdentityId
from horadam_sums.sequences import _steps, horadam

GOLDEN_SWEEP = Path(__file__).resolve().parent.parent / "perfbench" / "golden_sweep.json"


# the slowest command a test runs takes about 1.3 s on a 2-core x86-64 host
CLI_DEADLINE_S = 20


def _on_alarm(signum, frame):
    raise TimeoutError


def call_main(argv):
    """``main(argv)`` under a ``CLI_DEADLINE_S`` alarm, so a command that
    should be refused but runs on fails the test, naming its argv, instead of
    hanging the suite."""
    argv = list(argv)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CLI_DEADLINE_S)
    try:
        return main(argv)
    except TimeoutError:
        pytest.fail(f"main({argv}) still ran after {CLI_DEADLINE_S} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(capsys, *argv):
    code = call_main(argv)
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
            call_main(["verify", "--identity", "NOPE", "--n", "1", "--an", "2"])
        assert excinfo.value.code == 2

    def test_unknown_family_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "F3",
                               "--family", "bogus", "--n", "1", "--an", "2")
        assert code == 2
        assert "unknown family" in err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            call_main([])
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


def test_partial_explicit_params_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "F3", "--n", "1", "--an", "2",
                             "--p", "1")
    assert code == 2 and out == ""
    assert err == "error: --p/--q/--a/--b must be given together\n"


def test_unparsable_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        call_main(["verify", "--identity", "F3", "--n", "1", "--an", "2",
                   "--p", "1/0", "--q", "1", "--a", "0", "--b", "1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and len(errors) == 1
    assert errors[0].endswith("argument --p: not a rational: '1/0' (Fraction(1, 0))")


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "F3", "--family", "fibonacci", "--n", "2", "--an", "10000000"),
    ("verify", "--identity", "F5", "--family", "generic", "--n", "2", "--an", "3",
     "--r", "1", "--d", "1000000"),
    ("verify", "--identity", "H", "--n", "20", "--an", "20000"),
    ("sweep", "--identity", "F3", "--family", "fibonacci", "--an", "1,10000000"),
    ("sweep", "--identity", "F4", "--family", "fibonacci", "--r", "1,100000"),
    ("table", "--identity", "F3", "--family", "fibonacci", "--an", "1,10000000"),
    ("bench", "--kind", "ones", "--n", "1", "--an", "10000000"),
    # each point passes check_cost, but the whole command would run for a day
    ("sweep", "--identity", "F4", "--family", "integer_root", "--n", "5", "--c", "1",
     "--r", "1", "--s", "0", "--d", "0", "--an", "1..29995"),
    # within MAX_REACH, but far out on a side where the term denominators
    # grow: below 0 on integer_root (q = 2), above 0 on p = 5/2, q = -2/3
    ("verify", "--identity", "F3", "--family", "integer_root", "--n", "5", "--an", "0",
     "--c", "-29000"),
    ("sweep", "--identity", "F3", "--p=5/2", "--q=-2/3", "--a=3/2", "--b=-1", "--n", "5",
     "--an", "29990..29991", "--c", "1", "--r", "1", "--s", "0", "--d", "0"),
])
def test_runaway_point_refused_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceed" in err and err.count("\n") == 1


@pytest.mark.parametrize("coords, expected", [
    # n = 1 passes its whole line; at n = 7 the middle a_n is the first point
    # refused, by its term count, and the last would be refused too
    (("--n", "1,7", "--an", "5,28600,29000"),
     "error: n * (a_n - c + 1) = 200200 oracle terms exceeds the cap 200000\n"),
    # the largest a_n passes and the smallest is refused by its reach, but
    # the negative a_n before it is the first point refused
    (("--n", "2", "--an=3,-29999,-40000,4"),
     "error: sequence indices and powers up to about 150005 exceed the cap 150000\n"),
], ids=["middle-of-line", "reach-at-negative-a_n"])
def test_sweep_names_the_first_point_refused(capsys, coords, expected):
    # the message of a check of every point in grid order, byte for byte
    code, out, err = run_cli(capsys, "sweep", "--identity", "F3", "--family", "fibonacci",
                             "--c", "1", "--r", "1", "--s", "0", *coords)
    assert (code, out, err) == (2, "", expected)


def _refusal(check, *args):
    """The message ``check(*args)`` refuses with, or None."""
    try:
        check(*args)
    except argparse.ArgumentTypeError as exc:
        return str(exc)
    return None


# a family whose term denominators double per index above 0 (m = 2), and
# grow 4-fold per index below it (m*m*q = -4)
HALF = horadam(1, 1, Fraction(1, 2), -1)
# the families a cost check is given: none (no sequence), integral ones with
# and without growth below 0, HALF, and one that grows on both sides
CHECKED_FAMILIES = (None, identities.FAMILIES["fibonacci"], identities.FAMILIES["integer_root"],
                    HALF, horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3)))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(CHECKED_FAMILIES), st.integers(-3, 9),
                                st.lists(st.integers(-40000, 40000), max_size=5),
                                st.integers(-50, 50), st.integers(-3, 3),
                                st.integers(-9, 9), st.integers(-3, 3)), max_size=4))
def test_line_gate_refuses_as_the_point_gate(lines):
    # checking each line at its extremes refuses the same first point, with
    # the same message, as checking every point in order, and weighing only
    # the lines whose largest a_n weighs more than 1 point by point sums the
    # same cost as weighing every point
    def every_point():
        total = 0
        for family, n, a_values, c, r, s, d in lines:
            for a_n in a_values:
                weight = cli.check_cost(family, n, a_n, c, r, s, d)
                if a_n >= c:
                    total += min(n * (a_n - c + 1) * weight,
                                 cli.MAX_COMMAND_TERMS - cli.DEFAULT_NAIVE_CAP)
        if total > cli.MAX_COMMAND_TERMS:
            raise argparse.ArgumentTypeError(
                f"a command of {total} oracle terms exceeds the cap {cli.MAX_COMMAND_TERMS}")

    assert _refusal(cli.check_points, 0, lines) == _refusal(every_point)


def test_sweep_caps_an_unread_coordinate_as_verify_does(capsys):
    # H reads no r, yet a huge --r is a point's coordinate all the same: the
    # sweep refuses its first point with the line verify gives for it
    swept = run_cli(capsys, "sweep", "--identity", "H", "--n", "1", "--an", "1..3",
                    "--r", "1000000")
    one = run_cli(capsys, "verify", "--identity", "H", "--n", "1", "--an", "1",
                  "--r", "1000000")
    assert swept == one
    code, out, err = one
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_cost_caps_leave_tenfold_headroom():
    # the benchmark's deepest oracle request: depth 8, range 2000, d up to 2
    root = identities.FAMILIES["integer_root"]
    cli.check_cost(root, 8, 2000, 1, 1, 3, 2)
    cli.check_cost(root, 8, 20000, 1, 1, 3, 2)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.check_cost(root, 8, 200000, 1, 1, 3, 2)


@pytest.mark.parametrize("family, coords, side", [
    # integer_root's denominators double per index below 0: at n = 5 and
    # r = 1 the side's bound is 5 * (6 - c) - min(s, 0), 54,000 at c = -10794
    ("integer_root", (5, 0, -10794, 1, 0, 0), "below"),
    # a negative r reads a positive a_n below 0: 5 * (5 + a_n)
    ("integer_root", (5, 10795, 1, -1, 0, 0), "below"),
    # HALF's double above 0: 5 * (5 + a_n) + max(s, 0)
    ("half", (5, 10795, 1, 1, 0, 0), "above"),
])
def test_denominator_cap_accepts_the_cap_and_refuses_one_past(family, coords, side):
    assert cli.MAX_DENOMINATOR_BITS == 54_000  # the coordinates above are sized to it
    params = HALF if family == "half" else identities.FAMILIES[family]
    n, a_n, c, r, s, d = coords
    cli.check_cost(params, *coords)
    past = (n, a_n, c, r, s - 1 if side == "below" else s + 1, d)
    assert _refusal(cli.check_cost, params, *past) == (
        f"term denominators of about 54001 bits at sequence indices up to about 54001 "
        f"{side} 0 exceed the cap 54000")
    # the same point on a family whose denominators grow on neither side
    cli.check_cost(identities.FAMILIES["fibonacci"], *past)


def test_denominator_cap_leaves_integral_sides_to_the_reach():
    # upwards on integer_root the terms are ints, so only MAX_REACH applies:
    # F4 at a_n = 28,000 reaches 140,025 and is accepted
    cli.check_cost(identities.FAMILIES["integer_root"], 5, 28000, 1, 1, 0, 0)


@pytest.mark.parametrize("argv", [
    ("sweep", "--identity", "F3", "--family", "fibonacci", "--an", "0..2000000"),
    ("table", "--identity", "F3", "--family", "fibonacci", "--an", "1..100001"),
    ("bench", "--kind", "ones", "--n", "1", "--an=-5000000..5000000"),
])
def test_overlong_range_refused_while_parsing(capsys, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        call_main(argv)
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


def _a_list(*runs) -> str:
    """An --an comma list of each (value, count) run in turn."""
    return ",".join(str(value) for value, count in runs for _ in range(count))


# (command, its work in cli, argv at the cap, argv one past it, what it sums)
_AT_THE_CAP = [
    # 200 points of 25,000 oracle terms each, then one a_n one larger
    ("sweep", "iter_sweep",
     ("--identity", "F3", "--family", "fibonacci", "--n", "1", "--c", "1", "--r", "1", "--s", "0",
      "--an", _a_list((25000, 200))),
     ("--identity", "F3", "--family", "fibonacci", "--n", "1", "--c", "1", "--r", "1", "--s", "0",
      "--an", _a_list((25000, 199), (25001, 1))),
     "oracle terms"),
    ("table", "evaluate_line",
     ("--identity", "F3", "--family", "fibonacci", "--n", "1", "--an", _a_list((25000, 200))),
     ("--identity", "F3", "--family", "fibonacci", "--n", "1",
      "--an", _a_list((25000, 199), (25001, 1))),
     "oracle terms"),
    # at n = 2 a range of 25,000 runs no naive row, C(25001, 2) tuples being
    # past the naive cap; a_n = 1 adds 2 oracle terms and its 1 naive tuple
    ("bench", "bench_rows",
     ("--kind", "ones", "--n", "2", "--an", _a_list((25000, 100))),
     ("--kind", "ones", "--n", "2", "--an", _a_list((25000, 99), (24999, 1), (1, 1))),
     "oracle terms and naive tuples"),
]


@pytest.mark.parametrize("command, work, at_cap, past_cap, summed", _AT_THE_CAP,
                         ids=[case[0] for case in _AT_THE_CAP])
def test_command_budget_accepts_the_cap_and_refuses_one_past(capsys, monkeypatch, command,
                                                             work, at_cap, past_cap, summed):
    assert cli.MAX_COMMAND_TERMS == 5_000_000  # the argv above are sized to it
    reached = []
    monkeypatch.setattr(cli, work, lambda *args: reached.append(args) or [])
    code, _, err = run_cli(capsys, command, *at_cap)
    assert code == 0 and len(reached) == 1 and not err.startswith("error:")
    code, out, err = run_cli(capsys, command, *past_cap)
    assert (code, out, len(reached)) == (2, "", 1)
    assert err == f"error: a command of 5000001 {summed} exceeds the cap 5000000\n"


# the command of three F4 points at the bits cap below 0 on integer_root;
# each point alone runs about 16 s on a 2-core x86-64 host
_FAR_F4 = ("--identity", "F4", "--family", "integer_root", "--n", "5", "--c", "-5994",
           "--r", "3", "--s", "0", "--d", "0")


@pytest.mark.parametrize("an, total", [("-2..0", 8181810), ("-165..0", 446571125)])
def test_command_of_far_points_refused_by_their_bits(capsys, an, total):
    # 3 or 166 points, each accepted alone, whose oracle terms all lie where
    # the term denominators grow: each point's bound reaches 9 * 6000 = 54,000
    # bits below 0, so each of its 5 * (a_n + 5995) terms weighs
    # 1 + 54000 // 600 = 91
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", *_FAR_F4, f"--an={an}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a command of {total} oracle terms exceeds the cap 5000000\n"


@pytest.mark.parametrize("family, coords", [
    # F4 at r = 3 on integer_root: 29,975 terms, 54,000 bits below 0
    ("integer_root", (5, 0, -5994, 3, 0, 0)),
    # F3 at both point caps: 200,000 terms and 54,000 bits below 0
    ("integer_root", (5, 29205, -10794, 1, 0, 0)),
])
def test_points_at_the_bits_cap_pass_alone(family, coords):
    params = identities.FAMILIES[family]
    n, a_n, c, r, s, d = coords
    assert cli.check_cost(params, *coords) == 91
    for naive in (False, True):
        # as a one-point sweep line and as verify's point
        cli.check_points(1, [(params, n, (a_n,), c, r, s, d)], naive=naive)


# families whose term denominators grow on both sides of 0, by one bit per
# index (p = q = 1/2) and by 2.6 and 4.6 bits
BOTH_SIDES = (horadam(1, 1, Fraction(1, 2), Fraction(1, 2)),
              horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3)))


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(CHECKED_FAMILIES + BOTH_SIDES), n=st.integers(1, 40),
       a_n=st.integers(-30000, 30000), c=st.integers(-30000, 30000), r=st.integers(-4, 4),
       s=st.integers(-9, 9), d=st.integers(-3, 3))
def test_any_point_the_point_gate_accepts_is_accepted_alone(family, n, a_n, c, r, s, d):
    try:
        cli.check_cost(family, n, a_n, c, r, s, d)
    except argparse.ArgumentTypeError:
        return
    cli.check_points(1, [(family, n, (a_n,), c, r, s, d)], naive=True)


def test_far_weight_at_both_bit_caps_and_on_default_grids():
    # a point at the bits cap on both sides of 0 (p = q = 1/2, r = 1, n = 1)
    # weighs its 21,597 terms 91 each, once, not once per side
    half = BOTH_SIDES[0]
    assert cli.check_cost(half, 1, 10798, -10798, 1, 0, 0) == 91
    line = (half, 1, (10798,), -10798, 1, 0, 0)
    cli.check_points(1, [line], naive=True)
    assert _refusal(cli.check_points, 2, [line, line]) is None
    assert _refusal(cli.check_points, 3, [line] * 3) == (
        "a command of 5895981 oracle terms exceeds the cap 5000000")
    # every point of the 25 default grids weighs 1
    for ident in IdentityId:
        for family, n, a_values, c, r, s, d in identities.sweep_lines(ident):
            assert {cli.check_cost(family, n, a_n, c, r, s, d) for a_n in a_values} == {1}


def test_growth_bits_are_the_walk_scales():
    # log2 of the upward scale m and of the downward scale |m*m*q| of
    # sequences._steps, on the built-in families and on p = 5/2, q = -2/3
    families = [*identities.FAMILIES.values(), BOTH_SIDES[1]]
    for family in families:
        (_, _, up), (_, _, down) = _steps(family._pq)
        assert cli._growth_bits(family._pq) == (log2(up), log2(abs(down)),
                                                max(log2(up), log2(abs(down))))
    assert cli._growth_bits(identities.FAMILIES["integer_root"]._pq) == (0, 1, 1)
    assert cli._growth_bits(identities.FAMILIES["fibonacci"]._pq) == (0, 0, 0)
    assert cli._growth_bits(BOTH_SIDES[1]._pq) == (log2(6), log2(24), log2(24))


def test_command_cap_leaves_headroom():
    # every default grid fits, ten times over, and one point refused by no
    # check_cost is never refused by the command's sum, naive row included
    terms = {ident: sum(n * sum(a_n - c + 1 for a_n in a_values if a_n >= c)
                        for _, n, a_values, c, _, _, _ in identities.sweep_lines(ident))
             for ident in IdentityId}
    assert sum(terms.values()) == 267_570 and max(terms.values()) == terms[IdentityId.F7] == 45_360
    assert cli.MAX_COMMAND_TERMS >= 10 * sum(terms.values())
    assert cli.MAX_COMMAND_TERMS >= cli.MAX_ORACLE_TERMS + cli.DEFAULT_NAIVE_CAP


def test_out_dash_writes_to_stdout(capsys):
    point = ("verify", "--identity", "F3", "--family", "fibonacci", "--n", "2", "--an", "3")
    plain = run_cli(capsys, *point)
    assert plain[0] == 0 and plain[1]
    assert run_cli(capsys, *point, "--out", "-") == plain


@pytest.mark.parametrize("argv,code", [
    (["verify", "--identity", "F3", "--family", "fibonacci", "--n", "2", "--an", "3"], 0),
    (["verify", "--identity", "F3", "--n", "1", "--an", "3"], 2),
], ids=["verified", "usage"])
def test_console_script_exits_with_the_command_status(capsys, monkeypatch, argv, code):
    # the console script reads sys.argv and exits with main's status
    monkeypatch.setattr(sys, "argv", ["horadam-sums", *argv])
    with pytest.raises(SystemExit) as excinfo:
        cli.entrypoint()
    assert excinfo.value.code == code
    assert capsys.readouterr() == run_cli(capsys, *argv)[1:]


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
    # a flag the kind would ignore is refused, not dropped
    (("--identity", "F3", "--family", "fibonacci", "--n", "1..2", "--an", "5"), 2,
     "error: --kind identity is required by --identity, --family"),
    (("--kind", "geometric", "--p", "1", "--q", "-1", "--a", "0", "--b", "1"), 2,
     "error: --kind identity is required by --p, --q, --a, --b"),
    (("--r", "2"), 2, "error: --kind identity is required by --r"),
    (("--kind", "ones", "--s", "1", "--d", "-1"), 2,
     "error: --kind identity is required by --s, --d"),
    (("--x", "3"), 2, "error: --kind geometric is required by --x"),
    (("--kind", "identity", "--family", "fibonacci", "--x", "3"), 2,
     "error: --kind geometric is required by --x"),
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
    on_b = [identities.evaluate_point(f3, family_b, 2, 3, -1, 2, 1, 0),
            identities.evaluate_point(f3, family_b, 2, -4, 1, 2, 1, 0),
            identities.evaluate_point(f3, family_b, 1, 2, 1, 0, 0, 0)]
    genuine = on_a[-1]
    mismatch = dataclasses.replace(genuine, rhs=genuine.rhs + 1, equal=False,
                                   classification=identities.CLASS_MISMATCH)
    error = identities.EvaluationReport(f3, family_a, 1, 2, 1, 1, 0, 0, oracle_terms=2,
                                        classification=identities.CLASS_ERROR,
                                        detail="pole here")
    # the identity changes while the family stays
    other = [identities.evaluate_point(f4, family_a, 2, 4, 1, 2, 1, 0),
             identities.evaluate_point(f4, family_b, 2, 3, -1, 2, 1, 0),
             identities.evaluate_point(IdentityId.F5, family_b, 1, 3, 1, 0, 0, 0)]
    return on_a + on_b + [mismatch, error] + other


def test_jsonl_row_is_json_dumps_of_report_row():
    reports = _every_kind_of_report()
    classes = {report.classification for report in reports}
    assert classes == {"verified", "outside_domain", "skipped", "mismatch", "error"}
    assert any(report.lhs is not None and report.lhs < -10 and report.lhs.denominator > 10
               for report in reports)
    # a verified report's rhs is its lhs object; fabricated reports that say
    # equal while their rhs is another object, of the same value or not,
    # have their own rhs written
    genuine = next(report for report in reports if report.classification == "verified")
    assert genuine.rhs is genuine.lhs
    copied = dataclasses.replace(genuine, rhs=Fraction(genuine.lhs.numerator,
                                                       genuine.lhs.denominator))
    lying = dataclasses.replace(genuine, rhs=genuine.lhs + Fraction(1, 3))
    assert copied.rhs is not copied.lhs and lying.equal
    reports += [copied, lying]
    sink = _RecordingSink()

    def stream():
        # each row is written before the next report is asked for
        for count, report in enumerate(reports):
            assert len(sink.writes) == count
            yield report

    cli._emit_jsonl(stream(), sink)
    assert sink.writes == [json.dumps(cli.report_row(report)) + "\n" for report in reports]


@pytest.mark.parametrize("emit", ["_emit_jsonl", "_emit_csv", "_emit_human"])
def test_emitter_returns_the_tally_of_the_classes_it_wrote(emit):
    reports = _every_kind_of_report()
    sink = io.StringIO()
    tally = getattr(cli, emit)(iter(reports), sink)
    assert type(tally) is Counter
    assert tally == Counter(report.classification for report in reports)
    assert set(tally) == {"verified", "outside_domain", "skipped", "mismatch", "error"}
    rows = sink.getvalue().splitlines()
    assert len(rows) == len(reports) + (emit == "_emit_csv")  # the csv header


@pytest.mark.parametrize("point", [
    ("--identity", "F3", "--family", "fibonacci", "--n", "2", "--an", "4", "--r", "2",
     "--s", "1"),
    ("--identity", "F3", "--p", "3/2", "--q=-5/4", "--a=-7/3", "--b", "12/5",
     "--n", "2", "--an", "3", "--c", "-1", "--r", "2", "--s", "1"),
    ("--identity", "F5", "--family", "fibonacci", "--n", "1", "--an", "3", "--r", "0"),
], ids=["verified", "rationals", "skipped"])
def test_verify_jsonl_is_json_dumps_of_report_row(capsys, point):
    code, out, _ = run_cli(capsys, "verify", *point, "--format", "jsonl")
    args = cli.build_parser().parse_args(["verify", *point])
    report = identities.evaluate_point(args.identity, cli._point_family(args.identity, args),
                                       args.n, args.an, args.c, args.r, args.s, args.d)
    assert code == 0
    assert out == json.dumps(cli.report_row(report)) + "\n"


# a value off each coordinate's default; F5's weight base U_d needs d != 0,
# so its point without that flag has d = 1
_OFF_DEFAULT = {"c": 2, "r": 2, "s": 1, "d": -1}
_VERIFYING_D = {IdentityId.F5: 1, IdentityId.F5_G: 1}


@pytest.mark.parametrize("ident", list(IdentityId), ids=str)
def test_verify_and_one_point_sweep_agree_off_the_defaults(capsys, ident):
    # each of --c/--r/--s/--d off its default, whether the tag reads that
    # coordinate or not, gives verify and a one-point sweep the same row:
    # the same class, and the coordinates as given
    family = [] if identities.fixed_family(ident) else ["--family", "gibonacci31"]
    n = identities.default_grid(ident).n_values[0]
    base = dict(identities.COORD_DEFAULTS, d=_VERIFYING_D.get(ident, 0))

    def rows(coords):
        flags = [*family, "--n", str(n), "--an", "3"]
        flags += [f"--{name}={value}" for name, value in coords.items()]
        argv = ["--identity", ident.value, *flags, "--format", "jsonl"]
        verified = run_cli(capsys, "verify", *argv)
        swept = run_cli(capsys, "sweep", *argv)
        assert verified[0] == swept[0] in (0, 1)
        return json.loads(verified[1]), json.loads(swept[1])

    one, swept = rows(base)
    assert one == swept and one["class"] == "verified"
    for name, value in _OFF_DEFAULT.items():
        coords = dict(base, **{name: value})
        one, swept = rows(coords)
        assert one == swept
        assert {key: one[key] for key in coords} == coords


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

    def test_default_human_table(self, capsys):
        # H at n = 2 over a_n 1..10: the double sum F[m+4] - F[4] - m
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        header, *rows = out.splitlines()
        assert header.split() == ["a_n", "oracle", "lhs", "closed", "rhs", "status"]
        fib = fib_list(20)
        assert [row.split() for row in rows] == [
            [str(m), f"{fib[m + 4] - fib[4] - m}/1", f"{fib[m + 4] - fib[4] - m}/1", "ok"]
            for m in range(1, 11)]

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

    def test_geometric_counts(self, capsys):
        # master_E reads one binomial per level; the naive count is the
        # number of nested tuples, C(a_n - c + n, n)
        code, out, _ = run_cli(capsys, "bench", "--kind", "geometric",
                               "--n", "1..3", "--an", "5,9", "--c", "0")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3 * 2 * 3
        for row in rows:
            n, a_n = int(row["n"]), int(row["instance_id"].rsplit("-a", 1)[1])
            evals = int(row["summand_evals"])
            assert int(row["range"]) == a_n + 1
            if row["method"] == "closed":
                assert evals == n
            elif row["method"] == "naive":
                assert evals == binom(a_n + n, n)
            else:
                assert evals <= n * (a_n + 2)

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

    def test_identity_kind_defaults_to_f3(self, capsys):
        point = ("bench", "--kind", "identity", "--family", "fibonacci", "--n", "1..2",
                 "--an", "3,5")
        code, out, _ = run_cli(capsys, *point)
        named_code, named, _ = run_cli(capsys, *point, "--identity", "F3")
        assert code == named_code == 0
        strip = lambda text: [row.rsplit(",", 1)[0] for row in text.splitlines()]
        assert strip(out) == strip(named) and len(strip(out)) == 1 + 2 * 2 * 3

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
            call_main(["bench", "--kind", "ones", "--n", "1", "--an", "3", "--naive-cap", "1000"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --naive-cap" in capsys.readouterr().err


class TestLemmasCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--seed", "1", "--points", "100")
        assert code == 0
        assert "lemmas: PASS" in out
        assert "0 failures" in out

    def test_repeated_root_family_checked(self, capsys, monkeypatch):
        # the built-in (2, 1), D = 0, is checked like every other family:
        # nothing is skipped, and its 324 residuals are among those counted
        seen = []
        real = cli.lemma3_residual
        monkeypatch.setattr(cli, "lemma3_residual",
                            lambda p, q, *rest: seen.append((p, q)) or real(p, q, *rest))
        code, out, _ = run_cli(capsys, "lemmas", "--seed", "0", "--points", "60")
        assert code == 0 and "skipped" not in out
        assert "root-shift residuals: 1620 checks, 0 failures\n" in out
        assert seen.count((2, 1)) == 324

    def test_each_failure_is_counted(self, capsys, monkeypatch):
        # one wrong result from each of the four checked routes: the two unit
        # counts, a root-shift residual and an odd-combination residual
        import horadam_sums.combinatorics as combinatorics

        argv = ("lemmas", "--seed", "0", "--points", "10")
        code, passing, _ = run_cli(capsys, *argv)
        assert code == 0

        def wrong_once(fn):
            calls = []

            def first_call_off_by_one(*args):
                calls.append(args)
                return fn(*args) + (1 if len(calls) == 1 else 0)
            return first_call_off_by_one

        for module, name in ((combinatorics, "binom_column_sum"), (cli, "nested_ones"),
                             (cli, "lemma3_residual"), (cli, "lemma4_residual")):
            monkeypatch.setattr(module, name, wrong_once(getattr(module, name)))
        code, out, _ = run_cli(capsys, *argv)
        assert code == cli.EXIT_MISMATCH
        expected = passing.replace("unit-count identities: 776 checks, 0 failures",
                                   "unit-count identities: 776 checks, 2 failures")
        expected = expected.replace("1620 checks, 0 failures", "1620 checks, 1 failures")
        expected = expected.replace("85 checks, 0 failures", "85 checks, 1 failures")
        expected = expected.replace("lemmas: PASS", "lemmas: FAIL")
        assert out == expected != passing

    @pytest.mark.parametrize("points,checks", [(400, 6480), (10, 1620)])
    def test_points_set_the_family_count(self, capsys, points, checks):
        # max(points // 20, 5) families, the D = 0 built-in among them, 9 x 9 (r, d) x L1-L4
        code, out, _ = run_cli(capsys, "lemmas", "--seed", "0", "--points", str(points))
        assert code == 0
        assert f"root-shift residuals: {checks} checks, 0 failures\n" in out


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
