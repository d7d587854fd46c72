"""The grid-line memo: a point reports the same whatever the memo holds.

A grid line's a_n-free work (precondition verdict, left-hand summand, closed
form's coefficients) is kept for the ``LINE_CAP`` most recent lines. Every
report of a sweep must equal, field by field, the report of the same point
evaluated alone on an empty memo, in grid order, in a seeded shuffle of all
tags' points, and with the lines of two tags or two families interleaved.
Only the measured times may differ.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from itertools import chain

import pytest

from _util import karr_nested_sum, summand_fn
import horadam_sums.identities as identities
from horadam_sums.identities import (CLASS_OUTSIDE, FAMILIES, LINE_CAP, IdentityId,
                                     clear_line_memo, default_grid, evaluate_point,
                                     iter_sweep, lhs_spec, sweep, sweep_points)
from horadam_sums.nestedcore import SumTerm
from horadam_sums.sequences import HoradamSequence

_TIMES = ("oracle_ns", "closed_ns")


def _fields(report) -> tuple:
    return tuple(getattr(report, f.name) for f in dataclasses.fields(report)
                 if f.name not in _TIMES)


def _alone(identity, point):
    clear_line_memo()
    return evaluate_point(identity, *point)


@pytest.fixture(scope="module")
def alone():
    """(tag, point) -> its report on an empty memo, for every point of every
    default grid."""
    return {(ident, point): _alone(ident, point)
            for ident in IdentityId for point in sweep_points(ident)}


def _mismatches(pairs, alone) -> list:
    return [(ident.value, point) for (ident, point), fields in pairs
            if fields != _fields(alone[ident, point])]


def test_sweep_equals_point_alone_in_grid_order(alone):
    clear_line_memo()
    pairs = [((ident, point), _fields(report)) for ident in IdentityId
             for point, report in zip(sweep_points(ident), iter_sweep(ident))]
    assert len(pairs) == len(alone)
    assert not _mismatches(pairs, alone)


def test_sweep_equals_point_alone_in_shuffled_order(alone):
    keys = list(alone)
    random.Random(20221018).shuffle(keys)
    clear_line_memo()
    pairs = [(key, _fields(evaluate_point(key[0], *key[1]))) for key in keys]
    assert not _mismatches(pairs, alone)


def _interleaved(streams) -> list:
    """Every point of the (tag, grid) streams, one from each in turn."""
    rows = zip(*[[(ident, point) for point in sweep_points(ident, grid)]
                 for ident, grid in streams])
    return list(chain.from_iterable(rows))


@pytest.mark.parametrize("streams", [
    # one shape's coordinates and grid under two tags: the tag is in the key
    ((IdentityId.F3, None), (IdentityId.F4, None)),
    # one tag's grid on two families, with every coordinate swept: the
    # family and each of n, c, r, s and d are in the key
    ((IdentityId.F6A, dataclasses.replace(default_grid(IdentityId.F6A),
                                          families=(FAMILIES["fibonacci"],))),
     (IdentityId.F6A, dataclasses.replace(default_grid(IdentityId.F6A),
                                          families=(FAMILIES["gibonacci31"],)))),
], ids=["F3-F4", "F6a-two-families"])
def test_interleaved_lines_equal_points_alone(streams, alone):
    keys = _interleaved(streams)
    assert len(keys) > 2 * LINE_CAP
    clear_line_memo()
    pairs = [(key, _fields(evaluate_point(key[0], *key[1]))) for key in keys]
    assert not _mismatches(pairs, alone)


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_memo_stays_bounded_and_keeps_only_numbers():
    clear_line_memo()
    reports = sweep(IdentityId.F6A) + sweep(IdentityId.F7)
    assert len(reports) > 100 * LINE_CAP
    lines = list(identities._LINES.values())
    assert 0 < len(lines) <= LINE_CAP
    kept = [leaf for line in lines for slot in type(line).__slots__
            for leaf in _leaves(getattr(line, slot))]
    assert any(isinstance(leaf, SumTerm) for leaf in kept)
    assert not any(isinstance(leaf, HoradamSequence) for leaf in kept)
    assert {type(leaf) for leaf in kept} <= {int, Fraction, str, SumTerm, type(None)}


def test_outside_domain_follows_the_reversed_sum_convention(alone):
    # at a_n < c the closed form is the nested sum with reversed limits read
    # as Karr's negated complement, summed by literal loops; this holds at
    # every outside_domain point of the default grids, not only where it is 0
    outside = nonzero = 0
    bad = []
    for (ident, point), report in alone.items():
        if report.classification != CLASS_OUTSIDE:
            continue
        outside += 1
        spec = lhs_spec(identities.IdentityInstance(ident, *point))
        expected = karr_nested_sum(spec.depth, spec.upper, report.c, summand_fn(spec.term))
        nonzero += expected != 0
        if report.rhs != expected:
            bad.append((ident.value, point, report.rhs, expected))
    assert not bad
    assert outside == 5575 and nonzero == 554
