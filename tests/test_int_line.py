"""A grid line is set up on ints.

Every closed form's ratio and base are reduced int pairs, given with its
index step and multiplier by one function and built from the int pairs of
U_j, V_j and q**j and from the exact terms W_j; the preconditions
test those ints for zero, and each summand builds its one ``Fraction``
weight base from ints, apart from the closed form's base. So on an integral
family the instance and the closed form at a line's first point run no
``Fraction`` code at all. The line part reads its terms from the far end, so
a cold window walks once, and F6's odd term reads its two terms off one
index-doubling ladder.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from math import gcd

import fractions
import pytest

from _util import walk_terms
from test_identities import RATIONAL_FAMILIES, RATIONAL_TAGS, rational_grid
import horadam_sums.identities as identities
from horadam_sums.identities import (FAMILIES, IdentityId, IdentityInstance,
                                     InvalidInstanceError, evaluate_rhs, sweep_lines, _REGISTRY)
from horadam_sums.nestedcore import EvalCounter
from horadam_sums.sequences import (HoradamSequence, horadam, lucas_first_kind,
                                    lucas_second_kind)


@lru_cache(maxsize=None)
def _walked(params):
    return walk_terms(params, -40, 40)


def _uvw(params):
    """U, V and W of ``params`` from plain recurrence walks."""
    return (_walked(lucas_first_kind(params.p, params.q)),
            _walked(lucas_second_kind(params.p, params.q)), _walked(params))


def _display(inst, r, d):
    """The (ratio, base, step, mul) of the instance's closed form as the
    displays give them, the ratio and base in Fraction arithmetic on walked
    U, V and W."""
    u, v, w = _uvw(inst.params)
    q, s = inst.params.q, inst.s
    ratio_base = _REGISTRY[inst.identity].shape.ratio_base
    if ratio_base is identities._f3_ratio_base:
        return -1 / q ** r, 1 / v[r], 2 * r, r
    if ratio_base is identities._f4_ratio_base:
        return 1 / v[r], -1 / q ** r, r, 2 * r
    if ratio_base is identities._f5_ratio_base:
        return -u[d] / (u[r] * q ** d), u[d] / u[r + d], r + d, r
    if ratio_base is identities._f6_ratio_base:
        return v[d] / (u[r] * q ** d), v[d] / v[r + d], r + d, r
    assert ratio_base is identities._f7_ratio_base
    lead = q * u[r - d] * w[s + d - 1]
    return -lead / w[r + s], lead / (u[r - d + 1] * w[s + d]), 0, 0


def _valid_lines():
    """One instance per valid line of every tag's default grid and, for a
    tag without a fixed family, of its rational grid."""
    for ident in IdentityId:
        grids = (None, rational_grid(ident)) if ident in RATIONAL_TAGS else (None,)
        for grid in grids:
            for params, n, a_values, c, r, s, d in sweep_lines(ident, grid):
                try:
                    yield IdentityInstance(ident, params, n, a_values[0], c, r, s, d)
                except InvalidInstanceError:
                    pass


def _is_reduced(pair) -> bool:
    num, den = pair
    return type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1


def test_ratio_and_base_are_the_displays_reduced():
    # every tag at every valid line of its default grid and on the rational
    # families: the int pairs are the displays' Fractions in lowest terms
    # over a positive denominator, given with the displays' index step and
    # multiplier
    checked = set()
    for inst in _valid_lines():
        shape = _REGISTRY[inst.identity].shape
        r, d = shape.at or (inst.r, inst.d)
        *pairs, step, mul = shape.ratio_base(inst, EvalCounter(), r, d)
        ratio, base, *index = _display(inst, r, d)
        assert all(_is_reduced(pair) for pair in pairs), (inst, pairs)
        assert pairs == [ratio.as_integer_ratio(), base.as_integer_ratio()], inst
        assert [step, mul] == index, inst
        checked.add((inst.identity, inst.params in RATIONAL_FAMILIES.values()))
    assert {ident for ident, _ in checked} == set(IdentityId)
    assert {ident for ident, rational in checked if rational} == set(RATIONAL_TAGS)


def _fraction_calls(run, caller=None) -> list:
    """The names of the ``fractions`` functions ``run()`` calls, only those
    called straight from ``caller``'s file when it is given."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__ and (
                caller is None or frame.f_back.f_code.co_filename == caller):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _all_terms_integral(params) -> bool:
    """Integral a, b and p with q = +-1: every term, at either sign of the
    index, is an integer."""
    return params.q in (1, -1) and all(
        x.denominator == 1 for x in (params.a, params.b, params.p))


# lines of integral families with |q| > 1 that read no term below index 0,
# each at a far point, as the benchmark's large-index requests are
_FAR_LINES = [(ident, FAMILIES[name], n, 1, r, s, d)
              for ident, n, r, s, d in ((IdentityId.F3, 3, 2, 1, 0), (IdentityId.F4, 2, 3, 0, 0),
                                        (IdentityId.F5, 3, 2, 2, 1), (IdentityId.F6A, 2, 2, 0, 1),
                                        (IdentityId.F6B, 3, 2, 1, 2), (IdentityId.F7, 2, 2, 1, 1))
              for name in ("integer_root", "generic")]


@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
def test_first_point_runs_no_fraction_code(cold, monkeypatch):
    # the instance and its closed form at a line's first point, near and far
    # (a far point reads its term off the ladder, and F6 at odd n a pair):
    # no Fraction constructor, operator or property runs on a family whose
    # terms are all integers, whether its window is warm or every sequence
    # is new
    seen = set()
    lines = [(line.identity, line.params, line.n, line.a_n, line.c, line.r, line.s, line.d)
             for line in _valid_lines() if _all_terms_integral(line.params)]
    for ident, params, n, a_n, c, r, s, d in lines + [
            (ident, params, n, c, c, r, s, d) for ident, params, n, c, r, s, d in _FAR_LINES]:
        for point in ((ident, params, n, a_n, c, r, s, d), (ident, params, n, c + 700, c, r, s, d)):
            if cold:
                monkeypatch.setattr(HoradamSequence, "_shared", OrderedDict())
            assert _fraction_calls(lambda: evaluate_rhs(IdentityInstance(*point))) == [], point
        seen.add(ident)
    assert seen == set(IdentityId)


# the summand's weight base, built from ints: none for H (no base), F1 (no
# base) and F2 (the int -1, which SumTerm itself takes in)
_NO_BUILT_BASE = {IdentityId.H, IdentityId.F1A, IdentityId.F1B, IdentityId.F2A, IdentityId.F2B}


def test_summand_builds_one_fraction_from_ints():
    # the left-hand display's weight base is the one Fraction constructor
    # the shape's summand function calls, and no other Fraction code runs
    # from it, on every line of a family whose terms are all integers
    seen = set()
    for inst in _valid_lines():
        if _all_terms_integral(inst.params):
            summand = _REGISTRY[inst.identity].shape.summand
            calls = _fraction_calls(lambda: summand(inst), caller=identities.__file__)
            assert calls == ([] if inst.identity in _NO_BUILT_BASE else ["__new__"]), inst
            seen.add(inst.identity)
    assert seen == set(IdentityId)


# lines whose n = 3 terms grow away from the seeds with e, the farthest
# within reach of the seeds' window: F3 at step 2r = 20, F5 and F6 at
# step r + d = 20, each with one fresh integral family
_GROWING = [(IdentityId.F3, dict(c=1, r=10, s=0, d=0)),
            (IdentityId.F5, dict(c=1, r=10, s=1, d=10)),
            (IdentityId.F6B, dict(c=1, r=9, s=0, d=11)),
            (IdentityId.F3, dict(c=1, r=-10, s=0, d=0))]


@pytest.mark.parametrize("ident, coords", _GROWING, ids=["F3", "F5", "F6b", "F3-down"])
def test_cold_line_part_walks_once(ident, coords, monkeypatch):
    # the line part reads its farthest term first: one walk reaches it and
    # stores the nearer ones, where reading them nearest first walks n times
    params = horadam(3, -2, 2, -3)
    monkeypatch.setattr(HoradamSequence, "_shared", OrderedDict())
    walks, real_walk, real_line = [], HoradamSequence._walk, identities._lifted_line

    def walk(self, j):
        walks.append(j)
        return real_walk(self, j)

    def line(*args):
        walks.clear()
        part = real_line(*args)
        line.walks = list(walks)
        return part

    monkeypatch.setattr(HoradamSequence, "_walk", walk)
    monkeypatch.setattr(identities, "_lifted_line", line)
    inst = IdentityInstance(ident, params, 3, coords["c"] + 900, **coords)
    value = evaluate_rhs(inst)
    shape = _REGISTRY[ident].shape
    step, mul = shape.ratio_base(inst, EvalCounter(), inst.r, inst.d)[2:]
    shift = mul * (inst.c - 1) + inst.s
    farthest = step * 3 + shift + (1 if ident is IdentityId.F6B else 0)
    assert line.walks == [farthest]
    assert HoradamSequence.of(params)._memo == range(min(0, farthest), max(1, farthest) + 1)
    # the point's own term lies far out, off the ladder, and is not walked to
    assert walks == [farthest]
    assert value == evaluate_rhs(IdentityInstance(ident, params, 3, inst.a_n, **coords))


@pytest.mark.parametrize("params", [FAMILIES["generic"], RATIONAL_FAMILIES[None]],
                         ids=["integral", "rational"])
@pytest.mark.parametrize("k", [5, 6000, -7, -6000], ids=["near", "far", "negative", "far-negative"])
@pytest.mark.parametrize("e", [1, 3])
def test_f6_odd_term_is_the_two_term_form(params, k, e):
    # 2*W[k+1] - p*W[k] off one pair read is the display's W[k+1] - q*W[k-1],
    # over D**ceil(e/2), and counts the display's two terms
    inst = IdentityInstance(IdentityId.F6B, params, 1, 1, 1, 1, 0, 0)
    sequence = HoradamSequence.of(params)
    counter = EvalCounter(3)
    num, den = identities._f6_term(inst, counter, e, k)
    expected = (sequence.term(k + 1) - params.q * sequence.term(k - 1)) \
        / params.discriminant ** ((e + 1) // 2)
    assert type(num) is int and type(den) is int and Fraction(num, den) == expected
    assert counter.count == 5
