"""Grid lines: a point reports the same on its line as alone.

``evaluate_line`` validates a grid line once, makes its a_n-free work (the
left-hand summand and the closed form's line part) once right after, and
builds its points from that one instance (``IdentityInstance._at``), each
carrying that work. Every report of a sweep must equal, field by field, the
report of the same point evaluated alone; only the measured times may
differ. An instance built alone keeps nothing, and a line whose parts raise
gives each point the report it gives alone.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _util import falling_binom, karr_nested_sum, summand_fn
import horadam_sums.identities as identities
from horadam_sums.identities import (CLASS_ERROR, CLASS_MISMATCH, CLASS_OUTSIDE, CLASS_SKIPPED,
                                     CLASS_VERIFIED, COORD_DEFAULTS, FAMILIES, IdentityId,
                                     IdentityInstance, SweepGrid, evaluate_line, evaluate_point,
                                     evaluate_rhs, fixed_family, iter_sweep, lhs_spec,
                                     sweep_points)
from horadam_sums.nestedcore import EvalCounter, SumTerm
from horadam_sums.sequences import HoradamSequence, horadam

_TIMES = ("oracle_ns", "closed_ns")
FIB = FAMILIES["fibonacci"]
_FIELDS = {field.name for field in dataclasses.fields(IdentityInstance)}


def _fields(report) -> tuple:
    return tuple(getattr(report, f.name) for f in dataclasses.fields(report)
                 if f.name not in _TIMES)


@pytest.fixture(scope="module")
def alone():
    """(tag, point) -> its report evaluated alone, for every point of every
    default grid."""
    return {(ident, point): evaluate_point(ident, *point)
            for ident in IdentityId for point in sweep_points(ident)}


def test_sweep_equals_point_alone_in_grid_order(alone):
    pairs = [((ident, point), _fields(report)) for ident in IdentityId
             for point, report in zip(sweep_points(ident), iter_sweep(ident))]
    assert len(pairs) == len(alone)
    assert not [(ident.value, point) for (ident, point), fields in pairs
                if fields != _fields(alone[ident, point])]


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _carried(inst) -> dict:
    """What an instance holds besides its eight fields."""
    return {name: value for name, value in vars(inst).items() if name not in _FIELDS}


def _points(monkeypatch, ident, params, a_values, coords) -> tuple:
    """The reports of one grid line and the points ``verify`` was given."""
    points = []
    real = identities.verify

    def recording(inst):
        points.append(inst)
        return real(inst)

    monkeypatch.setattr(identities, "verify", recording)
    return list(evaluate_line(ident, params, a_values=a_values, **coords)), points


@pytest.mark.parametrize("ident, params, coords", [
    (IdentityId.F6A, FAMILIES["gibonacci31"], dict(n=2, c=-1, r=2, s=2, d=1)),
    # F7's ratio and base read the sequence itself
    (IdentityId.F7, FAMILIES["generic"], dict(n=3, c=1, r=2, s=-1, d=1)),
], ids=["F6a", "F7"])
def test_line_keeps_only_numbers(ident, params, coords, monkeypatch):
    a_values = tuple(range(coords["c"] - 1, coords["c"] + 6))
    reports, points = _points(monkeypatch, ident, params, a_values, coords)
    assert [report.a_n for report in reports] == list(a_values)
    assert {report.classification for report in reports} == {CLASS_OUTSIDE, CLASS_VERIFIED}
    # one line's parts, the same objects at every point
    first = _carried(points[0])
    assert len(points) == len(a_values) and set(first) == {"_summand", "_closed"}
    assert all(_carried(point).keys() == first.keys()
               and all(point.__dict__[name] is part for name, part in first.items())
               for point in points)
    kept = list(_leaves(tuple(first.values())))
    assert any(isinstance(leaf, SumTerm) for leaf in kept)
    assert not any(isinstance(leaf, HoradamSequence) for leaf in kept)
    assert {type(leaf) for leaf in kept} <= {int, Fraction, SumTerm}


def test_instances_built_apart_share_nothing():
    # an instance built alone keeps no part, so two equal ones share none
    one, two = (IdentityInstance(IdentityId.F3, FIB, 3, 5, 1, 2, 0, 0) for _ in range(2))
    first, second = lhs_spec(one).term, lhs_spec(two).term
    assert one == two and first == second and first is not second


_ALONE = pytest.mark.parametrize("ident, params, coords", [
    (IdentityId.F3, FAMILIES["generic"], dict(n=3, c=-1, r=2, s=1, d=0)),
    (IdentityId.F6B, FAMILIES["negative_d"], dict(n=3, c=1, r=1, s=0, d=1)),
    # F7's ratio and base read the sequence itself
    (IdentityId.F7, FAMILIES["generic"], dict(n=3, c=1, r=2, s=-1, d=1)),
], ids=["F3", "F6b", "F7"])


@_ALONE
def test_instance_built_alone_keeps_only_its_fields(ident, params, coords):
    inst = IdentityInstance(ident, params, a_n=coords["c"] + 3, **coords)
    lhs_spec(inst)
    evaluate_rhs(inst)
    evaluate_rhs(inst, EvalCounter())
    assert set(vars(inst)) == _FIELDS and len(_FIELDS) == 8


@_ALONE
def test_call_without_a_counter_keeps_later_counts_whole(ident, params, coords):
    # a call without a counter tallies on a fresh one, so a later counted
    # call on the same instance adds every unit, as a fresh instance's does
    inst = IdentityInstance(ident, params, a_n=coords["c"] + 4, **coords)
    first = evaluate_rhs(inst)
    later, fresh = EvalCounter(), EvalCounter()
    value = evaluate_rhs(inst, later)
    alone = IdentityInstance(ident, params, a_n=coords["c"] + 4, **coords)
    assert first == value == evaluate_rhs(alone, fresh)
    assert later.count == fresh.count > coords["n"]


@pytest.mark.parametrize("ident, params, coords", [
    (IdentityId.F5, FAMILIES["generic"], dict(n=3, c=-1, r=2, s=1, d=1)),
    # F1a holds F5's tuple at a fixed (r, d)
    (IdentityId.F1A, None, dict(n=2, c=0, r=1, s=2, d=0)),
    (IdentityId.F7, FAMILIES["generic"], dict(n=3, c=1, r=2, s=-1, d=1)),
], ids=["F5", "F1a", "F7"])
def test_line_resolves_its_tuple_once(ident, params, coords, monkeypatch):
    # the ratio, base, index step and multiplier are free of a_n: one line
    # makes them once, however many points it has, and each point still
    # counts the units it uses, as it does alone
    record = identities._REGISTRY[ident]
    shape, calls = record.shape, []

    def counting(*args):
        calls.append(args)
        return shape.ratio_base(*args)

    monkeypatch.setitem(identities._REGISTRY, ident, dataclasses.replace(
        record, shape=dataclasses.replace(shape, ratio_base=counting)))
    a_values = tuple(range(coords["c"] - 1, coords["c"] + 6))
    reports = list(evaluate_line(ident, params, a_values=a_values, **coords))
    assert len(calls) == 1
    assert {report.classification for report in reports} == {CLASS_OUTSIDE, CLASS_VERIFIED}
    assert [report.closed_terms for report in reports] == [
        evaluate_point(ident, params, a_n=a_n, **coords).closed_terms for a_n in a_values]


@pytest.mark.parametrize("ident, params, coords, units", [
    (IdentityId.F3, FAMILIES["generic"], dict(n=3, c=-1, r=2, s=1, d=0), 0),
    # F7's ratio and base count three terms before they raise
    (IdentityId.F7, FAMILIES["generic"], dict(n=3, c=1, r=2, s=-1, d=1), 3),
], ids=["F3", "F7"])
def test_line_part_that_raises_gives_each_point_its_error(ident, params, coords, units,
                                                          monkeypatch):
    # the points of a line whose closed-form part raises carry nothing: each
    # makes its own parts and gives the error report, partial counts
    # included, that it gives built alone
    record = identities._REGISTRY[ident]
    real = record.shape.ratio_base

    def pole(inst, counter, r, d):
        real(inst, counter, r, d)
        raise ZeroDivisionError("a pole in the ratio")

    monkeypatch.setitem(identities._REGISTRY, ident, dataclasses.replace(
        record, shape=dataclasses.replace(record.shape, ratio_base=pole)))
    a_values = tuple(range(coords["c"] - 1, coords["c"] + 4))
    alone = [identities.verify(IdentityInstance(ident, params, a_n=a_n, **coords))
             for a_n in a_values]
    reports, points = _points(monkeypatch, ident, params, a_values, coords)
    assert [_fields(report) for report in reports] == [_fields(report) for report in alone]
    assert not any(_carried(point) for point in points)
    assert all(report.classification == CLASS_ERROR and report.detail == "a pole in the ratio"
               and report.closed_terms == units for report in reports)
    assert any(report.oracle_terms for report in reports)


@pytest.mark.parametrize("ident, params, coords", [
    # a fixed-family tag given no family: the report names the fixed one
    (IdentityId.H, None, dict(n=2, c=2, r=1, s=0, d=0)),
    (IdentityId.F6A, FIB, dict(n=3, c=1, r=1, s=0, d=0)),
    (IdentityId.F3_W, FAMILIES["integer_root"], dict(n=1, c=1, r=1, s=0, d=0)),
    (IdentityId.F5, FIB, dict(n=2, c=1, r=1, s=0, d=-1)),
], ids=["H-fixed-form", "F6a-parity", "F3_w-restricted", "F5-r+d"])
def test_invalid_line_gives_each_point_its_skip(ident, params, coords):
    a_values = (coords["c"] - 2, coords["c"], coords["c"] + 4)
    reports = list(evaluate_line(ident, params, a_values=a_values, **coords))
    assert reports == [evaluate_point(ident, params, a_n=a_n, **coords) for a_n in a_values]
    assert all(report.classification == CLASS_SKIPPED and report.detail
               and report.params is not None for report in reports)


def test_empty_line_gives_no_reports():
    assert list(evaluate_line(IdentityId.F3, FIB, 2, (), 1, 1, 0, 0)) == []


@pytest.mark.parametrize("ident, params", [(IdentityId.H, None), (IdentityId.F3, FIB)],
                         ids=["H", "F3"])
def test_point_on_a_line_equals_one_built_alone(ident, params, monkeypatch):
    coords = dict(n=2, c=1, r=1, s=0, d=0)
    _, points = _points(monkeypatch, ident, params, (-1, 3, 7), coords)
    for point in points:
        built = IdentityInstance(ident, params, a_n=point.a_n, **coords)
        assert point == built and hash(point) == hash(built) and repr(point) == repr(built)
        # the point carries its line's parts, which one built alone does not
        assert _carried(point) and _carried(point) == _carried(points[0])
        assert not _carried(built)


def test_point_on_a_line_refuses_a_non_int():
    line = IdentityInstance(IdentityId.F3, FIB, 2, 3)
    with pytest.raises(TypeError, match="a_n must be an int"):
        line._at(2.0)


@pytest.mark.parametrize("n_values", [(1,), (0,)], ids=["valid-line", "invalid-line"])
def test_non_int_a_value_refused_by_sweep(n_values):
    grid = SweepGrid(families=(FIB,), n_values=n_values, a_values=(1, 2.0))
    with pytest.raises(TypeError, match="a_n must be an int"):
        list(iter_sweep(IdentityId.F3, grid))


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


# a random rational family's parts: numerators -7..7 over 1, 2, 3 or 5
_family_parts = st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 5)))


@st.composite
def _random_points(draw) -> tuple:
    """A point (tag, family, n, a_n, c, r, s, d) of a random tag: a random
    rational family, None for a fixed tag, with p = 1 (and q = -1) where the
    tag's family shape needs it, n of the tag's parity, and each coordinate
    the tag does not read at its default."""
    ident = draw(st.sampled_from(list(IdentityId)))
    record = identities._REGISTRY[ident]
    params = None
    if fixed_family(ident) is None:
        p = 1 if record.family else draw(_family_parts.filter(bool))
        q = -1 if record.family == identities._GIBONACCI else draw(_family_parts.filter(bool))
        params = horadam(draw(_family_parts), draw(_family_parts), p, q)
    n = draw(st.sampled_from([n for n in range(1, 5)
                              if record.parity is None or n % 2 == record.parity]))
    ranges = dict(c=st.integers(-3, 3), r=st.sampled_from((-3, -2, -1, 1, 2, 3)),
                  s=st.integers(-4, 4), d=st.integers(-3, 3))
    coords = {name: draw(ranges[name]) if name in record.shape.dims else default
              for name, default in COORD_DEFAULTS.items()}
    return ident, params, n, draw(st.integers(coords["c"] - 3, coords["c"] + 8)), *coords.values()


@settings(max_examples=1000, deadline=None)
@given(point=_random_points())
def test_random_points_agree_or_follow_the_reversed_sum(point):
    # on families and coordinates no default grid holds, a point alone never
    # mismatches or fails, and outside the domain it is Karr's reversed sum
    report = evaluate_point(*point)
    assert report.classification not in (CLASS_MISMATCH, CLASS_ERROR), (point, report.detail)
    if report.classification == CLASS_OUTSIDE:
        spec = lhs_spec(IdentityInstance(*point))
        assert report.rhs == karr_nested_sum(spec.depth, spec.upper, report.c,
                                             summand_fn(spec.term)), point


_nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
# a term as its int pair: any nonzero denominator, of either sign, unreduced
_pairs = st.tuples(st.integers(-30, 30), st.integers(-24, 24).filter(bool))


@settings(max_examples=200, deadline=None)
@given(ratio_n=_nonzero, base=_nonzero, t=st.just((1, 1)) | _pairs,
       coefficients=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=4),
       den=st.integers(1, 10 ** 4), a=st.integers(-7, 9), c=st.integers(-3, 3),
       s=st.integers(-3, 3), step=st.integers(-2, 2), mul=st.integers(-2, 2))
@example(ratio_n=Fraction(-2, 7), base=Fraction(-5, 3), t=(1, 1), coefficients=[3, -4], den=6,
         a=-1, c=1, s=0, step=1, mul=1)
@example(ratio_n=Fraction(-2, 7), base=Fraction(-5, 3), t=(9, -4), coefficients=[3, -4],
         den=6, a=0, c=1, s=0, step=1, mul=1)
@example(ratio_n=Fraction(-2, 7), base=Fraction(-5, 3), t=(-18, 8), coefficients=[3, -4],
         den=6, a=1, c=-2, s=2, step=2, mul=-1)
# far a: the numerator carries the base denominator's primes below, at and
# past their multiplicity in bd = v**a (2 and 3 in 6**300)
@example(ratio_n=Fraction(-2, 7), base=Fraction(1, 6), t=(2 ** 150 * 3 ** 7 * 5, 1),
         coefficients=[3, -4], den=6, a=300, c=1, s=0, step=1, mul=1)
@example(ratio_n=Fraction(-5, 7), base=Fraction(1, 6), t=(6 ** 300, 1), coefficients=[0],
         den=1, a=300, c=1, s=0, step=1, mul=1)
@example(ratio_n=Fraction(3, 7), base=Fraction(1, 6), t=(2 ** 400 * 3 ** 100, -1),
         coefficients=[0], den=1, a=300, c=-2, s=1, step=2, mul=-1)
# a < 0 with u < 0: the root is u, bd = u**251 is negative, and 2 is past
# its multiplicity
@example(ratio_n=Fraction(-2, 7), base=Fraction(-12, 5), t=(2 ** 600 * 3 ** 40 * 7, -9),
         coefficients=[3, -4], den=6, a=-251, c=1, s=0, step=1, mul=1)
# v = 1, a = 0, and a zero from the cancellation of two 200-bit products
@example(ratio_n=Fraction(-2, 7), base=Fraction(3), t=(9, -4), coefficients=[3, -4], den=6,
         a=200, c=1, s=0, step=1, mul=1)
@example(ratio_n=Fraction(-2, 7), base=Fraction(-5, 3), t=(2 ** 10, 6), coefficients=[5],
         den=4, a=0, c=2, s=0, step=1, mul=1)
@example(ratio_n=Fraction(1), base=Fraction(1, 2), t=(2 ** 200, 1), coefficients=[3], den=3,
         a=200, c=1, s=0, step=1, mul=1)
def test_point_part_is_the_plain_formula(ratio_n, base, t, coefficients, den, a, c, s, step, mul):
    # the point finishes on ints; the plain Fraction formula, with the
    # binomials from their definition, must agree for either sign of a, in
    # lowest terms over a positive denominator
    n = len(coefficients)
    calls = []

    def term(inst, counter, e, k):
        calls.append((inst, counter, e, k))
        return t

    point = SimpleNamespace(n=n, a_n=a, c=c, s=s)
    counter = EvalCounter(5)
    part = (ratio_n.numerator, ratio_n.denominator, base.numerator, base.denominator,
            tuple(coefficients), den)
    value = identities._lifted_point(point, counter, part, step, mul, term)
    dot = sum(k * falling_binom(a + j - c, j) for j, k in enumerate(coefficients))
    assert type(value) is Fraction
    assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1
    assert value == ratio_n * base ** a * Fraction(*t) - Fraction(dot, den)
    assert calls == [(point, counter, n, step * n + mul * a + s)] and counter.count == 5 + n


@settings(max_examples=300, deadline=None)
@given(k=st.integers(-10 ** 6, 10 ** 6), small=st.integers(-10 ** 4, 10 ** 4).filter(bool),
       root=st.integers(-60, 60).filter(bool), e=st.integers(0, 40), m=st.integers(0, 50))
@example(k=5, small=-7, root=12, e=3, m=3)
@example(k=-3, small=9, root=-12, e=3, m=7)
@example(k=0, small=4, root=6, e=5, m=0)
def test_point_reduction_is_the_normalised_fraction(k, small, root, e, m):
    # the numerator k * root**m carries root's primes below, at or past
    # their multiplicity in root**e; the reduced pair is Fraction's own
    num, big = k * root ** m, root ** e
    value = identities._lifted_reduced(num, small, root, e, big)
    expected = Fraction(num, small * big)
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def _plain_line(point, ratio, base, step, mul, term):
    """K and D of the line part from plain ``Fraction`` products: the
    coefficients over their least common denominator."""
    n, c, s = point.n, point.c, point.s
    counter = EvalCounter()
    coefficients = [base ** (c - 1) * ratio ** (n - j)
                    * Fraction(*term(point, counter, n - j, step * (n - j) + mul * (c - 1) + s))
                    for j in range(n)]
    den = lcm(*(k.denominator for k in coefficients))
    return tuple(k.numerator * (den // k.denominator) for k in coefficients), den


@settings(max_examples=200, deadline=None)
@given(ratio=_nonzero, base=_nonzero, terms=st.lists(_pairs, min_size=8, max_size=8),
       n=st.integers(1, 4), c=st.integers(-4, 4), s=st.integers(-3, 3),
       step=st.integers(-2, 2), mul=st.integers(-2, 2))
@example(ratio=Fraction(-2, 7), base=Fraction(-5, 3), terms=[(9, -4)] * 8, n=3, c=-1, s=0,
         step=1, mul=1)
@example(ratio=Fraction(3, 2), base=Fraction(-1, 2), terms=[(0, -3), (5, -10)] * 4, n=2,
         c=0, s=1, step=2, mul=-1)
def test_line_part_is_the_plain_formula(ratio, base, terms, n, c, s, step, mul):
    # int pairs in, ints out: the ratio and the base come as the reduced
    # pairs of their Fractions, c - 1 < 0 swaps the base, negative base
    # numerators and term denominators carry their signs, and the least
    # common denominator is the plain one
    def term(inst, counter, e, k):
        return terms[(e * 3 + k) % len(terms)]

    point = SimpleNamespace(n=n, c=c, s=s)
    part = identities._lifted_line(point, EvalCounter(), ratio.as_integer_ratio(),
                                   base.as_integer_ratio(), step, mul, term)
    assert all(type(x) is int for x in _leaves(part))
    ratio_num, ratio_den, u, v, coefficients, den = part
    assert Fraction(ratio_num, ratio_den) == ratio ** n and (u, v) == base.as_integer_ratio()
    assert (coefficients, den) == _plain_line(point, ratio, base, step, mul, term)


@pytest.mark.parametrize("ident, n", [(IdentityId.F6A, 2), (IdentityId.F6B, 3)], ids=["F6a", "F6b"])
@pytest.mark.parametrize("c", [-1, 1])
def test_f6_line_part_at_negative_discriminant(ident, n, c):
    # D = -3: an odd power of D puts a negative numerator in a term's
    # denominator; the line part is still the plain one, and the points verify
    params = FAMILIES["negative_d"]
    assert params.discriminant < 0
    captured = []
    real = identities._lifted_line

    def capturing(inst, counter, ratio, base, step, mul, term):
        part = real(inst, counter, ratio, base, step, mul, term)
        captured.append((ratio, base, step, mul, term, part))
        return part

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_lifted_line", capturing)
        reports = list(evaluate_line(ident, params, n, tuple(range(c - 1, c + 5)), c, 1, 0, 1))
    assert {report.classification for report in reports} == {CLASS_OUTSIDE, CLASS_VERIFIED}
    # one line part for the line's six points
    (ratio, base, step, mul, term, part), = captured
    line = IdentityInstance(ident, params, n, c, c, 1, 0, 1)
    assert any(term(line, EvalCounter(), e, 0)[1] < 0 for e in (1, 3))
    ratio_num, ratio_den, u, v, coefficients, den = part
    assert (coefficients, den) == _plain_line(line, Fraction(*ratio), Fraction(*base), step,
                                              mul, term)
