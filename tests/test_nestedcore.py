"""Oracles and geometric closed forms for nested sums."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _util import binet_route, literal_nested_sum, summand_fn
import horadam_sums.combinatorics as combinatorics
import horadam_sums.nestedcore as nestedcore
from horadam_sums.combinatorics import nested_ones
from horadam_sums.exactnum import QuadExt
from horadam_sums.identities import (CLASS_ERROR, FAMILIES, IdentityId, IdentityInstance,
                                     verify)
from horadam_sums.nestedcore import (ONES, EvalCounter, NaiveCapExceededError,
                                     NestedSumSpec, PoleError, SumTerm, f_closed,
                                     geometric_term, master_E, oracle_nested,
                                     oracle_nested_naive)
from horadam_sums.sequences import FIBONACCI, horadam

GENERIC = horadam(2, 5, 1, 3)
INTEGER_ROOT = horadam(1, 4, 3, 2)  # q = 2: W[-1] = -1/2, W[-2] = -5/4


class TestSumTerm:
    def test_ones(self):
        assert ONES.value(17) == 1

    def test_sequence_with_index_map(self):
        summand = SumTerm(seq=FIBONACCI, index_mul=3, index_add=2)
        assert summand.value(2) == 21  # F[8]

    def test_weight_and_alternation(self):
        # an alternating weight is a negative base
        summand = SumTerm(seq=FIBONACCI, weight_base=Fraction(-1, 2))
        assert summand.value(3) == -Fraction(2, 8)

    def test_negative_index_weight(self):
        summand = geometric_term(Fraction(2))
        assert summand.value(-3) == Fraction(1, 8)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            SumTerm(weight_base=Fraction(0))

    def test_unit_base_kept_as_a_field(self):
        unit = SumTerm(seq=FIBONACCI, weight_base=Fraction(1))
        plain = SumTerm(seq=FIBONACCI)
        assert unit.weight_base == 1 and unit != plain
        assert repr(unit) == repr(plain).replace("weight_base=None", "weight_base=Fraction(1, 1)")
        for k in range(-4, 5):
            assert unit.value(k) == plain.value(k) == unit.value(k, Fraction(1))

    @pytest.mark.parametrize("base", [QuadExt(1, 1, 5), QuadExt(3, 0, 5), 1.5, "2", True, False])
    def test_non_rational_weight_rejected(self, base):
        # the oracles add Fractions only; a root-power base belongs to master_E.
        # A bool is an int to isinstance, but True is no base 1 and False no
        # zero base
        with pytest.raises(TypeError):
            SumTerm(weight_base=base)

    @pytest.mark.parametrize("coords", [{"index_mul": 1.5}, {"index_add": 1.0},
                                        {"index_mul": Fraction(2)}])
    def test_non_int_index_map_rejected(self, coords):
        # a float key 3.0 would read the int key 3: F[3] for index_mul=1.5 at k=2
        with pytest.raises(TypeError):
            SumTerm(seq=FIBONACCI, **coords)

    @pytest.mark.parametrize("field", ["index_mul", "index_add"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_index_map_rejected(self, field, flag):
        # a bool is an int to isinstance, but not an index map
        with pytest.raises(TypeError, match=f"^{field} must be an int, not bool"):
            SumTerm(seq=FIBONACCI, **{field: flag})


@settings(max_examples=150, deadline=None)
@given(base=st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda x: x != 0),
       seq=st.none() | st.sampled_from([FIBONACCI, horadam(2, 5, 1, 3),
                                        horadam(1, Fraction(1, 2), Fraction(-1, 3), 2)]),
       k=st.integers(-12, 12))
def test_value_with_weight_matches_power(base, seq, k):
    """value(k, base**k) is value(k) exactly."""
    summand = SumTerm(seq=seq, index_mul=2, index_add=-1, weight_base=base)
    plain = summand.value(k)
    weighted = summand.value(k, base ** k)
    assert type(weighted) is type(plain) is Fraction
    assert weighted == plain


@settings(max_examples=200, deadline=None)
@given(base=st.none() | st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
           lambda x: x != 0),
       seq=st.none() | st.sampled_from([FIBONACCI, GENERIC, INTEGER_ROOT,
                                        horadam(1, Fraction(1, 2), Fraction(-1, 3), 2)]),
       index_mul=st.integers(-2, 3), k=st.integers(-12, 12),
       weight=st.integers(-10 ** 6, 10 ** 6))
@example(base=Fraction(3), seq=INTEGER_ROOT, index_mul=1, k=0, weight=2)
@example(base=Fraction(3), seq=INTEGER_ROOT, index_mul=1, k=0, weight=3)
def test_value_is_linear_in_an_int_weight(base, seq, index_mul, k, weight):
    """value(k, w) is value(k) * w / weight_base**k for an int w, as the oracle
    passes it; with no sequence that is the weight itself, and a summand
    without a base, or with a base of 1, reads only the weight's type and
    gives value(k). Either way an int weight gives an int exactly when the
    value is integral: an integral term takes the int product, or none, and
    a non-integral one (W[j] at negative j when |q| != 1, as INTEGER_ROOT's
    W[-1] = -1/2, or over rational p, q) a Fraction product that may still
    be integral."""
    summand = SumTerm(seq=seq, index_mul=index_mul, index_add=-1, weight_base=base)
    weighted = summand.value(k, weight)
    if base is None or base == 1:
        expected = summand.value(k)
        assert weighted == expected
        assert type(weighted) is (int if expected.denominator == 1 else Fraction)
    else:
        expected = summand.value(k) * weight / base ** k
        assert weighted == expected
        assert type(weighted) is (int if expected.denominator == 1 else Fraction)
        if seq is None:
            assert weighted == weight


@settings(max_examples=200, deadline=None)
@given(seq=st.none() | st.sampled_from([FIBONACCI, GENERIC, INTEGER_ROOT,
                                        horadam(1, Fraction(1, 2), Fraction(-1, 3), 2)]),
       index_mul=st.integers(-3, 3),
       index_add=st.integers(-4, 4), k=st.integers(-12, 12),
       weight=st.integers(-10 ** 30, 10 ** 30))
@example(seq=INTEGER_ROOT, index_mul=1, index_add=0, k=-1, weight=1)   # W[-1] = -1/2
@example(seq=INTEGER_ROOT, index_mul=1, index_add=0, k=2, weight=7)    # W[2] = 10
@example(seq=None, index_mul=1, index_add=0, k=3, weight=0)
def test_no_base_int_weight_gives_the_exact_term(seq, index_mul, index_add, k, weight):
    """Without a base, an int weight of any size is read for its type alone:
    value(k, w) is W[mk+s] (1 with no sequence), an int exactly when that
    is integral, and value(k) is the same value as a Fraction."""
    summand = SumTerm(seq=seq, index_mul=index_mul, index_add=index_add)
    expected = summand_fn(summand)(k)
    value = summand.value(k, weight)
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)
    plain = summand.value(k)
    assert plain == expected and type(plain) is Fraction


class TestSpec:
    def test_uniform_limits_broadcast(self):
        spec = NestedSumSpec(3, 5, 1, ONES)
        assert spec.lower_limits == (1, 1, 1)

    def test_per_level_limits(self):
        spec = NestedSumSpec(2, 5, (0, 1), ONES)
        assert spec.lower_limits == (0, 1)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            NestedSumSpec(3, 5, (1, 2), ONES)

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            NestedSumSpec(0, 5, 1, ONES)

    @pytest.mark.parametrize("args,field", [
        ((True, 5, 1), "depth"), ((2.0, 5, 1), "depth"),
        ((2, 5.0, 1), "upper"), ((2, False, 1), "upper"), ((2, Fraction(5), 1), "upper"),
        ((2, 5, 1.0), "lower_limits"), ((2, 5, True), "lower_limits"),
        ((2, 5, (0, 1.5)), "lower_limits"), ((2, 5, (True, 0)), "lower_limits")])
    def test_non_int_shape_rejected(self, args, field):
        # unchecked, a float upper limit fails only inside the chain counts,
        # and a bool counts as 0 or 1
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            NestedSumSpec(*args, ONES)


class TestMasterClosedForm:
    def test_depth_one(self):
        # 2 + 4 + 8 = 14, scaled by (x-1)/x = 1/2
        assert master_E(Fraction(2), 1, 3, 1) == 7

    def test_single_term_sum(self):
        x = Fraction(5, 3)
        c = 2
        assert master_E(x, 1, c, c) == (x - 1) / x * x ** c

    def test_depth_two(self):
        assert master_E(Fraction(3), 2, 2, 1) == Fraction(20, 3)

    def test_poles_rejected(self):
        for x in (Fraction(0), Fraction(1)):
            with pytest.raises(PoleError):
                master_E(x, 2, 3, 1)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            master_E(Fraction(2), 0, 3, 1)

    @pytest.mark.parametrize("x", [Fraction(2), Fraction(3), Fraction(1, 2),
                                   Fraction(-2), Fraction(5, 3)])
    def test_equals_scaled_oracle(self, x):
        ratio = (x - 1) / x
        for n, c in product(range(1, 5), (-2, 0, 1, 3)):
            for a_n in range(c, c + 8):
                spec = NestedSumSpec(n, a_n, c, geometric_term(x))
                assert master_E(x, n, a_n, c) == ratio ** n * oracle_nested(spec)

    def test_quad_ext_argument(self):
        tau = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        ratio = (tau - 1) / tau
        nested = literal_nested_sum(2, 4, 1, lambda k: tau ** k)
        assert master_E(tau, 2, 4, 1) == ratio ** 2 * nested


class TestFandG:
    def test_f_depth_one(self):
        assert f_closed(Fraction(2), Fraction(1), 1, 3, 1) == 14

    def test_f_single_term(self):
        assert f_closed(Fraction(1), Fraction(2), 1, 1, 1) == Fraction(1, 2)

    def test_f_pole(self):
        with pytest.raises(PoleError):
            f_closed(Fraction(2), Fraction(2), 1, 3, 1)
        with pytest.raises(PoleError):
            f_closed(Fraction(0), Fraction(2), 1, 3, 1)
        # not a bare ZeroDivisionError from x / y in master_E
        with pytest.raises(PoleError, match="nonzero"):
            f_closed(Fraction(2), Fraction(0), 1, 3, 1)

    @pytest.mark.parametrize("x,y", [(Fraction(3), Fraction(2)), (Fraction(1), Fraction(3)),
                                     (Fraction(-2), Fraction(5)), (Fraction(1, 2), Fraction(3))])
    def test_f_equals_oracle(self, x, y):
        for n, c in product(range(1, 4), (0, 1, 2)):
            for a_n in range(c, c + 6):
                spec = NestedSumSpec(n, a_n, c, geometric_term(x / y))
                assert f_closed(x, y, n, a_n, c) == oracle_nested(spec)


class TestOracles:
    def test_fibonacci_double_sum(self):
        spec = NestedSumSpec(2, 3, 1, SumTerm(seq=FIBONACCI))
        assert oracle_nested(spec) == 7  # F[7] - F[4] - 3

    def test_empty_outermost(self):
        spec = NestedSumSpec(3, 0, 1, SumTerm(seq=FIBONACCI))
        assert oracle_nested(spec) == 0
        assert oracle_nested_naive(spec) == 0

    def test_ones_matches_closed_count(self):
        for depth, c in product(range(1, 5), (-2, 0, 1)):
            for upper in range(c - 1, c + 9):
                spec = NestedSumSpec(depth, upper, c, ONES)
                assert oracle_nested(spec) == nested_ones(depth, upper, c)

    def test_naive_count_example(self):
        counter = EvalCounter()
        spec = NestedSumSpec(3, 6, 1, ONES)
        value = oracle_nested_naive(spec, counter=counter)
        assert value == 56 and counter.count == 56  # C(8, 3)

    def test_cap_enforced(self):
        spec = NestedSumSpec(6, 40, 1, ONES)
        with pytest.raises(NaiveCapExceededError):
            oracle_nested_naive(spec, cap=1000)

    def test_dp_matches_naive_and_literal(self):
        terms = [ONES,
                 SumTerm(seq=FIBONACCI),
                 SumTerm(seq=GENERIC, index_mul=2, index_add=-1),
                 geometric_term(Fraction(3, 2)),
                 geometric_term(Fraction(2)),
                 SumTerm(seq=FIBONACCI, index_mul=1, weight_base=Fraction(1, 2))]
        for summand in terms:
            for depth, c in product(range(1, 4), (-1, 1)):
                for upper in range(c - 2, c + 6):
                    spec = NestedSumSpec(depth, upper, c, summand)
                    dp = oracle_nested(spec)
                    assert dp == oracle_nested_naive(spec)
                    assert dp == literal_nested_sum(depth, upper, c, summand.value)

    def test_varied_limits_against_literal(self):
        summand = SumTerm(seq=FIBONACCI)
        for limits in [(1, 2), (2, 1), (0, 1, 2), (2, 0, 1), (-1, 1, 0)]:
            for upper in range(-1, 7):
                spec = NestedSumSpec(len(limits), upper, limits, summand)
                expected = literal_nested_sum(len(limits), upper, limits, summand.value)
                assert oracle_nested(spec) == expected
                assert oracle_nested_naive(spec) == expected

    @pytest.mark.parametrize("x", [Fraction(2), Fraction(-3), Fraction(2, 5)])
    def test_varied_limits_geometric(self, x):
        # per-level limit profiles, the last two crossing, over x**k
        summand = geometric_term(x)
        limit_sets = [(1,), (0, 2), (2, 1), (1, 1, 3), (-1, -2, 0), (0, 1, 2, 1), (2, 0),
                      (3, 0, 1)]
        for limits in limit_sets:
            n = len(limits)
            for upper in range(min(limits) - 2, max(limits) + 5):
                spec = NestedSumSpec(n, upper, limits, summand)
                expected = literal_nested_sum(n, upper, limits, summand.value)
                assert oracle_nested(spec) == expected
                assert oracle_nested_naive(spec) == expected

    @pytest.mark.parametrize("lo", (-3, 0, 2))
    def test_base_power_at_the_innermost_limit(self, lo):
        # the oracle scales by base**lo in its final ints: a base power with
        # the wrong sign, or a dropped one, misses the enumeration
        for seq, base in product((None, GENERIC), (None, 3, Fraction(-2), Fraction(3, 5),
                                                   Fraction(-7, 4))):
            summand = SumTerm(seq=seq, weight_base=base)
            for limits in ((lo,), (lo, lo - 1, lo + 1)):
                spec = NestedSumSpec(len(limits), lo + 4, limits, summand)
                value = oracle_nested(spec)
                assert type(value) is Fraction and value == oracle_nested_naive(spec)

    def test_dp_eval_count_linear(self):
        counter = EvalCounter()
        spec = NestedSumSpec(4, 13, 1, ONES)
        oracle_nested(spec, counter=counter)
        assert counter.count == 4 * 13


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_small = small_rationals.filter(lambda x: x != 0)


def _enumerated_chain_counts(limits, upper):
    """How many index chains k = a_0 <= a_1 <= ... <= a_{n-1} <= upper, with
    each a_i >= limits[i], start at each k from limits[0] to upper, by
    walking every chain from the outermost index in."""
    counts = Counter()

    def walk(level, top):
        for a in range(limits[level], top + 1):
            if level == 0:
                counts[a] += 1
            else:
                walk(level - 1, a)

    walk(len(limits) - 1, upper)
    return [counts[k] for k in range(limits[0], upper + 1)]


@settings(max_examples=300, deadline=None)
@given(limits=st.lists(st.integers(-3, 6), min_size=1, max_size=5), upper=st.integers(-5, 9))
@example(limits=[1, 1, 1], upper=4)
@example(limits=[-2, 0, 5], upper=4)
@example(limits=[4, 2, 0], upper=3)
@example(limits=[2, 3], upper=1)
def test_chain_counts_enumerate_the_chains(limits, upper):
    # per-level and crossing limits, and upper limits below them
    assert nestedcore._chain_counts(tuple(limits), upper) \
        == _enumerated_chain_counts(limits, upper)


@st.composite
def count_shapes(draw):
    """(limits, upper) up to depth 8 and a range of 2,000: limits all equal,
    outer ones below the innermost (both counted by binomials), crossing
    limits, or an outer limit above ``upper``, over ranges that may be empty."""
    depth = draw(st.integers(1, 8))
    lo = draw(st.integers(-60, 60))
    upper = lo - 1 + draw(st.integers(-3, 2000))
    kind = draw(st.sampled_from(("uniform", "below", "crossing", "above")))
    outer = {"uniform": st.just(lo), "below": st.integers(lo - 40, lo),
             "crossing": st.integers(lo - 40, lo + 40),
             "above": st.integers(upper + 1, upper + 5)}[kind]
    limits = (lo, *draw(st.lists(outer, min_size=depth - 1, max_size=depth - 1)))
    return limits, upper


@settings(max_examples=200, deadline=None)
@given(shape=count_shapes())
@example(shape=((3,) * 8, 2002))
@example(shape=((0, -5, 0, -1), -1))
@example(shape=((2, 2, 2, 9), 8))
def test_binomial_counts_equal_the_passes(shape):
    # the naive oracle's cap keeps it far from these sizes, so this is the
    # only check of the binomial route at deep-oracle scale
    limits, upper = shape
    passes = nestedcore._suffix_counts(limits, upper)
    if len(limits) > 2 and max(limits) == limits[0]:
        with patch.object(nestedcore, "_suffix_counts", side_effect=AssertionError):
            counts = nestedcore._chain_counts(limits, upper)
    else:
        counts = nestedcore._chain_counts(limits, upper)
    assert counts == passes
    assert all(type(m) is int for m in counts)
    if sum(passes) <= 3000:
        assert counts == _enumerated_chain_counts(limits, upper)


@pytest.mark.parametrize("depth", range(1, 9))
def test_oracle_counts_share_no_binomial_with_the_closed_forms(depth, monkeypatch):
    # the counts come from math.comb or their own passes, never from the
    # binomial of the closed forms they are compared with
    def refuse(*args):
        raise AssertionError("the oracle called the closed forms' binomial")

    monkeypatch.setattr(combinatorics, "binom", refuse)
    monkeypatch.setattr(nestedcore, "binom", refuse)
    summand = SumTerm(seq=GENERIC, weight_base=Fraction(-2, 3))
    for limits in ((1,) * depth, tuple(range(2, 2 - depth, -1)), (1, *range(3, 3 + depth - 1))):
        upper = 2 + 12 // depth
        spec = NestedSumSpec(depth, upper, limits, summand)
        assert oracle_nested(spec) == literal_nested_sum(depth, upper, limits, summand.value)


@st.composite
def kernel_specs(draw):
    """Small nested sums over every summand shape, with per-level limits that
    may cross, an upper limit that may fall below them, and negative indices."""
    depth = draw(st.integers(1, 4))
    limits = tuple(draw(st.lists(st.integers(-4, 4), min_size=depth, max_size=depth)))
    upper = draw(st.integers(-6, 8))
    seq = draw(st.none() | st.builds(horadam, small_rationals, small_rationals,
                                     nonzero_small, nonzero_small))
    weight = draw(st.none() | nonzero_small)
    summand = SumTerm(seq=seq, index_mul=draw(st.integers(-2, 3)),
                      index_add=draw(st.integers(-3, 3)), weight_base=weight)
    return NestedSumSpec(depth, upper, limits, summand)


# Fixed cases for the shapes a random draw may miss: crossing limits, an
# upper limit below level 0's own (the total is zero), below a middle level's
# (that level adds nothing) or below the outermost (nothing is evaluated),
# a negative index_add under per-level limits and a negative lower limit.
KERNEL_CASES = (
    NestedSumSpec(3, 1, (3, -2, 1), geometric_term(Fraction(-3, 2))),
    NestedSumSpec(3, 3, (0, 5, 1), SumTerm(seq=FIBONACCI)),
    NestedSumSpec(2, 3, (0, 5), SumTerm(seq=FIBONACCI)),
    NestedSumSpec(4, 6, (-3, 2, -1, 0),
                  SumTerm(seq=GENERIC, index_mul=-1, weight_base=Fraction(2, 3))),
    NestedSumSpec(3, 5, (1, -2, 2), SumTerm(seq=GENERIC, index_add=-4,
                                             weight_base=Fraction(-5, 3))),
    NestedSumSpec(2, 4, (2, 0), geometric_term(Fraction(3, 2))),
    NestedSumSpec(1, 3, -2, SumTerm(seq=FIBONACCI, weight_base=Fraction(-2, 7))),
    # denominators that do not divide one another, so the common denominator
    # takes an lcm: a sequence over rational p, q at negative indices, weighted
    NestedSumSpec(3, 4, (-5, -1, -2),
                  SumTerm(seq=horadam(1, 2, Fraction(1, 2), Fraction(3, 4)),
                          weight_base=Fraction(-3, 2))),
    # a middle level's limit above the upper limit, the outermost's below it:
    # every chain count is zero, and the zero is a Fraction
    NestedSumSpec(4, 4, (0, 2, 6, 1), SumTerm(seq=GENERIC, weight_base=Fraction(1, 2))),
    # an int weight base (v = 1) under a negative lower limit, alternating
    NestedSumSpec(3, 3, (-3, -1, 0), SumTerm(seq=GENERIC, index_add=1, weight_base=-3)),
    # unweighted, over rational p, q at negative indices: the lcm with v = 1
    NestedSumSpec(2, 1, -6, SumTerm(seq=horadam(1, 2, Fraction(1, 2), Fraction(3, 4)))),
    # |u| > 1 and v > 1 on a one-index range
    NestedSumSpec(2, 2, (2, -1), SumTerm(seq=GENERIC, weight_base=Fraction(-5, 3))),
    # W[2], W[0], W[-2], W[-4], W[-6] of q = 2 at a rational base: the int
    # weights 2**(k + 1) give int values 10, 2, -5 (the last from the
    # non-integral -5/4), then -29/2 and -125/4, so the lcm follows an int run
    NestedSumSpec(3, 3, (-1, 0, -1), SumTerm(seq=INTEGER_ROOT, index_mul=-2,
                                              weight_base=Fraction(2, 3))),
    # Long ranges, folded by blocks of nestedcore._BLOCK = 32 indices where
    # there is a base, at depth 2 at most so the enumeration stays cheap. A
    # range of exactly one full block, at |u| > 1 and v > 1, over Fraction
    # terms at negative indices under rational p, q
    NestedSumSpec(1, 31, 0, SumTerm(seq=horadam(1, 2, Fraction(1, 2), Fraction(3, 4)),
                                    index_mul=-1, weight_base=Fraction(-5, 3))),
    # no base, which the oracle folds with no blocks: W[40] down to W[-60]
    # of q = 2 are ints until k = 1, where the common denominator first
    # grows; the outer level starts later
    NestedSumSpec(2, 60, (-40, -35), SumTerm(seq=INTEGER_ROOT, index_mul=-1)),
    # no base the other way: W[-300] up to W[300] of q = 2 are Fractions
    # until k = 0, so the ints after them join a total whose denominator is
    # not 1
    NestedSumSpec(1, 300, -300, SumTerm(seq=INTEGER_ROOT)),
    # W[-1] = -1/2 alone makes the common denominator 2, and every value
    # after it, in its block and the next, is an int
    NestedSumSpec(2, 40, (-1, 2), SumTerm(seq=INTEGER_ROOT, weight_base=Fraction(3, 2))),
    # uniform limits, and outer limits below the innermost one, at depth 3
    # and more: the chain counts are binomials
    NestedSumSpec(3, 25, (5, -2, 5), SumTerm(seq=FIBONACCI)),
    NestedSumSpec(4, 9, 2, SumTerm(seq=GENERIC, weight_base=Fraction(-5, 3))),
    NestedSumSpec(5, 7, (1, 0, -3, 1, 0), SumTerm(seq=INTEGER_ROOT, index_add=-3,
                                                  weight_base=Fraction(2, 3))),
    # u = -1 with v = 1 over 2 blocks, the second partial; the outer level
    # starts later
    NestedSumSpec(2, 40, (-5, 3), SumTerm(seq=FIBONACCI, index_add=2, weight_base=-1)),
    # u = -1 with v = 3 over 3 blocks, the last partial
    NestedSumSpec(2, 75, 0, SumTerm(seq=GENERIC, weight_base=Fraction(-1, 3))),
    # an int base with |u| > 1: 3 blocks with a sequence, the last of one
    # index, then 4 full blocks with none
    NestedSumSpec(1, 50, -14, SumTerm(seq=GENERIC, index_mul=2, weight_base=-3)),
    NestedSumSpec(2, 124, (-3, 0), geometric_term(Fraction(2))),
    # a rational base with |u| > 1 and v > 1 over 3 blocks, the last
    # partial: W[35] down to W[-40] of q = 2 are ints until k = 1, in the
    # second block, and times odd weights (-5)**(k - s) they stay Fractions
    NestedSumSpec(2, 40, (-35, -37), SumTerm(seq=INTEGER_ROOT, index_mul=-1,
                                              weight_base=Fraction(-5, 3))),
    # over rational p, q from W[-42] up, 3 blocks with the limits crossing:
    # every value is a Fraction, the common denominator takes an lcm at every
    # index and grows again mid-way through the second block
    NestedSumSpec(2, 30, (-45, -50), SumTerm(seq=horadam(1, 2, Fraction(1, 2), Fraction(3, 4)),
                                              index_add=3, weight_base=Fraction(7, 2))),
)


def _check_kernel(spec):
    counter = EvalCounter()
    fast = oracle_nested(spec, counter=counter)
    slow = oracle_nested_naive(spec, cap=None)
    assert type(fast) is type(slow) is Fraction
    assert fast == slow
    limits = spec.lower_limits
    expected_count = (sum(max(0, spec.upper - limit + 1) for limit in limits)
                      if spec.upper >= limits[-1] else 0)
    assert counter.count == expected_count


class TestIntegerKernel:
    """The chain-count kernel against the Fraction-only enumeration."""

    @pytest.mark.parametrize("spec", KERNEL_CASES)
    def test_fixed_cases_match_naive(self, spec):
        _check_kernel(spec)

    @settings(max_examples=150, deadline=None)
    @given(spec=kernel_specs())
    def test_matches_naive(self, spec):
        _check_kernel(spec)


# (p, q) with two distinct nonzero rational roots, so D is a rational square,
# or any (p, q) with D != 0
# (p, q) with rational roots: distinct ones (a square D) or one repeated (D = 0)
_square_pq = st.lists(nonzero_small, min_size=2, max_size=2).map(
    lambda roots: (roots[0] + roots[1], roots[0] * roots[1])).filter(lambda pq: pq[0] != 0)
_repeated_pq = nonzero_small.map(lambda root: (2 * root, root * root))
_any_pq = st.tuples(nonzero_small, nonzero_small)


@st.composite
def route_specs(draw):
    """Nested sums with one lower limit and an upper limit from c - 1 up,
    over every summand shape ``identities.lhs_spec`` builds."""
    depth = draw(st.integers(1, 4))
    c = draw(st.integers(-3, 3))
    upper = draw(st.integers(c - 1, c + 6))
    seq = draw(st.none() | st.builds(lambda a, b, pq: horadam(a, b, *pq), small_rationals,
                                     small_rationals, _square_pq | _repeated_pq | _any_pq))
    summand = SumTerm(seq=seq, index_mul=draw(st.integers(-2, 3)),
                      index_add=draw(st.integers(-3, 3)),
                      weight_base=draw(st.none() | nonzero_small))
    return NestedSumSpec(depth, upper, c, summand)


class TestBinetRoute:
    """The root-power route of ``tests/_util.py`` on the shapes the default
    grids never reach, against the plain-Fraction enumeration."""

    @settings(max_examples=100, deadline=None)
    @given(spec=route_specs())
    # integer_root has D = 1 and sigma = 1, so y - 1 = tau - 1 is a zero divisor
    @example(spec=NestedSumSpec(3, 6, 1, SumTerm(seq=FAMILIES["integer_root"])))
    # roots 2 and 1/2 (D = 9/4) and w = 2: 2*sigma = 1, a zero divisor again
    @example(spec=NestedSumSpec(2, 4, -1, SumTerm(seq=horadam(3, -1, Fraction(5, 2), 1),
                                                  index_add=-2, weight_base=Fraction(2))))
    # D = 0 with root 1/2 and w = 2: y = 2*tau = 1 + delta is 1 plus a nilpotent
    @example(spec=NestedSumSpec(3, 5, 0, SumTerm(seq=horadam(2, -1, 1, Fraction(1, 4)),
                                                 index_add=1, weight_base=Fraction(2))))
    def test_matches_naive(self, spec):
        assert binet_route(spec) == oracle_nested_naive(spec)

    def test_repeated_root_matches_naive(self):
        # the arithmetic progression 1, 3, 5, ...: (p, q) = (2, 1), D = 0, and
        # y = tau = 1 + delta/2, one plus a nilpotent, at index steps 1 and 2
        for step in (1, 2):
            spec = NestedSumSpec(2, 3, 1, SumTerm(seq=horadam(1, 3, 2, 1), index_mul=step))
            assert binet_route(spec) == oracle_nested_naive(spec)

    def test_per_level_limits_refused(self):
        with pytest.raises(ValueError, match="one lower limit"):
            binet_route(NestedSumSpec(2, 3, (0, 1), SumTerm(seq=FIBONACCI)))


class TestSummandCalls:
    """The oracle calls ``SumTerm.value`` exactly once per index of the
    innermost range, in order, on ranges of one block and of several: the
    benchmark's traced run checks its oracle terms against depth times these
    calls, and a batch summand path would break that. Each call passes an
    int weight, so no index costs a normalised ``Fraction`` power, and an
    index whose sequence term is integral gets an int back and builds no
    ``Fraction`` at all, with a base or without one. The weight
    is a power of the base's numerator that restarts at each block, so it
    is bounded by the block, not by the range."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        value = SumTerm.value

        def counted(summand, k, weight=None):
            seen.append((k, weight))
            return value(summand, k, weight)

        monkeypatch.setattr(SumTerm, "value", counted)
        return seen

    @pytest.mark.parametrize("spec", KERNEL_CASES)
    def test_one_call_per_index(self, spec, calls):
        oracle_nested(spec)
        limits = spec.lower_limits
        indices = range(limits[0], spec.upper + 1) if spec.upper >= limits[-1] else ()
        assert [k for k, _ in calls] == list(indices)

    @pytest.mark.parametrize("spec", KERNEL_CASES)
    def test_weights_are_ints(self, spec, calls):
        oracle_nested(spec)
        for _, weight in calls:
            assert type(weight) is int

    @pytest.mark.parametrize("spec", KERNEL_CASES)
    def test_weights_are_bounded_by_the_block(self, spec, calls):
        oracle_nested(spec)
        if spec.term.weight_base not in (None, 1):
            bound = abs(spec.term.weight_base.numerator) ** (nestedcore._BLOCK - 1)
            assert all(abs(weight) <= bound for _, weight in calls)

    def test_no_call_when_outermost_sum_is_empty(self, calls):
        spec = NestedSumSpec(3, 4, (-2, 0, 5), SumTerm(seq=FIBONACCI, weight_base=Fraction(2)))
        assert oracle_nested(spec) == 0
        assert calls == []

    def test_raising_summand_leaves_partial_count(self, monkeypatch):
        value = SumTerm.value
        pole = 3

        def fails_at_pole(summand, k, weight=None):
            if k == pole:
                raise ZeroDivisionError(f"summand pole at k = {k}")
            return value(summand, k, weight)

        monkeypatch.setattr(SumTerm, "value", fails_at_pole)
        # F3 over Fibonacci at n = 2, c = 1: indices 1, 2 are made before the pole
        report = verify(IdentityInstance(IdentityId.F3, FIBONACCI, 2, 6, 1, 1, 0, 0))
        assert report.classification == CLASS_ERROR
        assert report.oracle_terms == 2 and report.closed_terms == 0
        assert "k = 3" in report.detail
        # at r = 2 the weight base is 1/V_2 = 1/3, and a_n = 80 makes 3 blocks:
        # a pole in the second block leaves the 39 values made before it
        pole = 40
        report = verify(IdentityInstance(IdentityId.F3, FIBONACCI, 2, 80, 1, 2, 0, 0))
        assert report.classification == CLASS_ERROR
        assert report.oracle_terms == 39 and report.closed_terms == 0
        assert "k = 40" in report.detail


class TestNaiveStandsAlone:
    """The enumeration sizes itself against its cap with no call into the
    kernel it checks and no summand call, then calls ``SumTerm.value`` once
    per index tuple, so its values owe nothing to ``oracle_nested``."""

    @staticmethod
    def _without_kernel(monkeypatch) -> list:
        def kernel(*args, **kwargs):
            raise AssertionError("the enumeration ran oracle_nested")

        seen = []
        value = SumTerm.value

        def counted(summand, k, weight=None):
            seen.append(k)
            return value(summand, k, weight)

        monkeypatch.setattr(nestedcore, "oracle_nested", kernel)
        monkeypatch.setattr(SumTerm, "value", counted)
        return seen

    # crossing limits, a middle level above the upper limit, the upper limit
    # below the outermost's, every chain count zero, and one level
    @pytest.mark.parametrize("spec", [KERNEL_CASES[i] for i in (0, 1, 2, 8, 6)])
    def test_values_at_the_default_cap(self, spec, monkeypatch):
        expected = oracle_nested(spec)
        tuples = sum(_enumerated_chain_counts(spec.lower_limits, spec.upper))
        calls = self._without_kernel(monkeypatch)
        counter = EvalCounter()
        value = oracle_nested_naive(spec, counter=counter)
        assert type(value) is Fraction and value == expected
        assert len(calls) == counter.count == tuples

    def test_long_range_refused_in_bounded_memory(self, monkeypatch):
        # 2,000,001 indices each head a chain: refused on that bound alone,
        # with no chain-count list of the range's length
        spec = NestedSumSpec(3, 2_000_000, 0)
        calls = self._without_kernel(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(NaiveCapExceededError) as refused:
                oracle_nested_naive(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(refused.value) == ("at least 2000001 summand evaluations exceed "
                                      f"the naive cap {nestedcore.DEFAULT_NAIVE_CAP}")
        assert calls == []

    def test_a_limit_past_the_upper_one_counts_no_tuple(self, monkeypatch):
        # a middle level above the upper limit leaves no chain, however long
        # the innermost range; a cap of 0 still admits it
        spec = NestedSumSpec(3, 2_000_000, (0, 2_000_001, 0))
        calls = self._without_kernel(monkeypatch)
        assert oracle_nested_naive(NestedSumSpec(3, 50, (0, 51, 0)), cap=0) == 0
        with pytest.raises(NaiveCapExceededError, match="^0 summand evaluations exceed"):
            oracle_nested_naive(spec, cap=-1)
        assert calls == []

    def test_refusal_makes_no_summand_call(self, monkeypatch):
        spec = NestedSumSpec(6, 40, 1, SumTerm(seq=FIBONACCI))
        calls = self._without_kernel(monkeypatch)
        with pytest.raises(NaiveCapExceededError) as refused:
            oracle_nested_naive(spec)
        assert str(refused.value) == (f"{nested_ones(6, 40, 1)} summand evaluations exceed "
                                      f"the naive cap {nestedcore.DEFAULT_NAIVE_CAP}")
        assert calls == []
