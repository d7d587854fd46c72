"""Oracles and geometric closed forms for nested sums."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _util import binet_route, literal_nested_sum
from horadam_sums.combinatorics import nested_ones
from horadam_sums.exactnum import DegenerateDiscriminantError, QuadExt
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

    @pytest.mark.parametrize("base", [QuadExt(1, 1, 5), QuadExt(3, 0, 5), 1.5, "2"])
    def test_non_rational_weight_rejected(self, base):
        # the oracles add Fractions only; a root-power base belongs to master_E
        with pytest.raises(TypeError):
            SumTerm(weight_base=base)

    @pytest.mark.parametrize("coords", [{"index_mul": 1.5}, {"index_add": 1.0},
                                        {"index_mul": Fraction(2)}])
    def test_non_int_index_map_rejected(self, coords):
        # a float key 3.0 would read the int key 3: F[3] for index_mul=1.5 at k=2
        with pytest.raises(TypeError):
            SumTerm(seq=FIBONACCI, **coords)


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
    without a base, or with a base of 1, reads no weight and gives a Fraction.
    A weight read gives an int exactly when the value is integral: an integral
    term takes the int product, and a non-integral one (W[j] at negative j
    when |q| != 1, as INTEGER_ROOT's W[-1] = -1/2, or over rational p, q) a
    Fraction product that may still be integral."""
    summand = SumTerm(seq=seq, index_mul=index_mul, index_add=-1, weight_base=base)
    weighted = summand.value(k, weight)
    if base is None or base == 1:
        assert weighted == summand.value(k)
        assert type(weighted) is Fraction
    else:
        expected = summand.value(k) * weight / base ** k
        assert weighted == expected
        assert type(weighted) is (int if expected.denominator == 1 else Fraction)
        if seq is None:
            assert weighted == weight


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
_square_pq = st.lists(nonzero_small, min_size=2, max_size=2, unique=True).map(
    lambda roots: (roots[0] + roots[1], roots[0] * roots[1])).filter(lambda pq: pq[0] != 0)
_any_pq = st.tuples(nonzero_small, nonzero_small).filter(lambda pq: pq[0] ** 2 != 4 * pq[1])


@st.composite
def route_specs(draw):
    """Nested sums with one lower limit and an upper limit from c - 1 up,
    over every summand shape ``identities.lhs_spec`` builds."""
    depth = draw(st.integers(1, 4))
    c = draw(st.integers(-3, 3))
    upper = draw(st.integers(c - 1, c + 6))
    seq = draw(st.none() | st.builds(lambda a, b, pq: horadam(a, b, *pq), small_rationals,
                                     small_rationals, _square_pq | _any_pq))
    summand = SumTerm(seq=seq, index_mul=draw(st.integers(-2, 3)),
                      index_add=draw(st.integers(-3, 3)),
                      weight_base=draw(st.none() | nonzero_small))
    return NestedSumSpec(depth, upper, c, summand)


class TestBinetRoute:
    """The root-power route of ``tests/_util.py`` on the shapes the default
    grids never reach, against the plain-Fraction enumeration."""

    @settings(max_examples=100, deadline=None)
    @given(spec=route_specs())
    # integer_root has D = 1 and sigma = 1, so one half of the split sum is
    # the nested sum of 1**k
    @example(spec=NestedSumSpec(3, 6, 1, SumTerm(seq=FAMILIES["integer_root"])))
    def test_matches_naive(self, spec):
        assert binet_route(spec) == oracle_nested_naive(spec)

    def test_repeated_root_refused(self):
        with pytest.raises(DegenerateDiscriminantError):
            binet_route(NestedSumSpec(2, 3, 1, SumTerm(seq=horadam(1, 3, 2, 1))))

    def test_per_level_limits_refused(self):
        with pytest.raises(ValueError, match="one lower limit"):
            binet_route(NestedSumSpec(2, 3, (0, 1), SumTerm(seq=FIBONACCI)))


class TestSummandCalls:
    """The oracle calls ``SumTerm.value`` exactly once per index of the
    innermost range, in order: the benchmark's traced run checks its oracle
    terms against depth times these calls, and a batch summand path would
    break that. Each call passes an int weight (None when the summand reads
    none), so no index costs a normalised ``Fraction`` power, and an index
    whose sequence term is integral gets an int back and builds no
    ``Fraction`` at all."""

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
            if spec.term.weight_base in (None, 1):
                assert weight is None
            else:
                assert type(weight) is int

    def test_no_call_when_outermost_sum_is_empty(self, calls):
        spec = NestedSumSpec(3, 4, (-2, 0, 5), SumTerm(seq=FIBONACCI, weight_base=Fraction(2)))
        assert oracle_nested(spec) == 0
        assert calls == []

    def test_raising_summand_leaves_partial_count(self, monkeypatch):
        value = SumTerm.value

        def fails_at_three(summand, k, weight=None):
            if k == 3:
                raise ZeroDivisionError("summand pole at k = 3")
            return value(summand, k, weight)

        monkeypatch.setattr(SumTerm, "value", fails_at_three)
        # F3 over Fibonacci at n = 2, c = 1: indices 1, 2 are made before the pole
        report = verify(IdentityInstance(IdentityId.F3, FIBONACCI, 2, 6, 1, 1, 0, 0))
        assert report.classification == CLASS_ERROR
        assert report.oracle_terms == 2 and report.closed_terms == 0
        assert "k = 3" in report.detail
