"""Exact rational and quadratic-extension arithmetic."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horadam_sums.exactnum import (DivisionByZeroError, MismatchedDiscriminantError,
                                   QuadExt, ZeroToNegativePowerError)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
nonzero_rationals = rationals.filter(lambda x: x != 0)
discs = st.sampled_from([Fraction(5), Fraction(-3), Fraction(1), Fraction(13, 4), Fraction(0)])


def quad(disc):
    return st.builds(QuadExt, rationals, rationals, st.just(disc))


class TestRationalOps:
    def test_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_mul_annihilator(self):
        assert Fraction(7, 11) * Fraction(0) == 0

    def test_sub_inverse(self):
        assert Fraction(7, 3) - Fraction(7, 3) == 0

    def test_div(self):
        assert Fraction(3, 4) / Fraction(2) == Fraction(3, 8)

    def test_canonical_form(self):
        result = Fraction(2, 4) + Fraction(1, 6)
        assert result.denominator > 0
        from math import gcd
        assert gcd(result.numerator, result.denominator) == 1


class TestQuadExtBasics:
    def test_root_product_and_sum(self):
        # roots of x^2 - x - 1 (p=1, q=-1, D=5): product q, sum p
        tau = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        sigma = QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
        assert tau * sigma == -1
        assert tau + sigma == 1

    def test_additive_identity(self):
        x = QuadExt(Fraction(3, 7), 0, 5)
        assert x + QuadExt(0, 0, 5) == x

    def test_self_division(self):
        x = QuadExt(1, 1, 5)
        assert x / x == 1

    def test_zero_iff_both_parts_zero(self):
        assert not QuadExt(0, 0, 5)
        assert QuadExt(0, 1, 5)
        assert QuadExt(1, 0, 5)

    def test_zero_disc_is_the_dual_numbers(self):
        # at D = 0 delta is nilpotent: delta**2 = 0, (1 + delta)**-1 = 1 - delta,
        # and delta itself, of norm 0, has no inverse
        delta = QuadExt.sqrt(0)
        assert delta and delta * delta == 0 and delta.norm() == 0
        assert (1 + delta) ** -1 == 1 - delta == 1 / (1 + delta)
        with pytest.raises(DivisionByZeroError, match="zero norm"):
            1 / delta

    def test_mismatched_disc_rejected(self):
        with pytest.raises(MismatchedDiscriminantError):
            QuadExt(1, 1, 5) + QuadExt(1, 1, 7)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            QuadExt(1, 1, 5) / QuadExt(0, 0, 5)

    def test_zero_divisor_not_invertible(self):
        # with D = 1 the ring has zero divisors: (1 + sqrt(1)) has norm 0
        zd = QuadExt(1, 1, 1)
        assert zd  # nonzero element
        assert zd.norm() == 0
        with pytest.raises(DivisionByZeroError):
            QuadExt(1, 0, 1) / zd

    def test_rational_equality_across_discs(self):
        assert QuadExt(3, 0, 5) == QuadExt(3, 0, -3) == Fraction(3) == 3
        assert hash(QuadExt(3, 0, 5)) == hash(Fraction(3))

    def test_int_coercion(self):
        x = QuadExt(1, 2, 5)
        assert 1 + x == QuadExt(2, 2, 5)
        assert 2 * x == QuadExt(2, 4, 5)
        assert x - 1 == QuadExt(0, 2, 5)
        assert 6 / QuadExt(1, 1, 5) == QuadExt(Fraction(-3, 2), Fraction(3, 2), 5)

    def test_str(self):
        assert str(QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)) == "1/2 - 1/2*sqrt(5)"
        assert str(QuadExt(2, 0, 5)) == "2"

    def test_repr(self):
        assert repr(QuadExt(Fraction(1, 2), -3, 5)) == "QuadExt(1/2, -3, disc=5)"

    def test_missing_discriminant_is_a_type_error(self):
        with pytest.raises(TypeError, match="explicit discriminant"):
            QuadExt(1, 2)

    def test_irrational_hash_is_structural(self):
        x = QuadExt(1, 2, 5)
        assert hash(x) == hash(QuadExt(Fraction(3, 3), Fraction(4, 2), 5))
        assert len({x, QuadExt(1, 2, 5), QuadExt(1, 2, 7), QuadExt(1, -2, 5)}) == 3

    @pytest.mark.parametrize("other", [object(), 0.5], ids=["object", "float"])
    @pytest.mark.parametrize("method", ["__eq__", "__add__", "__radd__", "__sub__", "__rsub__",
                                        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                                        "__pow__"])
    def test_an_inexact_operand_is_not_implemented(self, method, other):
        # only ints, Fractions and QuadExt combine; anything else, a float
        # too, is left to the other operand, so Python refuses the mix
        x = QuadExt(1, 2, 5)
        assert getattr(x, method)(other) is NotImplemented
        if method == "__eq__":
            assert x != other and other != x
        elif method.startswith("__r"):
            with pytest.raises(TypeError):
                getattr(operator, method.replace("__r", "__"))(other, x)
        else:
            with pytest.raises(TypeError):
                getattr(operator, method)(x, other)


class TestQuadExtPow:
    def test_golden_ratio_square(self):
        # ((1 + sqrt5)/2)^2 = (3 + sqrt5)/2, i.e. tau^2 = tau + 1
        tau = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        assert tau ** 2 == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
        assert tau ** 2 == tau + 1

    def test_zeroth_power(self):
        assert QuadExt(9, 9, 5) ** 0 == 1
        assert QuadExt(0, 0, 5) ** 0 == 1

    def test_negative_root_inverse(self):
        # sigma(1,-1) = -1/tau(1,-1): sigma^-1 == -tau
        tau = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        sigma = QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
        assert sigma ** -1 == -tau

    def test_zero_to_negative_rejected(self):
        with pytest.raises(ZeroToNegativePowerError):
            QuadExt(0, 0, 5) ** -2

    @given(disc=discs, u=rationals, v=rationals, e=st.integers(-6, 6))
    @settings(max_examples=120)
    def test_pow_matches_repeated_multiplication(self, disc, u, v, e):
        x = QuadExt(u, v, disc)
        if e < 0 and x.norm() == 0:
            return  # not invertible (zero, or a zero divisor for square D)
        expected = QuadExt(1, 0, disc)
        for _ in range(abs(e)):
            expected = expected * x
        if e < 0:
            expected = QuadExt(1, 0, disc) / expected
        assert x ** e == expected


class TestQuadExtAlgebra:
    @given(disc=discs, data=st.data())
    @settings(max_examples=120)
    def test_mul_commutative_and_distributive(self, disc, data):
        x = data.draw(quad(disc))
        y = data.draw(quad(disc))
        z = data.draw(quad(disc))
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(disc=discs, data=st.data())
    @settings(max_examples=120)
    def test_conjugation_is_multiplicative(self, disc, data):
        x = data.draw(quad(disc))
        y = data.draw(quad(disc))
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(disc=discs, data=st.data())
    @settings(max_examples=80)
    def test_division_inverts_multiplication(self, disc, data):
        x = data.draw(quad(disc))
        y = data.draw(quad(disc))
        if y.norm() == 0:
            return
        assert (x * y) / y == x

    @given(p=nonzero_rationals, q=nonzero_rationals)
    @settings(max_examples=120)
    def test_characteristic_roots(self, p, q):
        disc = p * p - 4 * q
        half = Fraction(1, 2)
        tau = QuadExt(p * half, half, disc)
        sigma = QuadExt(p * half, -half, disc)
        assert tau + sigma == p
        assert tau * sigma == q

