"""Recurrence sequences, Binet views and the root-shift residuals."""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _util import fib_list, walk_terms
from horadam_sums.exactnum import DegenerateDiscriminantError, QuadExt
from horadam_sums.sequences import (COMPANIONS_CAP, FIBONACCI, LUCAS, SHARED_CAP,
                                    WALK_GAP, WINDOW_CAP, BinetView,
                                    HoradamSequence, _companions, doubled_term,
                                    first_kind_term, gibonacci, horadam,
                                    lemma3_residual, lemma4_residual,
                                    lucas_first_kind, lucas_second_kind,
                                    restricted, second_kind_term, term)

TEST_PQ = [(Fraction(1), Fraction(-1)), (Fraction(3), Fraction(2)),
           (Fraction(1), Fraction(1)), (Fraction(1), Fraction(3)),
           (Fraction(2), Fraction(3)), (Fraction(-2), Fraction(5, 3))]


class TestParams:
    def test_zero_p_rejected(self):
        with pytest.raises(ValueError):
            horadam(1, 1, 0, 1)

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            horadam(1, 1, 1, 0)

    def test_aliases_normalize(self):
        assert lucas_first_kind(1, -1) == FIBONACCI
        assert lucas_second_kind(1, -1) == LUCAS
        assert gibonacci(0, 1) == FIBONACCI
        assert restricted(2, 1, -1) == LUCAS

    def test_discriminant(self):
        assert horadam(1, 1, 3, 2).discriminant == 1
        assert FIBONACCI.discriminant == 5

    def test_cached_discriminant_is_not_a_field(self):
        params = horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3))
        assert params.discriminant == Fraction(25, 4) + Fraction(8, 3)
        assert [f.name for f in fields(params)] == ["a", "b", "p", "q"]
        assert params == horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3))
        assert params != horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(2, 3))
        assert hash(params) == hash((params.a, params.b, params.p, params.q))
        assert repr(params) == ("HoradamParams(a=Fraction(3, 2), b=Fraction(-1, 1), "
                                "p=Fraction(5, 2), q=Fraction(-2, 3))")


class TestTerm:
    def test_fibonacci(self):
        assert term(FIBONACCI, 7) == 13
        assert [term(FIBONACCI, j) for j in range(8)] == fib_list(8)

    def test_seed(self):
        params = horadam(Fraction(5, 3), 2, 1, 3)
        assert term(params, 0) == Fraction(5, 3)
        assert term(params, 1) == 2

    def test_negative_index(self):
        # backward recurrence: F[-1]=1, F[-2]=-1, F[-3]=2
        assert term(FIBONACCI, -3) == 2

    def test_lucas(self):
        assert term(LUCAS, 4) == 7

    def test_negative_index_with_fractional_q(self):
        params = horadam(1, 4, 3, 2)
        # 3*W[0] - W[1] = 2*W[-1]
        assert term(params, -1) == (3 * 1 - 4) / Fraction(2)

    @pytest.mark.parametrize("p,q", TEST_PQ)
    def test_recurrence_window(self, p, q):
        params = horadam(Fraction(3, 2), -1, p, q)
        for j in range(-50, 51):
            assert term(params, j) == p * term(params, j - 1) - q * term(params, j - 2)

    def test_shared_cache(self):
        assert HoradamSequence.of(FIBONACCI) is HoradamSequence.of(lucas_first_kind(1, -1))

    def test_specialization_coherence(self):
        for j in range(-20, 21):
            assert first_kind_term(FIBONACCI, j) == term(FIBONACCI, j)
            assert second_kind_term(FIBONACCI, j) == term(LUCAS, j)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_small = small_rationals.filter(lambda x: x != 0)
# where a read lands, against the window's edges: one step out, the gap's
# edge (both walked and stored) or one past it (doubled, not stored)
READ_STEPS = {"up": (1, 1), "down": (-1, 1), "up_edge": (1, WALK_GAP),
              "down_edge": (-1, WALK_GAP), "up_past": (1, WALK_GAP + 1),
              "down_past": (-1, WALK_GAP + 1)}


class TestBoundedTerms:
    @settings(max_examples=60, deadline=None)
    @given(a=small_rationals, b=small_rationals, p=nonzero_small, q=nonzero_small,
           j=st.integers(-300, 300))
    @example(a=Fraction(1), b=Fraction(3), p=Fraction(2), q=Fraction(1), j=-300)  # D = 0
    @example(a=Fraction(1), b=Fraction(3), p=Fraction(2), q=Fraction(1), j=300)
    @example(a=Fraction(0), b=Fraction(1), p=Fraction(1), q=Fraction(-1), j=0)
    def test_doubling_matches_walk(self, a, b, p, q, j):
        params = horadam(a, b, p, q)
        walked = walk_terms(params, min(j, 0), max(j + 1, 1))
        assert doubled_term(params, j) == walked[j]
        assert doubled_term(params, j + 1) == walked[j + 1]

    @settings(max_examples=40, deadline=None)
    @given(a=small_rationals, b=small_rationals, p=nonzero_small, q=nonzero_small,
           moves=st.lists(st.sampled_from(sorted(READ_STEPS)), min_size=1, max_size=8))
    @example(a=Fraction(1, 2), b=Fraction(3), p=Fraction(2), q=Fraction(1),  # D = 0
             moves=["up_edge", "up", "down_edge", "down", "up_past", "down_past"])
    # a negative, non-integral q: the downward walk's scale grows by a negative Q
    @example(a=Fraction(3, 2), b=Fraction(-1), p=Fraction(5, 2), q=Fraction(-2, 3),
             moves=["down_edge", "down", "up_edge", "down_past"])
    def test_int_walk_matches_walk(self, a, b, p, q, moves):
        params = horadam(a, b, p, q)
        seq = HoradamSequence(params)
        reach = 1 + len(moves) * (WALK_GAP + 1)  # the window starts as [0, 1]
        walked = walk_terms(params, -reach, reach)
        for move in moves:
            sign, step = READ_STEPS[move]
            j = seq._hi + step if sign > 0 else seq._lo - step
            value = seq.term(j)
            assert value == walked[j] and type(value) is Fraction
            assert len(seq._memo) == seq._hi - seq._lo + 1 <= WINDOW_CAP
            assert (j in seq._memo) == (step <= WALK_GAP)
            doubled = doubled_term(params, j)
            assert doubled == walked[j] and type(doubled) is Fraction
        assert all(seq._memo[k] == walked[k] for k in seq._memo)

    def test_far_term_leaves_window_bounded(self):
        f_prev, f = 0, 1  # F[j-1], F[j], from the bare recurrence
        for _ in range(10 ** 5 - 1):
            f_prev, f = f, f + f_prev
        assert term(FIBONACCI, 10 ** 5) == f
        seq = HoradamSequence.of(FIBONACCI)
        assert len(seq._memo) == seq._hi - seq._lo + 1 <= WINDOW_CAP

    @pytest.mark.parametrize("p,q", TEST_PQ)
    def test_far_reads_are_not_stored(self, p, q):
        params = horadam(Fraction(3, 2), -1, p, q)
        seq = HoradamSequence(params)
        walked = walk_terms(params, -400, 400)
        for j in (400, -400, 2 + WALK_GAP, -1 - WALK_GAP, 300, -300):
            assert seq.term(j) == walked[j]
        assert (seq._lo, seq._hi) == (0, 1)
        assert seq.term(1 + WALK_GAP) == walked[1 + WALK_GAP]
        assert (seq._lo, seq._hi) == (0, 1 + WALK_GAP)

    def test_window_stops_at_cap(self):
        seq = HoradamSequence(horadam(1, 2, 1, 3))
        walked = walk_terms(seq.params, 0, WINDOW_CAP + 200)
        for j in range(WINDOW_CAP + 200):
            assert seq.term(j) == walked[j]
        assert len(seq._memo) == WINDOW_CAP

    def test_window_stops_at_cap_below_zero(self):
        # read downwards a gap at a time, past the cap and one gap more
        seq = HoradamSequence(horadam(2, -1, 1, -1))
        bottom = -(WINDOW_CAP + 2 * WALK_GAP)
        walked = walk_terms(seq.params, bottom, 1)
        for j in range(0, bottom - 1, -WALK_GAP):
            assert seq.term(j) == walked[j]
        assert len(seq._memo) <= WINDOW_CAP

    def test_caches_stay_bounded(self):
        for i in range(1000):
            p, q = 1 + i % 10, -(1 + i // 10)
            params = horadam(1, 2, p, q)
            term(params, 10 ** 4)
            first_kind_term(params, 10 ** 4)
            assert len(HoradamSequence._shared) <= SHARED_CAP
            assert _companions.cache_info().currsize <= COMPANIONS_CAP

    def test_companions_share_the_registry_window(self):
        first_kind_term(FIBONACCI, 5)
        for i in range(SHARED_CAP + 10):
            term(horadam(i, 1, 2, 3), 2)
        fib = HoradamSequence.of(FIBONACCI)
        hits = _companions.cache_info().hits
        first_kind_term(FIBONACCI, 40)
        assert _companions.cache_info().hits == hits + 1
        assert 40 in fib._memo
        assert HoradamSequence.of(FIBONACCI) is fib


class TestBinetView:
    def test_fibonacci_term(self):
        view = BinetView(FIBONACCI)
        assert view.term(5) == QuadExt(5, 0, 5)

    def test_seed_reproduction(self):
        view = BinetView(horadam(Fraction(7, 2), -3, 1, 3))
        assert view.term(0) == Fraction(7, 2)

    def test_lucas_term(self):
        view = BinetView(LUCAS)
        assert view.term(3) == 4

    def test_degenerate_disc_rejected(self):
        with pytest.raises(DegenerateDiscriminantError):
            BinetView(horadam(1, 1, 2, 1))

    def test_root_relations(self):
        for p, q in TEST_PQ:
            view = BinetView(horadam(1, 2, p, q))
            assert view.tau + view.sigma == p
            assert view.tau * view.sigma == q
            assert view.tau - view.sigma == view.delta
            assert view.delta != 0

    @pytest.mark.parametrize("p,q", TEST_PQ)
    def test_consistency_window(self, p, q):
        params = horadam(2, Fraction(-1, 2), p, q)
        view = BinetView(params)
        for j in range(-25, 26):
            value = view.term(j)
            assert value.surd_part == 0
            assert value.rat_part == term(params, j)

    @pytest.mark.parametrize("p,q", TEST_PQ)
    def test_first_second_kind_forms(self, p, q):
        view = BinetView(lucas_first_kind(p, q))
        for j in range(-12, 13):
            assert view.first_kind_term(j) == first_kind_term(view.params, j)
            assert view.second_kind_term(j) == second_kind_term(view.params, j)


class TestLemma3:
    def test_fibonacci_point(self):
        assert lemma3_residual(1, -1, 2, 3, "L1") == 0

    def test_r_zero_trivial(self):
        for d in range(-4, 5):
            assert lemma3_residual(1, -1, 0, d, "L1") == 0

    def test_rational_root_case(self):
        assert lemma3_residual(3, 2, 1, 1, "L4") == 0

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            lemma3_residual(1, -1, 1, 1, "L5")

    @pytest.mark.parametrize("which", ["L1", "L2", "L3", "L4"])
    @pytest.mark.parametrize("p,q", TEST_PQ)
    def test_residuals_vanish(self, p, q, which):
        for r in range(-4, 5):
            for d in range(-4, 5):
                assert lemma3_residual(p, q, r, d, which) == 0


class TestLemma4:
    def test_fibonacci_point(self):
        assert lemma4_residual(FIBONACCI, 2) == 0

    def test_j_zero(self):
        assert lemma4_residual(restricted(3, 1, -1), 0) == 0

    def test_gibonacci_point(self):
        assert lemma4_residual(restricted(3, 1, -1), 5) == 0

    def test_requires_p_one(self):
        with pytest.raises(ValueError):
            lemma4_residual(horadam(1, 1, 2, 3), 1)

    @pytest.mark.parametrize("params", [FIBONACCI, LUCAS, restricted(3, 1, -1),
                                        restricted(2, 5, 3), restricted(1, 4, 1)])
    def test_residuals_vanish(self, params):
        for j in range(-10, 11):
            assert lemma4_residual(params, j) == 0
