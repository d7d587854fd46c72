"""Recurrence sequences, Binet views and the root-shift residuals."""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _util import fib_list, walk_terms
from horadam_sums.exactnum import DegenerateDiscriminantError, QuadExt
from horadam_sums.sequences import (COMPANIONS_CAP, FIBONACCI, LUCAS, SHARED_CAP,
                                    WALK_GAP, WINDOW_CAP, BinetView,
                                    HoradamParams, HoradamSequence, _lucas_terms, doubled_term,
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
# the far term's half step at its edges: k = j // 2 is 0 or -1 and j has
# either parity, on an integer family, a rational one, D = 0 and D < 0
HALF_STEP_EDGES = [dict(a=Fraction(a), b=Fraction(b), p=Fraction(p), q=Fraction(q), j=j)
                   for a, b, p, q in ((2, -1, 3, 2), (Fraction(3, 2), -1, Fraction(5, 2),
                                      Fraction(-2, 3)), (1, 3, 2, 1), (2, -1, 1, 3))
                   for j in range(-3, 4)]


def _with_examples(cases):
    """Hypothesis ``@example`` for each keyword dict of ``cases``."""
    def decorate(test):
        for case in cases:
            test = example(**case)(test)
        return test
    return decorate


def _int_walk(p: int, q: int, x0: int, x1: int, steps: int):
    """(X[steps], X[steps + 1]) of X[i] = p*X[i-1] - q*X[i-2] from (x0, x1)."""
    for _ in range(steps):
        x0, x1 = x1, p * x1 - q * x0
    return x0, x1


class TestBoundedTerms:
    @settings(max_examples=60, deadline=None)
    @given(a=small_rationals, b=small_rationals, p=nonzero_small, q=nonzero_small,
           j=st.integers(-300, 300))
    @example(a=Fraction(1), b=Fraction(3), p=Fraction(2), q=Fraction(1), j=-300)  # D = 0
    @example(a=Fraction(1), b=Fraction(3), p=Fraction(2), q=Fraction(1), j=300)
    @example(a=Fraction(0), b=Fraction(1), p=Fraction(1), q=Fraction(-1), j=0)
    @_with_examples(HALF_STEP_EDGES)
    def test_doubling_matches_walk(self, a, b, p, q, j):
        params = horadam(a, b, p, q)
        walked = walk_terms(params, min(j, 0), max(j + 1, 1))
        assert doubled_term(params, j) == walked[j]
        assert doubled_term(params, j + 1) == walked[j + 1]

    @pytest.mark.parametrize("p,q", [(int(p), int(q)) for p, q in TEST_PQ
                                     if p.denominator == q.denominator == 1])
    def test_far_terms_match_int_walk(self, p, q):
        # W[2k+o] = V_k*W[k+o] - q**k*W[o]: both parities, both signs of j
        a, b, far = 2, -1, 2 ** 15
        w_far, w_next = _int_walk(p, q, a, b, far)
        params = horadam(a, b, p, q)
        assert doubled_term(params, far) == w_far
        assert doubled_term(params, far + 1) == w_next
        # q**i * W[-i] obeys the same recurrence, from a and q*W[-1] = p*a - b
        _, z_next = _int_walk(p, q, a, p * a - b, far)
        assert doubled_term(params, -far - 1) == Fraction(z_next, q ** (far + 1))

    def test_negative_far_term_builds_no_params(self, monkeypatch):
        # the reversed recurrence runs on the params' ints, not on new params
        p, q, a, b = 3, 2, 2, -1
        params = horadam(a, b, p, q)
        built = []
        post_init = HoradamParams.__post_init__
        monkeypatch.setattr(HoradamParams, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        value = doubled_term(params, -8001)
        assert not built
        _, z_next = _int_walk(p, q, a, p * a - b, 8000)
        assert value == Fraction(z_next, q ** 8001)

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
            assert (seq._lo <= j <= seq._hi) == (step <= WALK_GAP)
            doubled = doubled_term(params, j)
            assert doubled == walked[j] and type(doubled) is Fraction
        window = range(seq._lo, seq._hi + 1)
        assert all(seq.term(k) == walked[k] for k in window)
        assert range(seq._lo, seq._hi + 1) == window  # reading stored terms stores none

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
            assert _lucas_terms.cache_info().currsize <= COMPANIONS_CAP

    def test_companion_reads_build_nothing(self, monkeypatch):
        # U and V come off the ladder: no companion params, sequence or window
        params = horadam(1, 2, Fraction(7, 3), Fraction(-11, 5))
        shared = {key: seq._memo for key, seq in HoradamSequence._shared.items()}
        built = []
        post_init = HoradamParams.__post_init__
        monkeypatch.setattr(HoradamParams, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        for j in (-70, -3, 0, 1, 2, 5, 40, 10 ** 3):
            first_kind_term(params, j)
            second_kind_term(params, j)
        assert not built
        assert {key: seq._memo for key, seq in HoradamSequence._shared.items()} == shared

    def test_memo_length_counts_stored_terms(self):
        # perfbench's term hit ratio and new_terms read len(seq._memo)
        seq = HoradamSequence(horadam(1, 2, 1, 1))

        def stored(lo, hi):
            return (seq._lo, seq._hi, len(seq._memo)) == (lo, hi, hi - lo + 1)

        assert stored(0, 1)
        for j in range(2, 41):
            seq.term(j)
        assert stored(0, 40)
        for j in range(-1, -31, -1):
            seq.term(j)
        assert stored(-30, 40)
        seq.term(40 + WALK_GAP)
        seq.term(-30 - WALK_GAP)
        assert stored(-30 - WALK_GAP, 40 + WALK_GAP)
        for j in (41 + 2 * WALK_GAP, -31 - 2 * WALK_GAP, 10 ** 4, -(10 ** 4)):
            seq.term(j)
        assert stored(-30 - WALK_GAP, 40 + WALK_GAP)
        hi = WINDOW_CAP - 31 - WALK_GAP  # the window's last slot
        for j in range(40 + 2 * WALK_GAP, hi, WALK_GAP):
            seq.term(j)
        seq.term(hi)
        assert stored(-30 - WALK_GAP, hi) and len(seq._memo) == WINDOW_CAP
        seq.term(hi + 1)
        seq.term(-31 - WALK_GAP)
        assert stored(-30 - WALK_GAP, hi)

    @pytest.mark.parametrize("params", [
        horadam(2, -1, 1, -1),
        horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3)),
    ], ids=["int", "rational"])
    def test_concurrent_readers_agree_with_the_walk(self, params):
        seq = HoradamSequence(params)
        reach = 500
        walked = walk_terms(params, -reach, reach)
        misses = []
        start = threading.Barrier(4)

        def edge_read(rng):
            edge, sign = (seq._hi, 1) if rng.random() < 0.5 else (seq._lo, -1)
            return [max(-reach, min(reach, edge + sign * rng.randint(1, WALK_GAP)))]

        def reader(seed):
            rng = random.Random(seed)
            plan = [range(k, k + 40) for k in range(0, reach - 40, 60)]
            plan += [range(-k, -k - 40, -1) for k in range(0, reach - 40, 60)]
            plan += [edge_read] * 20
            plan += [[rng.randint(-reach, reach)] for _ in range(20)]
            rng.shuffle(plan)
            start.wait()
            try:
                for reads in plan:
                    for j in reads(rng) if callable(reads) else reads:
                        value = seq.term(j)
                        if value != walked[j] or type(value) is not Fraction:
                            misses.append((j, value))
            except Exception as exc:  # a reader's error fails the test, not just its thread
                misses.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not misses
        lo, hi = seq._lo, seq._hi
        assert len(seq._memo) == hi - lo + 1 <= WINDOW_CAP
        assert seq._up == [walked.get(k) for k in range(hi + 1)]
        assert seq._down == [walked.get(k) for k in range(1, lo - 1, -1)]


# an integer pair, a rational pair with m > 1, D < 0 and D = 0
COMPANION_PQ = [(Fraction(3), Fraction(2)), (Fraction(5, 2), Fraction(-2, 3)),
                (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]


class TestLucasCompanions:
    @pytest.mark.parametrize("p,q", COMPANION_PQ)
    def test_ladder_matches_walk(self, p, q):
        params = horadam(Fraction(3, 2), -1, p, q)
        walked_u = walk_terms(lucas_first_kind(p, q), -300, 300)
        walked_v = walk_terms(lucas_second_kind(p, q), -300, 300)
        for j in range(-300, 301):
            u, v = first_kind_term(params, j), second_kind_term(params, j)
            assert u == walked_u[j] and type(u) is Fraction
            assert v == walked_v[j] and type(v) is Fraction

    @pytest.mark.parametrize("p,q", COMPANION_PQ)
    def test_far_companions_match_doubled_term(self, p, q):
        params = horadam(Fraction(3, 2), -1, p, q)
        for j in (10 ** 4, -10 ** 4):
            assert first_kind_term(params, j) == doubled_term(lucas_first_kind(p, q), j)
            assert second_kind_term(params, j) == doubled_term(lucas_second_kind(p, q), j)


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
