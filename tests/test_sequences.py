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

from _util import doubled_term, fib_list, walk_terms
import horadam_sums.sequences as sequences
from horadam_sums.exactnum import DegenerateDiscriminantError, QuadExt
from horadam_sums.nestedcore import SumTerm
from horadam_sums.sequences import (COMPANIONS_CAP, FIBONACCI, LUCAS, SHARED_CAP,
                                    WALK_GAP, WINDOW_CAP, BinetView,
                                    HoradamParams, HoradamSequence,
                                    _lucas_terms, first_kind_pair,
                                    first_kind_term, gibonacci, horadam,
                                    lemma3_residual, lemma4_residual,
                                    lucas_first_kind, lucas_second_kind,
                                    restricted, second_kind_pair, second_kind_term, term)

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

    def test_pq_key_is_held_once_and_read_by_the_lookups(self):
        # (p, q) is held as a non-field beside _key, and the U/V values and a
        # new sequence's recurrence read it rather than slicing _key again
        params = horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3))
        assert params._pq == ((5, 2), (-2, 3)) == params._key[2:]
        assert [f.name for f in fields(params)] == ["a", "b", "p", "q"]
        twin = horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3))
        object.__setattr__(twin, "_key", twin._key[:2] + ((7, 1), (1, 1)))
        _lucas_terms.cache_clear()
        assert first_kind_pair(twin, 9) == first_kind_pair(params, 9)
        assert second_kind_pair(twin, -9) == second_kind_pair(params, -9)
        assert HoradamSequence(twin)._steps == HoradamSequence(params)._steps
        _lucas_terms.cache_clear()

    def test_equality_with_another_type_is_not_implemented(self):
        # not even the tuple of its own fields: no coercion across types
        assert FIBONACCI.__eq__((0, 1, 1, -1)) is NotImplemented
        assert FIBONACCI != (0, 1, 1, -1) and FIBONACCI != object()


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
            j = seq._memo[-1] + step if sign > 0 else seq._memo[0] - step
            value = seq.term(j)
            assert value == walked[j] and type(value) is Fraction
            assert len(seq._memo) == seq._memo[-1] - seq._memo[0] + 1 <= WINDOW_CAP
            assert (seq._memo[0] <= j <= seq._memo[-1]) == (step <= WALK_GAP)
            doubled = doubled_term(params, j)
            assert doubled == walked[j] and type(doubled) is Fraction
        window = range(seq._memo[0], seq._memo[-1] + 1)
        assert all(seq.term(k) == walked[k] for k in window)
        assert range(seq._memo[0], seq._memo[-1] + 1) == window  # reading stored terms stores none

    def test_far_term_leaves_window_bounded(self):
        f_prev, f = 0, 1  # F[j-1], F[j], from the bare recurrence
        for _ in range(10 ** 5 - 1):
            f_prev, f = f, f + f_prev
        assert term(FIBONACCI, 10 ** 5) == f
        seq = HoradamSequence.of(FIBONACCI)
        assert len(seq._memo) == seq._memo[-1] - seq._memo[0] + 1 <= WINDOW_CAP

    @pytest.mark.parametrize("p,q", TEST_PQ)
    def test_far_reads_are_not_stored(self, p, q):
        params = horadam(Fraction(3, 2), -1, p, q)
        seq = HoradamSequence(params)
        walked = walk_terms(params, -400, 400)
        for j in (400, -400, 2 + WALK_GAP, -1 - WALK_GAP, 300, -300):
            assert seq.term(j) == walked[j]
        assert (seq._memo[0], seq._memo[-1]) == (0, 1)
        assert seq.term(1 + WALK_GAP) == walked[1 + WALK_GAP]
        assert (seq._memo[0], seq._memo[-1]) == (0, 1 + WALK_GAP)

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
            return (seq._memo[0], seq._memo[-1], len(seq._memo)) == (lo, hi, hi - lo + 1)

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
            edge, sign = (seq._memo[-1], 1) if rng.random() < 0.5 else (seq._memo[0], -1)
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
        lo, hi = seq._memo[0], seq._memo[-1]
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
    def test_pairs_are_the_normalised_fractions(self, p, q):
        # the int pairs the closed forms and preconditions read: the
        # numerator and positive denominator of U_j and V_j in lowest terms
        params = horadam(Fraction(3, 2), -1, p, q)
        for j in range(-40, 41):
            for pair, value in ((first_kind_pair(params, j), first_kind_term(params, j)),
                                (second_kind_pair(params, j), second_kind_term(params, j))):
                assert pair == (value.numerator, value.denominator)
                assert all(type(x) is int for x in pair)

    @pytest.mark.parametrize("p,q", COMPANION_PQ)
    def test_far_companions_match_doubled_term(self, p, q):
        params = horadam(Fraction(3, 2), -1, p, q)
        for j in (10 ** 4, -10 ** 4):
            assert first_kind_term(params, j) == doubled_term(lucas_first_kind(p, q), j)
            assert second_kind_term(params, j) == doubled_term(lucas_second_kind(p, q), j)


RATIONAL = horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3))
# a random rational family's parts: numerators -7..7 over 1, 2, 3 or 5
family_parts = st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 5)))
nonzero_parts = family_parts.filter(bool)


def _exact_type(value: Fraction) -> type:
    """The type the window holds a term of this value as."""
    return int if value.denominator == 1 else Fraction


class TestExactSlots:
    """A window slot holds its term's exact value: an int when the term is
    integral, a normalised ``Fraction`` only when it is not. ``exact`` reads
    it so from the window, a walk or doubling, and ``term`` as a Fraction."""

    @pytest.mark.parametrize("params,lo,hi", [
        (FIBONACCI, -600, 6002),                  # |q| = 1: ints both ways
        (horadam(1, 4, 3, 2), -600, 6002),        # integer_root: W[-1] = -1/2
        (RATIONAL, -300, 300),
    ], ids=["fibonacci", "integer_root", "rational"])
    def test_slots_are_ints_exactly_when_integral(self, params, lo, hi):
        # one index at a time, as the oracle reads a deep-oracle-sized window
        seq = HoradamSequence(params)
        walked = walk_terms(params, lo, hi)
        for j in [*range(2, hi + 1), *range(-1, lo - 1, -1)]:
            seq.exact(j)
        assert (seq._memo[0], seq._memo[-1]) == (lo, hi)
        slots = {**{j: x for j, x in enumerate(seq._up)},
                 **{1 - i: x for i, x in enumerate(seq._down)}}
        assert slots == walked
        types = {type(x) for x in slots.values()}
        assert all(type(x) is _exact_type(walked[j]) for j, x in slots.items())
        if params == FIBONACCI:
            assert types == {int}
        else:
            assert types == {int, Fraction}
        if params == horadam(1, 4, 3, 2):
            assert slots[-1] == Fraction(-1, 2) and all(type(x) is int for x in seq._up)

    @pytest.mark.parametrize("p,q", COMPANION_PQ)
    @pytest.mark.parametrize("family", ["horadam", "first_kind", "second_kind"])
    def test_exact_read_matches_walk(self, p, q, family):
        # (1, 1)'s U and V are integral at every j, (3, 2)'s only upwards;
        # reading -300 upwards from a fresh window doubles, then walks down
        # from the gap's edge, hits, and walks up one step at a time
        params = {"horadam": horadam(Fraction(3, 2), -1, p, q),
                  "first_kind": lucas_first_kind(p, q),
                  "second_kind": lucas_second_kind(p, q)}[family]
        seq = HoradamSequence(params)
        walked = walk_terms(params, -300, 300)
        for _ in range(2):  # the second pass hits the window or doubles again
            for j in range(-300, 301):
                value = seq.exact(j)
                assert value == walked[j] and type(value) is _exact_type(walked[j])

    def test_term_is_a_fraction_on_every_path(self):
        seq = HoradamSequence(horadam(1, 4, 3, 2))
        reads = {"hit": 1, "walk": 40, "hit after walk": 20, "doubled": 10 ** 4,
                 "doubled below": -10 ** 3, "walk below": -5}
        for path, j in reads.items():
            value = seq.term(j)
            assert type(value) is Fraction, path
            assert value == doubled_term(seq.params, j)
        assert type(seq.exact(40)) is int and type(seq.exact(-5)) is Fraction
        assert type(term(FIBONACCI, 7)) is Fraction
        assert type(doubled_term(FIBONACCI, 10 ** 4)) is Fraction

    def test_unit_scale_walk_appends_ints_without_slot(self, monkeypatch):
        # upwards on an integral family the scale stays 1, so a walk appends
        # each X_k itself; downwards at q = 2 each term goes through _slot
        params = horadam(1, 4, 3, 2)
        seq = HoradamSequence(params)
        calls = []
        real = sequences._slot
        monkeypatch.setattr(sequences, "_slot",
                            lambda num, den: calls.append(den) or real(num, den))
        walked = walk_terms(params, -5, 60)
        assert seq.exact(60) == walked[60] and not calls
        assert all(type(x) is int for x in seq._up) and seq._up == [walked[j] for j in range(61)]
        assert seq.exact(-5) == walked[-5] and len(calls) == 5

    @pytest.mark.parametrize("params", [horadam(1, 4, 3, 2), FIBONACCI, RATIONAL],
                             ids=["integer_root", "fibonacci", "rational"])
    def test_doubled_pair_matches_walk(self, params):
        # both terms off one ladder, at either sign and parity of j
        walked = walk_terms(params, -301, 301)
        seq = HoradamSequence(params)
        for j in range(-300, 301):
            (an, ad), (bn, bd) = seq._far(j, pair=True)
            assert (Fraction(an, ad), Fraction(bn, bd)) == (walked[j], walked[j + 1]), j

    @settings(max_examples=100, deadline=None)
    @given(a=family_parts, b=family_parts, p=nonzero_parts, q=nonzero_parts,
           j=st.integers(-700, 700))
    @example(a=Fraction(1), b=Fraction(4), p=Fraction(3), q=Fraction(2), j=-699)
    @example(a=Fraction(1), b=Fraction(4), p=Fraction(3), q=Fraction(2), j=700)
    @example(a=Fraction(1, 2), b=Fraction(3), p=Fraction(2), q=Fraction(1), j=-700)  # D = 0
    @example(a=Fraction(-7, 5), b=Fraction(2, 3), p=Fraction(7, 2), q=Fraction(-5, 3), j=699)
    def test_reads_match_walk_on_random_families(self, a, b, p, q, j):
        # exact(j) and exact_pair(j) of a fresh window, walked near it and
        # off the ladder past the gap, at either sign and parity of j
        params = horadam(a, b, p, q)
        walked = walk_terms(params, min(j, 0), max(j + 1, 1))
        reads = ((HoradamSequence(params).exact(j), j),
                 *zip(HoradamSequence(params).exact_pair(j), (j, j + 1)))
        for value, k in reads:
            assert value == walked[k] and type(value) is _exact_type(walked[k]), k

    @pytest.mark.parametrize("params", [horadam(1, 4, 3, 2), RATIONAL],
                             ids=["integer_root", "rational"])
    def test_exact_pair_reads_as_two_exact_reads(self, params):
        # near, at the gap's edge, far and below zero: the values and types
        # of exact(j) and exact(j + 1), and the window those two reads leave
        # when W[j+1] is in reach; a far pair is one ladder and stores nothing
        walked = walk_terms(params, -1000, 2001)
        reads = (3, 1 + WALK_GAP, 2000, 2 * WALK_GAP, 2 * WALK_GAP + 2, -2, -WALK_GAP - 3, -1000)
        seq, alone = HoradamSequence(params), HoradamSequence(params)
        for j in reads:
            pair = seq.exact_pair(j)
            assert pair == (walked[j], walked[j + 1]), j
            assert [type(x) for x in pair] == [_exact_type(walked[j]), _exact_type(walked[j + 1])]
            if alone._reaches(j + 1):
                alone.exact(j + 1)
                alone.exact(j)
            assert seq._memo == alone._memo and seq._up == alone._up and seq._down == alone._down
        assert seq._memo == range(-WALK_GAP - 3, 2 * WALK_GAP + 4)

    def test_exact_pair_far_is_one_ladder(self, monkeypatch):
        # a far pair runs the index-doubling ladder once, where two far reads
        # run it twice
        ladders = []
        real = sequences._lucas_pair
        monkeypatch.setattr(sequences, "_lucas_pair",
                            lambda *args: ladders.append(args[2]) or real(*args))
        seq = HoradamSequence(horadam(1, 4, 3, 2))
        assert seq.exact_pair(9001) == (seq.exact(9001), seq.exact(9002))
        assert ladders == [4500, 4500, 4501]

    def test_a_wrong_slot_shows_in_lemma4(self):
        # lemma4_residual reads W[j+1] and W[j-1] through term(): a wrong int
        # in the window's slot for W[6] must give a nonzero residual at j = 5
        params = horadam(2, 5, 1, 3)  # the built-in "generic" restricted family
        seq = HoradamSequence.of(params)
        seq.term(8)
        slot = seq._up[6]
        assert type(slot) is int
        assert lemma4_residual(params, 5) == 0
        seq._up[6] = slot + 1
        try:
            assert lemma4_residual(params, 5) != 0
            assert lemma4_residual(params, 3) == 0  # W[4], W[2] untouched
        finally:
            seq._up[6] = slot
        assert lemma4_residual(params, 5) == 0


class TestStride:
    """A summand's reader of W[j] on its line j = m*k + s: the window and its
    walks within reach, as ``exact`` reads them, and past reach a cursor
    stepped by the line's own recurrence, reset by one pair ladder at
    |m| = 1 and two reads otherwise, storing nothing."""

    @settings(max_examples=100, deadline=None)
    @given(a=family_parts, b=family_parts, p=nonzero_parts, q=nonzero_parts,
           step=st.integers(-3, 3), start=st.integers(-60, 60),
           jumps=st.lists(st.integers(-30, 30), min_size=1, max_size=3))
    @example(a=Fraction(1), b=Fraction(4), p=Fraction(3), q=Fraction(2), step=2,
             start=40, jumps=[0, -30, 35])
    @example(a=Fraction(3, 2), b=Fraction(-1), p=Fraction(5, 2), q=Fraction(-2, 3), step=-1,
             start=70, jumps=[0, 5])
    @example(a=Fraction(0), b=Fraction(1), p=Fraction(1), q=Fraction(-1), step=0,
             start=80, jumps=[0, 3])
    def test_reads_on_a_line_match_the_walk(self, a, b, p, q, step, start, jumps):
        # runs of 12 consecutive k from a fresh window, each run after a jump:
        # far from the window the first read resets the cursor and the rest
        # step it, and a run that comes back in reach reads the window
        params = horadam(a, b, p, q)
        seq = HoradamSequence(params)
        stride = sequences.Stride(seq, step)
        offset = 1 if step == 0 else 0
        walked = walk_terms(params, -500, 500)
        k = start
        for jump in jumps:
            k += jump
            for i in range(k, k + 12):
                j = step * i + offset
                window = seq._memo
                reached = j in window or seq._reaches(j)
                stepped = not reached and stride._cursor[0] == j - step
                value = stride.read(j)
                assert value == walked[j] and type(value) is _exact_type(walked[j]), (j, i)
                # a read in reach is walked to, and a step stores nothing
                assert j in seq._memo if reached else not stepped or seq._memo == window

    @pytest.mark.parametrize("step", [1, -1, 2, -3])
    def test_past_reach_steps_without_a_ladder(self, step, monkeypatch):
        # after one reset a run past reach makes no ladder and no walk, and
        # a reset reads one pair ladder at |m| = 1 and two far reads otherwise
        params = horadam(1, 4, 3, 2)
        seq = HoradamSequence(params)
        reader = sequences.Stride(seq, step).read
        walked = walk_terms(params, -2000, 2000)
        ladders = []
        real = sequences._lucas_pair
        monkeypatch.setattr(sequences, "_lucas_pair",
                            lambda *args: ladders.append(args[2]) or real(*args))
        first = 500 // abs(step)
        for k in range(first, first + 100):
            j = step * k + 1
            assert reader(j) == walked[j]
        resets = [n for n in ladders if n > abs(step)]
        assert len(resets) == (1 if abs(step) == 1 else 2)
        assert seq._memo == range(0, 2)

    @pytest.mark.parametrize("params", [
        horadam(3, -2, 1, -1),
        horadam(Fraction(5, 2), -1, Fraction(5, 2), Fraction(-2, 3)),
    ], ids=["int", "rational"])
    def test_concurrent_readers_past_reach_agree_with_the_walk(self, params):
        # one shared summand, as the oracle's readers share it: runs past
        # reach step one cursor that another thread may replace at any
        # point, which can cost a reset but never a wrong value
        summand = SumTerm(seq=params, index_mul=3, index_add=1)
        window = HoradamSequence.of(params)._memo
        reach = 400
        walked = walk_terms(params, -3 * reach - 1, 3 * reach + 1)
        misses = []
        start = threading.Barrier(4, timeout=60)

        def reader(seed):
            rng = random.Random(seed)
            # every index past the walk's gap, so no read walks: runs, the
            # same runs downwards (a reset at each index) and single reads,
            # in an order of the thread's own, after runs every thread reads
            # in the same order, so that they step one line together
            far = [sign * k for k in range(40, reach) for sign in (1, -1)]
            plan = [range(k, k + 20) for k in range(40, reach - 20, 50)]
            plan += [range(-k, -k - 20, -1) for k in range(40, reach - 20, 50)]
            plan += [range(k + 20, k, -1) for k in range(40, reach - 20, 50)]
            plan += [[rng.choice(far)] for _ in range(20)]
            rng.shuffle(plan)
            plan[:0] = [range(40, reach), range(-40, -reach, -1)] * 3
            try:
                start.wait()
                for run in plan:
                    for k in run:
                        value = summand.value(k, 1)
                        expected = walked[3 * k + 1]
                        if value != expected or type(value) is not _exact_type(expected):
                            misses.append((k, value))
            except Exception as exc:  # a reader's error fails the test, not just its thread
                misses.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not misses
        assert HoradamSequence.of(params)._memo == window


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
    def test_a_wrong_ladder_shows_in_each_residual(self, monkeypatch, which):
        # U and V each read one too high: at r = 0 the residuals are -sigma**d,
        # -tau**d, sigma**d * delta and -tau**d * delta, never zero, so a
        # residual that does not read the ladder fails here
        monkeypatch.setattr("horadam_sums.sequences.first_kind_term",
                            lambda params, j: first_kind_term(params, j) + 1)
        monkeypatch.setattr("horadam_sums.sequences.second_kind_term",
                            lambda params, j: second_kind_term(params, j) + 1)
        for p, q in TEST_PQ:
            for d in range(-3, 4):
                assert lemma3_residual(p, q, 0, d, which) != 0

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
