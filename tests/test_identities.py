"""Identity catalog: instance validation, closed forms, verification engine."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import product

import pytest

from _util import binet_route, literal_nested_sum
import horadam_sums.cli as cli
import horadam_sums.identities as identities
from horadam_sums.identities import (FAMILIES, CLASS_ERROR, CLASS_MISMATCH, CLASS_OUTSIDE,
                                     CLASS_SKIPPED, CLASS_VERIFIED, EvaluationReport,
                                     IdentityId, IdentityInstance,
                                     InvalidInstanceError, SweepGrid, default_grid,
                                     evaluate_rhs, grid_size, lhs_spec, summarize,
                                     sweep, sweep_points, verify, _REGISTRY)
from horadam_sums.nestedcore import NestedSumSpec, oracle_nested
from horadam_sums.sequences import (FIBONACCI, LUCAS, gibonacci, horadam, restricted, term)

FIB = FAMILIES["fibonacci"]
GENERIC = FAMILIES["generic"]          # restricted family, q = 3

# grids whose point count grid_size must give besides the default grids:
# named families on every tag (a fixed tag sweeps them too), and pinned a values
COUNTED_GRIDS = (SweepGrid(families=(FIB, GENERIC, LUCAS), n_values=(1, 2), c_values=(-1, 2),
                           r_values=(1, 3), s_values=(0, 1), d_values=(0, -1),
                           a_offsets=(0, 4)),
                 SweepGrid(families=(GENERIC,), n_values=(2,), a_values=(-1, 5, 6)))


# one family of rational p, q and seeds per family shape (a tag's
# ``_REGISTRY`` family: None, restricted or gibonacci); every FAMILIES entry
# is integral, so these are what run the closed forms' int pairs on
# non-integral terms, ratios, bases and discriminants
RATIONAL_FAMILIES = {
    None: horadam(Fraction(-7, 3), Fraction(12, 5), Fraction(3, 2), Fraction(-5, 4)),
    "restricted": horadam(Fraction(2, 3), Fraction(-5, 7), 1, Fraction(3, 2)),
    "gibonacci": gibonacci(Fraction(-2, 3), Fraction(5, 4)),
}
# every tag without a fixed family
RATIONAL_TAGS = tuple(ident for ident in IdentityId if _REGISTRY[ident].fixed is None)


def rational_grid(ident) -> SweepGrid:
    """The grid ``ident`` is swept on over its own shape's rational family."""
    record = _REGISTRY[ident]
    return SweepGrid(families=(RATIONAL_FAMILIES[record.family],),
                     n_values=tuple(n for n in range(1, 5) if record.parity in (None, n % 2)),
                     c_values=(-1, 1), r_values=(-1, 1, 2), s_values=(0, 2),
                     d_values=(-1, 0, 1), a_offsets=tuple(range(-1, 5)))


def inst(identity, params=None, n=1, a_n=1, c=1, r=1, s=0, d=0):
    return IdentityInstance(identity, params, n, a_n, c, r, s, d)


class TestInstanceValidation:
    def test_fixed_family_filled(self):
        assert inst(IdentityId.F1A, n=1, a_n=2).params == FIBONACCI
        assert inst(IdentityId.F1B, n=1, a_n=2).params == LUCAS

    def test_fixed_family_conflict(self):
        with pytest.raises(InvalidInstanceError):
            inst(IdentityId.F1A, params=LUCAS, n=1, a_n=2)

    def test_params_required(self):
        # a missing family is a caller's bug, never a skipped point
        with pytest.raises(TypeError):
            inst(IdentityId.F3, n=1, a_n=2)
        with pytest.raises(TypeError):
            identities.evaluate_point(IdentityId.F3, None, 1, 3)

    def test_v_r_zero_rejected(self):
        # (p, q) = (2, 2) has V[2] = 0
        with pytest.raises(InvalidInstanceError, match="V_2 = 0"):
            inst(IdentityId.F3, params=horadam(1, 1, 2, 2), n=1, a_n=3, r=2)

    def test_f6_zero_v_rejected(self):
        # (p, q) = (2, 2) has V[2] = 0: as V_{r+d} at (r, d) = (1, 1), and as
        # the weight base's V_d at d = 2
        params = horadam(1, 1, 2, 2)
        for ident, n in ((IdentityId.F6A, 2), (IdentityId.F6B, 1)):
            with pytest.raises(InvalidInstanceError, match="V_2 = 0"):
                inst(ident, params=params, n=n, a_n=3, r=1, d=1)
            with pytest.raises(InvalidInstanceError,
                               match=r"V_2 = 0 \(degenerate weight base\)"):
                inst(ident, params=params, n=n, a_n=3, r=1, d=2)

    def test_f6_first_refusals(self):
        # r = 0, a repeated root ((p, q) = (2, 1), D = 0), and U_3 = 0 on the
        # period-6 negative_d family, each refused before the V checks
        for params, r, reason in ((FAMILIES["integer_root"], 0, "r must be nonzero"),
                                  (horadam(1, 1, 2, 1), 1, "discriminant must be nonzero"),
                                  (FAMILIES["negative_d"], 3, "U_3 = 0")):
            with pytest.raises(InvalidInstanceError, match=f"^F6a: {reason}$"):
                inst(IdentityId.F6A, params=params, n=2, a_n=3, r=r)

    def test_f6_parity(self):
        with pytest.raises(InvalidInstanceError, match="even"):
            inst(IdentityId.F6A, params=FIB, n=1, a_n=2)
        with pytest.raises(InvalidInstanceError, match="odd"):
            inst(IdentityId.F6B, params=FIB, n=2, a_n=2)

    def test_f5_constraints(self):
        with pytest.raises(InvalidInstanceError):
            inst(IdentityId.F5, params=FIB, n=1, a_n=2, r=0, d=1)
        with pytest.raises(InvalidInstanceError):
            inst(IdentityId.F5, params=FIB, n=1, a_n=2, r=1, d=-1)  # r + d = 0
        with pytest.raises(InvalidInstanceError):
            inst(IdentityId.F5, params=FIB, n=1, a_n=2, r=1, d=0)  # U_0 = 0 weight

    def test_f7_constraints(self):
        with pytest.raises(InvalidInstanceError, match="r \\+ 1 = d"):
            inst(IdentityId.F7, params=GENERIC, n=1, a_n=2, r=1, d=2)
        # Fibonacci with s = 0, d = 0 hits W[s+d] = F[0] = 0
        with pytest.raises(InvalidInstanceError, match="W_0 = 0"):
            inst(IdentityId.F7, params=FIB, n=1, a_n=2, r=1, s=0, d=0)

    @pytest.mark.parametrize("coord", ["n", "a_n", "c", "r", "s", "d"])
    @pytest.mark.parametrize("kind", [float, Fraction])
    def test_non_int_coordinate_is_a_type_error(self, coord, kind):
        # a caller's bug, raised at construction: never a skipped point, and
        # never a float key that reads the int key it equals in the term window
        coords = {"n": 2, "a_n": 3, "c": 1, "r": 1, "s": 0, "d": 0}
        coords[coord] = kind(coords[coord])
        with pytest.raises(TypeError, match=f"^{coord} must be an int"):
            inst(IdentityId.F3, params=FIB, **coords)
        with pytest.raises(TypeError):
            identities.evaluate_point(IdentityId.F3, FIB, **coords)

    def test_gibonacci_shape_enforced(self):
        with pytest.raises(InvalidInstanceError):
            inst(IdentityId.F3_G, params=GENERIC, n=1, a_n=2)

    @pytest.mark.parametrize("family", ["negative_d", "generic"])
    def test_gibonacci_form_refuses_p_one_with_another_q(self, capsys, family):
        # p = 1 passes the check's first half, so q != -1 alone refuses,
        # in the library and as the CLI's skipped point
        params = FAMILIES[family]
        assert params.p == 1 and params.q != -1
        with pytest.raises(InvalidInstanceError,
                           match="^F3_G: gibonacci form requires p = 1, q = -1$"):
            inst(IdentityId.F3_G, params=params, n=1, a_n=2)
        assert cli.main(["verify", "--identity", "F3_G", "--family", family,
                         "--n", "1", "--an", "2"]) == 0
        assert capsys.readouterr().out == "skipped: F3_G: gibonacci form requires p = 1, q = -1\n"

    def test_restricted_shape_enforced(self):
        with pytest.raises(InvalidInstanceError):
            inst(IdentityId.F3_W, params=horadam(1, 1, 2, 3), n=1, a_n=2)

    def test_h_fixes_coordinates(self):
        with pytest.raises(InvalidInstanceError):
            inst(IdentityId.H, n=1, a_n=2, c=0)
        assert inst(IdentityId.H, n=2, a_n=3).params == FIBONACCI

    def test_n_positive(self):
        with pytest.raises(InvalidInstanceError):
            inst(IdentityId.F3, params=FIB, n=0, a_n=2)


class TestLhsSpec:
    def test_f3_fibonacci_r1_is_plain_fibonacci(self):
        # V[1] = 1, so the weight is 1 and the summand is F[k]
        spec = lhs_spec(inst(IdentityId.F3, params=FIB, n=2, a_n=3))
        for k in range(-3, 8):
            assert spec.term.value(k) == term(FIBONACCI, k)

    def test_f7_r1_d0_weight(self):
        # base q * w[s-1]/w[s]; generic family q = 3, w = (2, 5, -1, -16, ...)
        one = inst(IdentityId.F7_R1D0_W, params=GENERIC, n=1, a_n=2, s=1)
        spec = lhs_spec(one)
        w0, w1 = term(GENERIC, 0), term(GENERIC, 1)
        assert spec.term.value(1) == 3 * w0 / w1

    def test_f4_fibonacci_sign_cancellation(self):
        # q = -1, r = 1: (-1)^k * F[2k+s] / (-1)^k = F[2k+s]
        spec = lhs_spec(inst(IdentityId.F4, params=FIB, n=1, a_n=2, s=1))
        for k in range(0, 6):
            assert spec.term.value(k) == term(FIBONACCI, 2 * k + 1)

    def test_f6_weight(self):
        spec = lhs_spec(inst(IdentityId.F6B, params=FIB, n=1, a_n=2, r=1, d=0))
        # (L[0]/L[1])^k * F[k] = 2^k F[k]
        assert spec.term.value(3) == 8 * 2


class TestClosedForms:
    def test_f1a_value(self):
        report = verify(inst(IdentityId.F1A, n=1, a_n=2))
        assert report.lhs == report.rhs == 10  # F[3] + F[6]

    def test_f1b_value(self):
        report = verify(inst(IdentityId.F1B, n=1, a_n=1))
        assert report.lhs == report.rhs == 4  # L[3]

    def test_f1_empty_sum_is_zero(self):
        for ident in (IdentityId.F1A, IdentityId.F1B):
            for n, c, s in product((1, 2, 3), (-1, 0, 1, 2), (-2, 0, 3)):
                assert evaluate_rhs(inst(ident, n=n, a_n=c - 1, c=c, s=s)) == 0

    def test_f2a_value(self):
        report = verify(inst(IdentityId.F2A, n=1, a_n=2))
        assert report.lhs == report.rhs == 6  # -F[3] + F[6]

    def test_f2b_value(self):
        report = verify(inst(IdentityId.F2B, n=1, a_n=1))
        assert report.lhs == report.rhs == -4  # -L[3]

    def test_f2a_single_term(self):
        for c, s in product((-1, 1, 2), (-2, 0, 1)):
            one = inst(IdentityId.F2A, n=1, a_n=c, c=c, s=s)
            value = evaluate_rhs(one)
            sign = -1 if c % 2 else 1
            assert value == sign * term(FIBONACCI, 3 * c + s)

    @pytest.mark.parametrize("ident, at", [(IdentityId.F1A, (3, -1)), (IdentityId.F1B, (3, -1)),
                                           (IdentityId.F2A, (3, -2)), (IdentityId.F2B, (3, -2))])
    def test_cubic_forms_are_f5_at_fixed_r_d(self, ident, at):
        # F1 and F2 hold F5's tuple at a fixed (r, d): on every default-grid
        # point their closed form is F5's on the same family and (n, a_n, c, s)
        points = 0
        for params, n, a_n, c, r, s, d in sweep_points(ident):
            one = inst(ident, params, n, a_n, c, r, s, d)
            five = inst(IdentityId.F5, one.params, n, a_n, c, at[0], s, at[1])
            assert evaluate_rhs(one) == evaluate_rhs(five)
            points += 1
        assert points == grid_size(ident) == 704

    def test_f3_classic_double_sum(self):
        report = verify(inst(IdentityId.F3, params=FIB, n=2, a_n=3))
        assert report.lhs == report.rhs == 7  # F[7] - F[4] - 3*F[2]

    def test_f3_single_term(self):
        for c in (-1, 1, 3):
            one = inst(IdentityId.F3, params=GENERIC, n=1, a_n=c, c=c, r=2, s=1)
            seq_val = term(GENERIC, 2 * c + 1)
            v2 = term(horadam(2, 1, 1, 3), 2)
            assert evaluate_rhs(one) == seq_val / v2 ** c

    def test_f3_generic_family_against_literal(self):
        one = inst(IdentityId.F3, params=GENERIC, n=2, a_n=4, c=0, r=2, s=1)
        spec = lhs_spec(one)
        literal = literal_nested_sum(2, 4, 0, spec.term.value)
        assert evaluate_rhs(one) == literal

    def test_f4_value(self):
        report = verify(inst(IdentityId.F4, params=FIB, n=1, a_n=2))
        assert report.lhs == report.rhs == 4  # F[2] + F[4]

    def test_f4_empty_sum_is_zero(self):
        for c in (-1, 0, 1, 2):
            one = inst(IdentityId.F4, params=horadam(1, 4, 1, 2), n=2, a_n=c - 1, c=c)
            assert evaluate_rhs(one) == 0

    def test_f4_restricted_family(self):
        one = inst(IdentityId.F4, params=horadam(1, 4, 1, 2), n=2, a_n=3)
        report = verify(one)
        assert report.classification == CLASS_VERIFIED

    def test_f5_hand_value(self):
        one = inst(IdentityId.F5, params=FIB, n=1, a_n=2, r=2, d=1)
        # summand (F[1]/F[3])^k F[2k]: 1/2 + 3/4
        report = verify(one)
        assert report.lhs == report.rhs == Fraction(5, 4)

    def test_f5_empty_sum_is_zero(self):
        for c in (-1, 1, 2):
            one = inst(IdentityId.F5, params=FIB, n=2, a_n=c - 1, c=c, r=2, d=1)
            assert evaluate_rhs(one) == 0

    def test_f6b_hand_value(self):
        report = verify(inst(IdentityId.F6B, params=FIB, n=1, a_n=2, r=1, d=0))
        assert report.lhs == report.rhs == 6  # 2*F[1]*2 + 4*F[2]... = 2 + 4

    def test_f6a_oracle_match(self):
        report = verify(inst(IdentityId.F6A, params=FIB, n=2, a_n=2, r=1, d=0))
        assert report.classification == CLASS_VERIFIED
        assert report.lhs == 8

    def test_f7_hand_value(self):
        report = verify(inst(IdentityId.F7, params=FIB, n=1, a_n=2, r=1, s=2, d=0))
        assert report.lhs == report.rhs == 0  # -1 + 1

    def test_f7_empty_sum_is_zero(self):
        for c in (-1, 1, 2):
            one = inst(IdentityId.F7, params=GENERIC, n=2, a_n=c - 1, c=c, r=2, s=1, d=1)
            assert evaluate_rhs(one) == 0

    def test_f7_restricted_against_literal(self):
        one = inst(IdentityId.F7, params=restricted(2, 3, 2), n=2, a_n=3, c=0,
                   r=3, s=1, d=1)
        spec = lhs_spec(one)
        assert evaluate_rhs(one) == literal_nested_sum(2, 3, 0, spec.term.value)


class TestEqHRegression:
    """The classic nested Fibonacci sums and their binomial closed form."""

    def test_double_sum_formula(self):
        for m in range(1, 11):
            value = oracle_nested(lhs_spec(inst(IdentityId.H, n=2, a_n=m)))
            assert value == term(FIBONACCI, m + 4) - term(FIBONACCI, 4) - m

    def test_triple_sum_formula(self):
        for m in range(1, 11):
            value = oracle_nested(lhs_spec(inst(IdentityId.H, n=3, a_n=m)))
            expected = (term(FIBONACCI, m + 6) - term(FIBONACCI, 6)
                        - m * term(FIBONACCI, 4) - Fraction(m * (m + 1), 2))
            assert value == expected

    def test_rhs_matches_oracle(self):
        for n in range(1, 4):
            for m in range(1, 11):
                one = inst(IdentityId.H, n=n, a_n=m)
                assert evaluate_rhs(one) == oracle_nested(lhs_spec(one))

    def test_s_shift_relates_grids(self):
        # bumping s by 3 re-indexes every level: value(s+3, a, c) == value(s, a+1, c+1)
        for n, c, s, a in product((1, 2, 3), (0, 1), (-2, 0, 1), range(0, 6)):
            shifted = evaluate_rhs(inst(IdentityId.F1A, n=n, a_n=c + a, c=c, s=s + 3))
            moved = evaluate_rhs(inst(IdentityId.F1A, n=n, a_n=c + a + 1, c=c + 1, s=s))
            assert shifted == moved


class TestVerify:
    def test_reports_counts_and_times(self):
        report = verify(inst(IdentityId.F3, params=FIB, n=2, a_n=3))
        assert report.oracle_terms == 2 * 3
        assert report.closed_terms == 2 * 2 + 1
        assert report.oracle_ns >= 0 and report.closed_ns >= 0

    def test_outside_domain_classification(self):
        report = verify(inst(IdentityId.F3, params=FIB, n=1, a_n=-2, c=1))
        assert report.classification == CLASS_OUTSIDE

    def test_empty_sum_row_verifies(self):
        report = verify(inst(IdentityId.F1A, n=2, a_n=0, c=1))
        assert report.classification == CLASS_OUTSIDE
        assert report.equal is True and report.lhs == 0

    def test_division_by_zero_is_error_report(self, monkeypatch):
        def divide_by_zero(one, counter=None):
            raise ZeroDivisionError("pole here")

        monkeypatch.setattr(identities, "evaluate_rhs", divide_by_zero)
        report = verify(inst(IdentityId.F3, params=FIB, n=1, a_n=2))
        assert report.classification == CLASS_ERROR
        assert report.detail == "pole here"

    def test_error_report_keeps_the_partial_closed_count(self, monkeypatch):
        # the line part's 2 terms and the point's 2 binomials are counted
        # before the first binomial raises
        def pole(top, k):
            raise ZeroDivisionError("pole here")

        monkeypatch.setattr(identities, "binom", pole)
        report = verify(inst(IdentityId.F3, params=FIB, n=2, a_n=3))
        assert report.classification == CLASS_ERROR
        assert (report.oracle_terms, report.closed_terms) == (2 * 3, 2 + 2)

    def test_value_error_propagates(self, monkeypatch):
        # a ValueError from an evaluator is a bug, not a mathematical outcome
        def broken(one, counter=None):
            raise ValueError("evaluator bug")

        monkeypatch.setattr(identities, "evaluate_rhs", broken)
        with pytest.raises(ValueError, match="evaluator bug"):
            verify(inst(IdentityId.F3, params=FIB, n=1, a_n=2))


class TestSweep:
    def test_small_grid_all_verified(self):
        grid = SweepGrid(families=(FIB,), n_values=(1, 2), c_values=(1,),
                         r_values=(1,), s_values=(0,), a_offsets=(0, 1, 2, 3))
        reports = sweep(IdentityId.F3, grid)
        assert len(reports) == 8
        assert all(r.classification == CLASS_VERIFIED for r in reports)

    def test_empty_grid(self):
        grid = SweepGrid(families=(FIB,), n_values=(), a_offsets=(0,))
        assert sweep(IdentityId.F3, grid) == []

    def test_grid_without_families_refused_for_an_open_tag(self):
        # F3 has no fixed family, so a grid naming none has nothing to sweep
        with pytest.raises(ValueError, match="F3 needs at least one parameter family"):
            sweep(IdentityId.F3, SweepGrid())

    def test_all_invalid_grid_all_skipped(self):
        # V[2] = 0 for (p, q) = (2, 2): every point skipped, none failed
        grid = SweepGrid(families=(horadam(1, 1, 2, 2),), n_values=(1, 2),
                         c_values=(1,), r_values=(2,), s_values=(0,),
                         a_offsets=(0, 1))
        reports = sweep(IdentityId.F3, grid)
        assert reports and all(r.classification == CLASS_SKIPPED for r in reports)
        summary = summarize(reports)
        assert summary.skipped == len(reports) and summary.mismatched == 0
        assert summary.exit_code == 0

    def test_deterministic_order(self):
        grid = default_grid(IdentityId.F1A)
        first = sweep(IdentityId.F1A, grid)
        second = sweep(IdentityId.F1A, grid)
        stripped = [(r.identity, r.params, r.n, r.a_n, r.c, r.r, r.s, r.d,
                     r.lhs, r.rhs, r.equal, r.classification) for r in first]
        stripped2 = [(r.identity, r.params, r.n, r.a_n, r.c, r.r, r.s, r.d,
                      r.lhs, r.rhs, r.equal, r.classification) for r in second]
        assert stripped == stripped2

    @pytest.mark.parametrize("ident", list(IdentityId), ids=str)
    def test_grid_size_counts_the_points(self, ident):
        for grid in (None, default_grid(ident), *COUNTED_GRIDS):
            assert grid_size(ident, grid) == len(list(sweep_points(ident, grid)))

    def test_summary_mismatch_exit_code(self):
        genuine = verify(inst(IdentityId.F3, params=FIB, n=1, a_n=2))
        fabricated = EvaluationReport(
            identity=genuine.identity, params=genuine.params, n=1, a_n=2, c=1,
            r=1, s=0, d=0, lhs=Fraction(1), rhs=Fraction(2), equal=False,
            oracle_terms=0, closed_terms=0, oracle_ns=0, closed_ns=0,
            classification=CLASS_MISMATCH)
        summary = summarize([genuine, fabricated])
        assert summary.mismatched == 1 and summary.exit_code == 1

    def test_summary_error_exit_code(self):
        failed = EvaluationReport(
            identity=IdentityId.F3, params=FIB, n=1, a_n=2, c=1, r=1, s=0, d=0,
            lhs=None, rhs=None, equal=None, oracle_terms=0, closed_terms=0,
            oracle_ns=0, closed_ns=0, classification=CLASS_ERROR)
        assert summarize([failed]).exit_code == 1


class TestDegenerations:
    def test_f6_fib_lucas_match_gibonacci_forms(self):
        count = 0
        for main_fixed, fam in ((IdentityId.F6_F_EVEN, FIBONACCI), (IdentityId.F6_L_EVEN, LUCAS)):
            odd_id = (IdentityId.F6_F_ODD if main_fixed is IdentityId.F6_F_EVEN
                      else IdentityId.F6_L_ODD)
            for n, r, s, d, a_n in product((1, 2, 3, 4), (-1, 1, 2), (0, 2), (0, 1),
                                           range(1, 5)):
                special_id = main_fixed if n % 2 == 0 else odd_id
                gib_id = IdentityId.F6_G_EVEN if n % 2 == 0 else IdentityId.F6_G_ODD
                try:
                    sp = inst(special_id, params=None, n=n, a_n=a_n, r=r, s=s, d=d)
                    gb = inst(gib_id, params=fam, n=n, a_n=a_n, r=r, s=s, d=d)
                except InvalidInstanceError:
                    continue
                assert evaluate_rhs(sp) == evaluate_rhs(gb)
                count += 1
        assert count >= 100

    def test_every_tag_runs_a_theorem_closed_form(self):
        # a specialization reads its parent theorem's closed form, never code
        # of its own: only the summand, the dims and a fixed (r, d) may differ
        theorems = {(shape.ratio_base, shape.term)
                    for shape in (identities._F3, identities._F4, identities._F5,
                                  identities._F6, identities._F7)}
        own = [ident.value for ident, record in _REGISTRY.items()
               if (record.shape.ratio_base, record.shape.term) not in theorems]
        assert not own


# (sum of closed_terms, sum of oracle_terms) over each default grid; the
# counts are deterministic, so a change to an evaluator's lookups shows here
_DEFAULT_GRID_TERM_COUNTS = {
    IdentityId.H: (195, 546),
    IdentityId.F3_W: (3072, 4032),
    IdentityId.F3_G: (3072, 4032),
    IdentityId.F4_G: (3072, 4032),
    IdentityId.F5_G: (5120, 6720),
    IdentityId.F6_G_EVEN: (13056, 16128),
    IdentityId.F6_G_ODD: (11520, 10752),
    IdentityId.F6_F_EVEN: (3264, 4032),
    IdentityId.F6_F_ODD: (2880, 2688),
    IdentityId.F6_L_EVEN: (3264, 4032),
    IdentityId.F6_L_ODD: (2880, 2688),
    IdentityId.F7_W: (4464, 5208),
    IdentityId.F7_G: (6048, 7056),
    IdentityId.F7_R1D0_W: (3960, 5544),
    IdentityId.F7_R1D0_G: (4320, 6048),
}


def test_tags_outside_theorem_suite_match_oracle():
    # acceptance criterion 3 sweeps the ten theorem tags; this covers the rest.
    # Every restricted and gibonacci tag runs its parent's evaluator, so the
    # oracle is its only independent check.
    assert set(_REGISTRY) == set(IdentityId)
    theorem_suite = {IdentityId.F1A, IdentityId.F1B, IdentityId.F2A, IdentityId.F2B,
                     IdentityId.F3, IdentityId.F4, IdentityId.F5, IdentityId.F6A,
                     IdentityId.F6B, IdentityId.F7}
    assert set(_DEFAULT_GRID_TERM_COUNTS) == set(IdentityId) - theorem_suite
    failures = []
    for ident, expected_counts in _DEFAULT_GRID_TERM_COUNTS.items():
        reports = sweep(ident)
        summary = summarize(reports)
        if summary.mismatched or summary.errors or not summary.verified:
            failures.append((ident.value, summary))
        counts = (sum(report.closed_terms for report in reports),
                  sum(report.oracle_terms for report in reports))
        if counts != expected_counts:
            failures.append((ident.value, counts, expected_counts))
    assert not failures


def _deep_instances(ident, depths=(5, 6, 7, 8)):
    """Valid points of ``ident`` at ``depths`` (F6 tags: their own parity only).

    Two families (the first and last of the default grid's), the first and
    last c, r and d of that grid, and a_n at c - 1, c + 3 and c + 9.
    """
    record = _REGISTRY[ident]
    grid, dims = record.grid, record.shape.dims

    def ends(dim, values, default):
        return (values[0], values[-1]) if dim in dims else (default,)

    families = (None,) if record.fixed is not None else (grid.families[0], grid.families[-1])
    depths = [n for n in depths if record.parity in (None, n % 2)]
    s = grid.s_values[0] if "s" in dims else 0
    points = []
    for params, n, c, r, d in product(families, depths, ends("c", grid.c_values, 1),
                                      ends("r", grid.r_values, 1), ends("d", grid.d_values, 0)):
        for a_n in (c - 1, c + 3, c + 9):
            try:
                points.append(IdentityInstance(ident, params, n, a_n, c, r, s, d))
            except InvalidInstanceError:
                continue
    return points


@pytest.mark.parametrize("ident", list(IdentityId), ids=str)
def test_deep_depths_match_oracle(ident):
    # the default grids stop at n = 4, so a closed-form term that only
    # matters from n = 5 on (an odd F6 form's inner sums, say) shows here;
    # the root-power route is held to the same oracle value
    points = _deep_instances(ident)
    assert len(points) >= 10
    bad = []
    for one in points:
        spec = lhs_spec(one)
        expected = oracle_nested(spec)
        if evaluate_rhs(one) != expected or binet_route(spec) != expected:
            bad.append(one)
    assert not bad


def test_h_far_outer_limits_match_oracle():
    # criterion 4 checks H at a_n 1-30; this carries it on to 40
    for n, a_n in product(range(1, 5), range(31, 41)):
        one = inst(IdentityId.H, n=n, a_n=a_n)
        assert evaluate_rhs(one) == oracle_nested(lhs_spec(one))


@pytest.mark.parametrize("ident, n, a_n, d", [
    (IdentityId.F3, 2, 4000, 0), (IdentityId.F4, 2, 2000, 0), (IdentityId.F5, 2, 3000, 1),
    (IdentityId.F6A, 2, 3000, 1), (IdentityId.F6B, 3, 2000, 1)],
    ids=["F3", "F4", "F5", "F6a", "F6b"])
def test_far_outer_limits_verify(ident, n, a_n, d):
    # the default grids stop at a_n = 9; here the closed form's denominator
    # reaches 2,000-7,000 bits, and the point is reduced factor by factor
    report = verify(inst(ident, FAMILIES["integer_root"], n=n, a_n=a_n, d=d))
    assert report.classification == CLASS_VERIFIED


class TestBinetRoutes:
    """The root-power route reproduces every tag's left side at depths 1-4,
    through the f-form over quadratic-extension values. Criterion 6 runs it
    on F6's whole default grid, ``integer_root``'s square D included, and
    ``test_nestedcore.py::TestBinetRoute`` on the shapes no grid reaches."""

    @pytest.mark.parametrize("ident", list(IdentityId), ids=str)
    def test_route_matches_oracle(self, ident):
        specs = [lhs_spec(one) for one in _deep_instances(ident, depths=(1, 2, 3, 4))]
        assert len(specs) >= 10
        bad = [spec for spec in specs if binet_route(spec) != oracle_nested(spec)]
        assert not bad

    @staticmethod
    def _check_route(ident, params):
        # negative and zero weights and shifts, at lower limits 0 and 1; a
        # QuadExt equals the oracle's Fraction only with a zero surd part
        from horadam_sums.sequences import second_kind_term

        for r, s, n, c in product((-1, 1, 2), (0, 2), (1, 2), (0, 1)):
            if second_kind_term(params, r) == 0:
                continue
            for a_n in range(c, c + 4):
                spec = lhs_spec(inst(ident, params=params, n=n, a_n=a_n, c=c, r=r, s=s))
                assert binet_route(spec) == oracle_nested(spec)

    @pytest.mark.parametrize("params", [FIB, GENERIC])
    def test_f_route_reproduces_weighted_sum(self, params):
        self._check_route(IdentityId.F3, params)

    @pytest.mark.parametrize("params", [FIB, GENERIC])
    def test_g_route_reproduces_alternating_sum(self, params):
        self._check_route(IdentityId.F4, params)


@pytest.mark.parametrize("ident", RATIONAL_TAGS, ids=str)
def test_rational_families_verify(ident):
    # rational p, q and seeds: terms, ratios, bases and (for F6) the
    # discriminant all have denominators other than 1
    summary = summarize(sweep(ident, rational_grid(ident)))
    assert summary.total == grid_size(ident, rational_grid(ident))
    assert summary.mismatched == 0 and summary.errors == 0 and summary.verified > 0


@pytest.mark.parametrize("name", ["n", "a_n", "c", "r", "s", "d"])
@pytest.mark.parametrize("params", [FIB, FAMILIES["integer_root"]],
                         ids=["valid-line", "skipped-line"])
def test_bool_coordinate_refused(name, params):
    # a bool is an int to isinstance, and a row would print it as True;
    # F3_w verifies on the Fibonacci numbers and is skipped on p = 3
    coords = dict(n=1, c=1, r=1, s=0, d=0)
    a_values = (2, True) if name == "a_n" else (2,)
    if name != "a_n":
        coords[name] = True
    with pytest.raises(TypeError, match=f"^{name} must be an int, not bool$"):
        list(identities.evaluate_line(IdentityId.F3_W, params, a_values=a_values, **coords))


def _same_as_constructed(fast, built) -> None:
    """``fast`` behaves as the dataclass ``built`` by its constructor."""
    assert fast == built and built == fast and hash(fast) == hash(built)
    assert repr(fast) == repr(built) and list(vars(fast).items()) == list(vars(built).items())
    assert dataclasses.fields(fast) == dataclasses.fields(built)
    assert dataclasses.asdict(fast) == dataclasses.asdict(built)
    assert dataclasses.replace(fast) == built
    name = dataclasses.fields(fast)[-1].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fast, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(fast, name)


@pytest.mark.parametrize("a_n, broken, classification", [
    (3, False, CLASS_VERIFIED), (-2, False, CLASS_OUTSIDE), (3, True, CLASS_ERROR),
], ids=["verified", "outside_domain", "error"])
def test_verify_report_is_a_constructed_report(a_n, broken, classification, monkeypatch):
    if broken:
        def divide_by_zero(one, counter=None):
            raise ZeroDivisionError("pole here")

        monkeypatch.setattr(identities, "evaluate_rhs", divide_by_zero)
    report = verify(inst(IdentityId.F3, params=FIB, n=2, a_n=a_n, r=2, s=1))
    assert report.classification == classification
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(EvaluationReport)}
    _same_as_constructed(report, EvaluationReport(**fields))


@pytest.mark.parametrize("ident, params, n, shown, detail", [
    (IdentityId.F6A, GENERIC, 3, GENERIC, "F6a: n must be even for this variant"),
    (IdentityId.F1A, None, 0, FIB, "F1a: n must be a positive integer"),
], ids=["parity", "fixed-family"])
def test_skipped_report_is_a_constructed_report(ident, params, n, shown, detail):
    # a line that fails a precondition gives each point a skipped report,
    # built as verify builds its own; a fixed tag's family is shown
    a_values = (4, -1)
    reports = list(identities.evaluate_line(ident, params, n, a_values, 1, 1, 0, 1))
    assert [report.a_n for report in reports] == list(a_values)
    for a_n, report in zip(a_values, reports):
        assert report.classification == CLASS_SKIPPED and report.detail == detail
        _same_as_constructed(report, EvaluationReport(ident, shown, n, a_n, 1, 1, 0, 1,
                                                      detail=detail))


@pytest.mark.parametrize("lhs, rhs", [
    (Fraction(3, 7), Fraction(3, 8)),
    (Fraction(3, 7), Fraction(4, 7)),
    (Fraction(3, 7), Fraction(-3, 7)),
    (Fraction(0), Fraction(0, 5)),
    (Fraction(-12, 5), Fraction(24, -10)),
], ids=["same-numerator", "same-denominator", "opposite-signs", "zeros", "equal"])
@pytest.mark.parametrize("a_n", [4, -2], ids=["in-domain", "outside"])
def test_verify_compares_as_fraction_equality(lhs, rhs, a_n, monkeypatch):
    # on patched routes, equal and the class follow Fraction's ==, and an
    # agreeing rhs is the lhs object itself
    assert rhs is not lhs
    monkeypatch.setattr(identities, "oracle_nested", lambda spec, counter=None: lhs)
    monkeypatch.setattr(identities, "evaluate_rhs", lambda one, counter=None: rhs)
    report = verify(inst(IdentityId.F3, params=FIB, n=2, a_n=a_n))
    agree = lhs == rhs
    assert report.equal is agree and report.lhs is lhs
    assert report.rhs is (lhs if agree else rhs)
    if a_n < 1:
        assert report.classification == CLASS_OUTSIDE
    else:
        assert report.classification == (CLASS_VERIFIED if agree else CLASS_MISMATCH)


@pytest.mark.parametrize("ident, params, n, c", [
    (IdentityId.F3, FIB, 3, -1), (IdentityId.F7, GENERIC, 1, 2), (IdentityId.F2A, None, 2, 0),
], ids=["F3", "F7", "F2a"])
def test_lhs_spec_is_a_constructed_spec(ident, params, n, c):
    one = inst(ident, params=params, n=n, a_n=c + 3, c=c)
    spec = lhs_spec(one)
    _same_as_constructed(spec, NestedSumSpec(n, c + 3, c, spec.term))
