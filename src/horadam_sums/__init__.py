"""Exact evaluation and verification of nested sums over Horadam-type sequences.

The package evaluates multiple (nested) sums whose innermost summand involves
a second-order linear recurrence sequence, both by exact brute force and by
closed-form identities, and checks the two routes for bit-exact agreement.
All arithmetic is exact: arbitrary-precision rationals, extended with formal
square roots where closed forms pass through a quadratic extension.
"""

from __future__ import annotations

from .combinatorics import binom, binom_column_sum, nested_ones
from .exactnum import (DegenerateDiscriminantError, DivisionByZeroError,
                       MismatchedDiscriminantError, QuadExt,
                       ZeroToNegativePowerError)
from .identities import (FAMILIES, EvaluationReport, IdentityId, IdentityInstance,
                         InvalidInstanceError, SweepGrid, SweepSummary, default_grid,
                         evaluate_rhs, iter_sweep, lhs_spec, summarize, sweep, verify)
from .nestedcore import (DEFAULT_NAIVE_CAP, ONES, EvalCounter, NaiveCapExceededError,
                         NestedSumSpec, PoleError, SumTerm, f_closed, geometric_term,
                         master_E, oracle_nested, oracle_nested_naive)
from .sequences import (FIBONACCI, LUCAS, BinetView, HoradamParams, HoradamSequence,
                        first_kind_term, gibonacci, horadam,
                        lemma3_residual, lemma4_residual, lucas_first_kind,
                        lucas_second_kind, restricted, second_kind_term, term)

__version__ = "0.1.0"

__all__ = [
    "BinetView", "DEFAULT_NAIVE_CAP", "DegenerateDiscriminantError",
    "DivisionByZeroError", "EvalCounter", "EvaluationReport", "FAMILIES",
    "FIBONACCI", "HoradamParams", "HoradamSequence", "IdentityId",
    "IdentityInstance", "InvalidInstanceError", "LUCAS",
    "MismatchedDiscriminantError", "NaiveCapExceededError", "NestedSumSpec",
    "ONES", "PoleError", "QuadExt", "SumTerm",
    "SweepGrid", "SweepSummary", "ZeroToNegativePowerError",
    "binom", "binom_column_sum", "default_grid", "evaluate_rhs", "f_closed",
    "first_kind_term", "geometric_term", "gibonacci", "horadam",
    "iter_sweep", "lemma3_residual", "lemma4_residual", "lhs_spec",
    "lucas_first_kind", "lucas_second_kind",
    "master_E", "nested_ones", "oracle_nested",
    "oracle_nested_naive",
    "restricted", "second_kind_term", "summarize", "sweep", "term",
    "verify",
]
