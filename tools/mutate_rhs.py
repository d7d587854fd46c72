"""Mutation check of the closed-form evaluators, of the grid-line sharing,
of the preconditions, of the nested-sum oracle and its summand, of the
sequence terms and of the binomials.

    python3 tools/mutate_rhs.py

Each mutant changes one operator or constant in one target function:
``+`` and ``-`` swap, ``*`` and ``/`` swap, ``%`` becomes ``//``, ``**``
becomes ``*`` and ``//`` becomes ``/`` (augmented assignments included);
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
and ``and`` and ``or`` swap; each integer constant of the function's
body is raised by 1 (its signature, with defaults and annotations, is left
as it is); and a product ``x * y`` loses one operand, becoming ``x`` or
``y``, which is how a factor of an int-pair denominator goes missing. The
targets are the lifted master form of ``horadam_sums.identities``
(``evaluate_rhs``, which runs it at the tuple of each tag's theorem shape,
with ``_line_part``, which makes its line part ``_lifted_line`` at that
tuple, its point part ``_lifted_point`` with its reduction
``_lifted_reduced``, and their signed power ``_lifted_power``), and the
parts those tuples hold (every ``*_ratio_base``, which gives the ratio and
the base as int pairs, reading U, V, q and W as ints, with the index step
and multiplier, every ``*_term``, and ``_over_disc``), and every left-hand
``*_summand`` function, with its grid-line sharing (``evaluate_line``,
which validates a line once and makes its summand and line part once, the
validation in ``IdentityInstance.__post_init__``, the point copy
``IdentityInstance._at``, which carries those parts, and ``lhs_spec``,
which reads a point's summand or makes one), the
comparison and classification in ``verify``, and its
preconditions (``_violation`` and every ``_*_violation``), and, in
``horadam_sums.nestedcore``,
``oracle_nested`` (its int weights, one value per index, and its int
fold, Horner's rule in blocks where there is a base) with its chain counts
``_chain_counts`` (binomials) and ``_suffix_counts`` (one pass per level),
and the summand method ``SumTerm.value``, and the
geometric closed form ``master_E`` with its substitution ``f_closed``, and,
in ``horadam_sums.sequences``, the window of ``HoradamSequence`` (its
read ``exact``, which gives a term as the window holds it, an int when it
is integral, and ``term``, which gives it as a ``Fraction``, its policy
``_reaches``, its walk ``_walk``, the slot ``_slot`` a term is stored as,
the range of stored indices ``_memo`` read off its lists and the pair read
``exact_pair``), a summand's reader of its line ``Stride`` (``read``, the
window's own read, and ``_miss``, its walk within reach and past it its
cursor, stepped by the line's recurrence), and the window's far read
``_far``, which gives W[j], or W[j] and
W[j+1], as int pairs off the index-doubling ladder ``_lucas_pair``, with the
Lucas companions ``_lucas_terms`` read off that ladder as reduced int pairs
(``_lowest``) and their readers ``first_kind_pair`` and
``second_kind_pair``, and ``_steps``, the int recurrences upwards and
downwards that the walk, the far read and the companions share, and
``binom`` of ``horadam_sums.combinatorics``, and the grid's point count
``grid_size`` and its sweep axes (``_sweep_axes`` and ``sweep_lines``) of
``horadam_sums.identities``. An ``if``
mutated in its test is named by that test alone. The mutated function is
compiled against its live module and installed there (a method on its
class, a precondition or closed-form part also in every field of the theorem
shapes that hold it), so every caller (``evaluate_rhs`` through the registry,
validation, ``verify``, ``f_closed``, ``HoradamSequence.exact``, both oracles) runs it;
it is also bound to the names ``identities``, ``tests/_util.py``
and this script import it under, so a mutated ``oracle_nested`` is what the
closed forms are compared with and a mutated ``f_closed`` is what the Binet
route runs.

A mutant is killed when, for any tag whose evaluation (``verify``, both
sides) calls the mutated function (every tag, for the oracle, the
grid-line sharing and the sweep axes), a point of
the tier-1 deep-depth grid (``tests/test_identities.py::_deep_instances``),
of the tag's default-grid sweep or, for a tag without a fixed family, of its
sweep over rational p, q and seeds
(``tests/test_identities.py::rational_grid``) shows a mismatch, an error
report or an exception, or when it runs longer than ``TIMEOUT_S``. Every
built-in family is integral, so the rational sweep is what holds the
closed forms' int-pair denominators. It is also killed
when a report of either sweep differs in any field but the two times from
the unmutated run's (so a sweep with more or fewer points kills), when
``evaluate_point`` at a deep-depth point differs in
the same way from ``verify`` of it, when a deep-depth point rebuilt from
its own fields is not the same point, or when a
deep-depth point's closed form, evaluated first on a counter that already
holds a count, then on a fresh counter and on none (a point built alone
keeps no part, so each call makes its own), gives another value or adds
another count the second time than the first. A report's two times, which
no comparison reads, are judged apart: they must not be negative, must be
0 on a report that evaluated neither side, and must add up to no more
than the wall time of the ``verify`` call of a deep-depth point; and a
deep-depth point whose closed form raises ``ZeroDivisionError`` must give
an ``error`` report with the message, no values and both times 0. An
oracle mutant is also killed when, on a case
of ``tests/test_nestedcore.py::KERNEL_CASES``, its value, type or summand
count differs from the enumeration ``oracle_nested_naive`` (made once per
case; the long cases span one, two and several blocks of the fold), or
when, there, it calls ``SumTerm.value`` other than once per index, in
order, at an int weight bounded by the block, adds two ``Fraction``s, or,
with a summand that raises mid-range, counts other than the values made
before it. A summand
mutant is killed when ``SumTerm.value`` misses, in value or in exact type,
the product of a plain recurrence walk's term and the power ``base**k`` on
``SUMMAND_CASES``, or ``value(k) * w / base**k`` for an int weight w (the
walked term itself, at every int w, for a summand without a base);
or as a geometric one is, or when a closed form misses the oracle as above:
``oracle_nested_naive`` calls ``SumTerm.value`` too, so the kernel cases
cannot see it. A geometric
mutant is killed when ``master_E`` misses ``((x-1)/x)**n`` times the
oracle, or counts other than n binomial terms, on criterion 2's grid
(``tests/test_acceptance.py::master_grid``); when ``f_closed`` misses the
oracle on ``RATIONAL_XY``, as the sum of ``(x/y)**k`` and, at -x, of
``(-x/y)**k``; when a pole is not refused with ``PoleError``; or
when ``tests/_util.py::binet_route``, which runs every tag's left side
through ``f_closed``, misses the oracle, or keeps a surd part, on the tier-1
deep-depth grid of any tag. A sequence mutant is killed when
``HoradamSequence._far`` of a fresh sequence misses
``tests/_util.py::walk_terms``, a plain recurrence walk, at any j from
-300 to 300 on ``SEQUENCE_FAMILIES``, as W[j] alone or as the pair W[j]
and W[j+1], or
``_lucas_terms``, ``first_kind_pair`` or ``second_kind_pair`` miss the int
pairs, in lowest terms over a positive denominator, of the walks of
``lucas_first_kind`` and ``lucas_second_kind`` of those families' (p, q)
there, or when a fresh
``HoradamSequence`` misses it, in value or exact type (from ``exact`` an
int exactly when the term is integral, from ``term`` a ``Fraction``), on
the reads ``WINDOW_READS`` of each of those families, on the pair reads
``PAIR_READS`` (``exact_pair``, which must read as ``exact`` at j + 1
and then j when j + 1 is within reach, and store nothing otherwise) and
on reads a gap apart up to and past ``WINDOW_CAP`` on ``CAP_FAMILY``, or
is left with a window, in its bounds, its length or the terms its two
lists hold and their types, other than the walk policy gives, or when a
``Stride`` reader of a fresh window misses the walk, in value or exact type,
on the lines ``STRIDE_LINES`` of those families, past reach (where it must
store nothing) or in reach (where it must walk the window); both sides
of an identity read the same terms, so lhs == rhs cannot see a wrong one.
``_lucas_terms`` is judged through its ``__wrapped__``, past its cache,
and the cache is cleared after every mutant, so a pair made while a
mutant is installed is never read after it, and a pair cached before it
cannot hide it.
A ``binom`` mutant is killed when it misses
``tests/_util.py::falling_binom``, in value or in exact type (int), at any
top from -45 to 45 and k from 0 to 27, or when it no longer raises
``ValueError`` for a negative k.
A ``grid_size`` mutant is killed when it misses the number of points
``sweep_points`` yields, for any tag, on the tag's default grid (given as
None and as ``default_grid``) or on
``tests/test_identities.py::COUNTED_GRIDS``.
A precondition mutant is judged by verdicts alone, never by evaluating
either side: it is killed when the verdict (valid, or the
``InvalidInstanceError`` text) on one point of any default-grid line, or
of ``PRECONDITION_LINES``, differs from the unmutated code's; no
precondition reads a_n. Those lines also hold one coordinate a form does not
read off its default, which no default grid does, and F6a's refusals at
r = 0, D = 0 and U_r = 0 and F3's at V_r = 0, which no default grid meets.
A survivor listed in ``KNOWN_SURVIVORS`` is equivalent to the original, for
the reason given there. The script prints the mutant and kill counts and the
runtime, and exits 1 when any other mutant survives or a listed survivor is
stale, no longer made or now killed (2 when the unmutated code already
fails).
"""

from __future__ import annotations

import ast
import dataclasses
import signal
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import _util  # noqa: E402
import horadam_sums.combinatorics as cb  # noqa: E402
import horadam_sums.identities as ids  # noqa: E402
import horadam_sums.nestedcore as nc  # noqa: E402
import horadam_sums.sequences as sq  # noqa: E402
from horadam_sums.nestedcore import (EvalCounter, NestedSumSpec, PoleError,  # noqa: E402
                                     geometric_term, oracle_nested, oracle_nested_naive)
from test_acceptance import master_grid  # noqa: E402
from test_identities import (COUNTED_GRIDS, RATIONAL_TAGS, _deep_instances,  # noqa: E402
                             rational_grid)
from test_nestedcore import KERNEL_CASES  # noqa: E402

TIMEOUT_S = 60

# "function: mutated statement" -> why the mutant cannot change a value
KNOWN_SURVIVORS = {
    "_f7_ratio_base: return (_lowest(-top * cd, bottom * cn), _lowest(top * vd * bd, "
    "bottom * vn * bn), 1, 0)": "F7's term ignores its index, so the index step is unread",
    "_f7_ratio_base: return (_lowest(-top * cd, bottom * cn), _lowest(top * vd * bd, "
    "bottom * vn * bn), 0, 1)": "F7's term ignores its index, so the index multiplier is unread",
    "oracle_nested: num, den = (0, 2)": "any positive starting denominator is a "
    "common denominator of the partial sums, and the returned Fraction is normalised",
    "_lifted_power: return (u ** e, v ** e, v) if e > 0 else (v ** (-e), u ** (-e), u)":
    "at e = 0 both branches raise u and v to the power 0, which is 1, and a root read "
    "with it is stripped 0 times",
    "_lifted_power: return (u ** e, v ** e, v) if e >= 1 else (v ** (-e), u ** (-e), u)":
    "at e = 0 both branches raise u and v to the power 0, which is 1, and a root read "
    "with it is stripped 0 times",
    "_lifted_reduced: if den <= 0:": "den is a product of nonzero ints, so it is never 0",
    "_lifted_reduced: if den < 1:": "den is a nonzero int, so den < 1 is den < 0",
    "oracle_nested: scale_num, scale_den = (u ** lo, v ** lo) if lo > 0 else (v ** (-lo), "
    "u ** (-lo))": "at lo = 0 both branches raise u and v to the power 0, which is 1",
    "oracle_nested: scale_num, scale_den = (u ** lo, v ** lo) if lo >= 1 else (v ** (-lo), "
    "u ** (-lo))": "at lo = 0 both branches raise u and v to the power 0, which is 1",
    "HoradamSequence.exact: return self._up[j] if j > 0 else self._down[1 - j]":
    "at j = 0 both lists give the same W[0], since _down[1] is _up[0]",
    "HoradamSequence.exact: return self._up[j] if j >= 1 else self._down[1 - j]":
    "at j = 0 both lists give the same W[0], since _down[1] is _up[0]",
    "Stride.read: return self._up[j] if j > 0 else self._down[1 - j]":
    "at j = 0 both lists give the same W[0], since _down[1] is _up[0]",
    "Stride.read: return self._up[j] if j >= 1 else self._down[1 - j]":
    "at j = 0 both lists give the same W[0], since _down[1] is _up[0]",
    "Stride._miss: big_a, big_b, g = up if m > 0 else down": "at m = 0 either direction "
    "gives V_0 = 2, B**0 = 1 and g**0 = 1, so the cursor's steps are the same",
    "Stride._miss: big_a, big_b, g = up if m >= 1 else down": "at m = 0 either direction "
    "gives V_0 = 2, B**0 = 1 and g**0 = 1, so the cursor's steps are the same",
    "_chain_counts: if depth >= 2 and max(limits) == limits[0]:": "where no outer limit "
    "exceeds the innermost, the binomials and the passes give the same counts at any "
    "depth; the depth picks the cheaper",
    "_chain_counts: if depth > 3 and max(limits) == limits[0]:": "where no outer limit "
    "exceeds the innermost, the binomials and the passes give the same counts at any "
    "depth; the depth picks the cheaper",
    "HoradamSequence._walk: if j > 0:": "a walk's j lies outside [lo, hi], which holds 0 "
    "and 1, so j is never 0",
    "HoradamSequence._walk: if j >= 1:": "a walk's j lies outside [lo, hi], which holds 0 "
    "and 1, so j is never 0",
    "_lowest: return (num // g, den // g) if den >= 0 else (-num // g, -den // g)":
    "den is nonzero, so den >= 0 is den > 0",
    "_lucas_terms: if j <= 0:": "at j = 0 both branches give (U_0, V_0) = (0, 2) over 1",
    "_lucas_terms: if j < 1:": "at j = 0 both branches give (U_0, V_0) = (0, 2) over 1",
}

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.FloorDiv: ast.Div}
_COMPARE_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                  ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


ORACLE_TARGETS = ("oracle_nested", "_chain_counts", "_suffix_counts")
SUMMAND_TARGETS = ("SumTerm.value",)
GEOMETRIC_TARGETS = ("master_E", "f_closed")
SEQUENCE_TARGETS = ("_steps", "_lucas_pair", "_lowest", "_lucas_terms", "first_kind_pair",
                    "second_kind_pair", "_slot", "HoradamSequence.term", "HoradamSequence.exact",
                    "HoradamSequence.exact_pair", "HoradamSequence._reaches",
                    "HoradamSequence._walk", "HoradamSequence._far", "HoradamSequence._memo",
                    "Stride.read", "Stride._miss")
LINE_TARGETS = ("evaluate_line", "IdentityInstance.__post_init__", "IdentityInstance._at",
                "lhs_spec", "verify")
# the closed forms besides the parts of the theorem shapes' tuples (ratio and
# base, index step and multiplier, terms) and the left-hand summands
CLOSED_TARGETS = ("evaluate_rhs", "_line_part", "_over_disc")
CLOSED_PART_SUFFIXES = ("_ratio_base", "_term", "_summand")
BINOM_TARGETS = ("binom",)
GRID_TARGETS = ("grid_size",)
SWEEP_TARGETS = ("_sweep_axes", "sweep_lines")

# lines a precondition mutant is judged on besides the default grids': F3_G
# on a family of the wrong shape; (p, q) = (2, 2), whose V_2 = 0 stops F6 at
# (r, d) = (1, 1) as V_{r+d} and at (1, 2) as the weight base's V_d, and F3
# at r = 2, which no default grid's V_r meets; and one
# coordinate a form does not read off its default, each on a line that is
# valid at the default: H at c = 2, F3 at d = 1, F1a at r = 2, F7_r1d0_w at
# r = 2 and at d = -1; and F6a's first three refusals, which no default grid
# meets: r = 0, D = 0 on (p, q) = (2, 1), and U_3 = 0 on negative_d
_V2_ZERO = sq.horadam(1, 1, 2, 2)
_GIB31 = ids.FAMILIES["gibonacci31"]
PRECONDITION_LINES = ((ids.IdentityId.F3_G, ids.FAMILIES["generic"], 1, 2, 1, 1, 0, 0),
                      *((ident, _V2_ZERO, n, 3, 1, 1, 0, d) for d in (1, 2)
                        for ident, n in ((ids.IdentityId.F6A, 2), (ids.IdentityId.F6B, 1))),
                      (ids.IdentityId.H, None, 1, 2, 2, 1, 0, 0),
                      (ids.IdentityId.F3, ids.FAMILIES["fibonacci"], 1, 2, 1, 1, 0, 1),
                      (ids.IdentityId.F3, _V2_ZERO, 1, 2, 1, 2, 0, 0),
                      (ids.IdentityId.F1A, None, 1, 2, 1, 2, 0, 0),
                      (ids.IdentityId.F7_R1D0_W, _GIB31, 1, 2, 1, 2, 0, 0),
                      (ids.IdentityId.F7_R1D0_W, _GIB31, 1, 2, 1, 1, 0, -1),
                      (ids.IdentityId.F6A, ids.FAMILIES["integer_root"], 2, 3, 1, 0, 0, 0),
                      (ids.IdentityId.F6A, sq.horadam(1, 1, 2, 1), 2, 3, 1, 1, 0, 0),
                      (ids.IdentityId.F6A, ids.FAMILIES["negative_d"], 2, 3, 1, 3, 0, 0))

# a != 0 so both Lucas terms count, p not +-1 and rational p or q so the lcm
# scaling runs; the fourth has D = 0; the fifth has int p and q = 1 and a
# half-integral seed, so every walk stores its terms over the scale 2; the
# last is integral with p not +-1, so its upward walks run at the scale 1
SEQUENCE_FAMILIES = (sq.horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3)),
                     sq.horadam(2, Fraction(1, 3), 3, Fraction(7, 4)),
                     sq.horadam(-1, 2, Fraction(-3, 2), 2),
                     sq.horadam(1, 2, 3, Fraction(9, 4)),
                     sq.horadam(Fraction(1, 2), 3, 3, 1),
                     sq.horadam(1, 4, 3, 2))
# reads of a fresh window: unit steps, jumps to the gap's edge (walked and
# stored) and past it, by a gap and one and further (doubled, not stored),
# upwards then downwards, and last a stored term below 0 away from the
# window's edge
WINDOW_READS = (2, 3, 3 + sq.WALK_GAP, 4 + 3 * sq.WALK_GAP, 4 + 2 * sq.WALK_GAP,
                4 + sq.WALK_GAP, 1, -1, -2, -2 - sq.WALK_GAP, -3 - 3 * sq.WALK_GAP,
                -3 - 2 * sq.WALK_GAP, 0, -2 - sq.WALK_GAP, -1)
# pair reads of a fresh window: a near pair (walked), W[j+1] one past the
# gap's edge (doubled) and at it (walked to, W[j] then a hit), a far pair
# (doubled), W[j+1] at the lower gap's edge (walked to, W[j] one more step),
# W[j+1] one past it (doubled), and two stored pairs
PAIR_READS = (2, 3 + sq.WALK_GAP, 2 + sq.WALK_GAP, 4 * sq.WALK_GAP, -1 - sq.WALK_GAP,
              -3 - 2 * sq.WALK_GAP, 0, -1)
# an int family read up to its window cap, after one read below zero
CAP_FAMILY = sq.horadam(2, -1, 1, -1)
# lines j = m*k + 1 a summand's reader reads from a fresh window, as
# (m, first k): j and j - m start past the walk's gap, so the first read
# resets the cursor; runs of k then step it, jump back (a reset), read
# downwards (a reset at each k) and read one far index, and last the line's
# terms in reach walk the window
STRIDE_LINES = ((1, 70), (-1, 70), (2, 35), (-2, 35), (-3, 24))

# summands whose value SumTerm.value must give: rational bases (one of them
# with a numerator other than 1), a negative base, an index multiplier other
# than 1, negative indices with non-integral terms, no sequence, and no base
# on a family whose window holds ints (k <= 1) and Fractions (k >= 2)
SUMMAND_CASES = (nc.SumTerm(seq=SEQUENCE_FAMILIES[0], index_mul=2, index_add=-1,
                            weight_base=Fraction(2, 3)),
                 nc.SumTerm(seq=sq.horadam(1, 4, 3, 2), index_mul=1, index_add=0,
                            weight_base=Fraction(3, 2)),
                 nc.SumTerm(seq=sq.horadam(1, 4, 3, 2), index_mul=-1, index_add=1),
                 nc.SumTerm(weight_base=Fraction(-5, 2)),
                 nc.SumTerm())
SUMMAND_WEIGHTS = (1, 3, 2 ** 12)

# (x, y) for f_closed, and (-x, y) for its alternating sum, against the
# oracle; 1 and -1 are there so that a pole check moved onto them is caught
_VALUES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))
RATIONAL_XY = [(x, y) for x, y in product(_VALUES, repeat=2) if x != y and x != -y]
POLES = (("master_E", (Fraction(0),)), ("master_E", (Fraction(1),)),
         ("f_closed", (Fraction(0), Fraction(2))), ("f_closed", (Fraction(2), Fraction(0))),
         ("f_closed", (Fraction(2), Fraction(2))))


def _is_target(module, name: str) -> bool:
    if module is sq:
        return name in SEQUENCE_TARGETS
    if module is cb:
        return name in BINOM_TARGETS
    if module is nc:
        return name in ORACLE_TARGETS + GEOMETRIC_TARGETS + SUMMAND_TARGETS
    return name.startswith("_lifted") or name.endswith(CLOSED_PART_SUFFIXES + ("_violation",)) \
        or name in CLOSED_TARGETS + LINE_TARGETS + GRID_TARGETS + SWEEP_TARGETS


def _targets(module) -> list:
    """(module, owner, function node) for each target of ``module``: the
    owner is the class of a method target, else the module itself."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = [(module, module, node) for node in tree.body
             if isinstance(node, ast.FunctionDef) and _is_target(module, node.name)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found += [(module, getattr(module, cls.name), node) for node in cls.body
                      if isinstance(node, ast.FunctionDef)
                      and _is_target(module, f"{cls.name}.{node.name}")]
    return found


def _is_product(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def _sites(func: ast.FunctionDef) -> list:
    """Every mutable (node, field, replacement) in the body of ``func``,
    statement by statement; the signature's defaults and annotations, which
    no statement holds, are left out. A product ``x * y`` is also replaced,
    in the field of the node that holds it, by ``x`` and by ``y``."""
    sites = []
    for node in (node for stmt in func.body for node in ast.walk(stmt)):
        for name, value in ast.iter_fields(node):
            if _is_product(value):
                sites += [(node, name, operand) for operand in (value.left, value.right)]
            elif isinstance(value, list):
                sites += [(node, name, value[:i] + [operand] + value[i + 1:])
                          for i, item in enumerate(value) if _is_product(item)
                          for operand in (item.left, item.right)]
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            sites.append((node, "op", _SWAPS[type(node.op)]()))
        elif isinstance(node, ast.BoolOp):
            sites.append((node, "op", _BOOL_SWAPS[type(node.op)]()))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _COMPARE_SWAPS:
                    ops = list(node.ops)
                    ops[i] = _COMPARE_SWAPS[type(op)]()
                    sites.append((node, "ops", ops))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((node, "value", node.value + 1))
    return sites


def _statement(func: ast.FunctionDef, node: ast.AST) -> str:
    """The innermost statement of ``func`` that holds ``node``, unparsed; an
    ``if`` whose test holds it is given by its test alone."""
    best = None
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.stmt) and stmt is not func and any(
                child is node for child in ast.walk(stmt)):
            best = stmt
    if isinstance(best, ast.If) and any(child is node for child in ast.walk(best.test)):
        return f"if {ast.unparse(best.test)}:"
    return ast.unparse(best)


def _callers(names: set) -> dict:
    """For each target function, the tags whose evaluation (``verify``, both
    sides) calls it."""
    callers = {name: [] for name in names}
    for ident in ids.IdentityId:
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == ids.__file__:
                seen.add(frame.f_code.co_name)

        one = _deep_instances(ident)[0]
        sys.setprofile(profile)
        try:
            ids.verify(one)
        finally:
            sys.setprofile(None)
        for name in seen & names:
            callers[name].append(ident)
    return callers


def _rebind(name: str, fn) -> None:
    """Point ``name`` in ``identities``, ``tests/_util.py`` and this script,
    where it is imported, at ``fn``."""
    for namespace in (ids.__dict__, _util.__dict__, globals()):
        if name in namespace:
            namespace[name] = fn


def _install(module, owner, func: ast.FunctionDef) -> None:
    """Compile ``func`` against its live module, set it on ``owner`` (the
    module, or the class of a method) and point every theorem-shape field
    that held the function, and the imported names, at the result."""
    code = compile(ast.Module(body=[func], type_ignores=[]), module.__file__, "exec")
    compiled = {}
    exec(code, module.__dict__, compiled)
    original = vars(owner)[func.name]
    mutant = compiled[func.name]
    setattr(owner, func.name, mutant)
    if owner is not module:
        return
    for ident, record in ids._REGISTRY.items():
        shape = record.shape
        held = {field.name: mutant for field in dataclasses.fields(shape)
                if getattr(shape, field.name) is original}
        if held:
            ids._REGISTRY[ident] = dataclasses.replace(
                record, shape=dataclasses.replace(shape, **held))
    _rebind(func.name, mutant)


# the enumeration of each kernel case, made once: uncapped, it calls neither
# oracle_nested nor _chain_counts, so no oracle mutant can change it
_naive = lru_cache(maxsize=None)(lambda spec: oracle_nested_naive(spec, cap=None))


def _kernel_broken() -> bool:
    """True when the oracle disagrees with the naive enumeration on a kernel
    case, in value, type or count, or calls ``SumTerm.value`` other than once
    per index of the innermost range, in order, at an int weight u**(k - s)
    bounded by the block, as ``TestSummandCalls`` pins: 1 without a base; or
    adds two ``Fraction``s, where its fold keeps to ints; or when a summand
    that raises at the range's middle index does not leave the count of the
    values made before it."""
    calls = []
    value = nc.SumTerm.value
    adds = Fraction.__add__, Fraction.__radd__
    pole = None

    def no_add(*args):
        raise TypeError("the fold added Fractions")

    def counted(summand, k, weight=None):
        if k == pole:
            raise ZeroDivisionError(f"summand pole at k = {k}")
        calls.append((k, weight))
        return value(summand, k, weight)

    nc.SumTerm.value = counted
    try:
        for spec in KERNEL_CASES:
            slow = _naive(spec)  # its own calls, once per tuple, are not counted
            calls.clear()
            counter = EvalCounter()
            Fraction.__add__ = Fraction.__radd__ = no_add
            try:
                fast = oracle_nested(spec, counter=counter)
            finally:
                Fraction.__add__, Fraction.__radd__ = adds
            limits = spec.lower_limits
            reached = spec.upper >= limits[-1]
            count = sum(max(0, spec.upper - limit + 1) for limit in limits) if reached else 0
            if type(fast) is not type(slow) or fast != slow or counter.count != count:
                return True
            base = spec.term._base
            bound = 1 if base is None else abs(base.numerator) ** (nc._BLOCK - 1)
            indices = range(limits[0], spec.upper + 1) if reached else ()
            if [k for k, _ in calls] != list(indices) \
                    or any(type(w) is not int or abs(w) > bound for _, w in calls):
                return True
            if indices:
                pole = indices[len(indices) // 2]
                counter = EvalCounter()
                try:
                    oracle_nested(spec, counter=counter)
                except ZeroDivisionError:
                    if counter.count != pole - limits[0]:
                        return True
                else:
                    return True
                finally:
                    pole = None
    finally:
        nc.SumTerm.value = value
    return False


def _geometric_broken() -> bool:
    """True when the geometric closed forms miss the oracle, a pole goes
    unrefused, or a Binet route misses the oracle (see the module docstring)."""
    for x, n, a_n, c in master_grid():
        counter = EvalCounter()
        value = nc.master_E(x, n, a_n, c, counter)
        spec = NestedSumSpec(n, a_n, c, geometric_term(x))
        if value != ((x - 1) / x) ** n * oracle_nested(spec) or counter.count != n:
            return True
    for (x, y), n, c in product(RATIONAL_XY, range(1, 4), (-1, 1)):
        for a_n in range(c - 1, c + 5):
            for sign in (1, -1):
                spec = NestedSumSpec(n, a_n, c, geometric_term(sign * x / y))
                if nc.f_closed(sign * x, y, n, a_n, c) != oracle_nested(spec):
                    return True
    for name, args in POLES:
        try:
            nc.__dict__[name](*args, 2, 3, 1)
        except PoleError:
            continue
        return True
    for ident in ids.IdentityId:
        for one in _deep_instances(ident):
            spec = ids.lhs_spec(one)
            # a QuadExt equals a Fraction only when its surd part is zero
            if _util.binet_route(spec) != oracle_nested(spec):
                return True
    return False


def _summand_broken() -> bool:
    """True when ``SumTerm.value`` misses, in value or exact type, a walked
    term times ``base**k`` (``tests/_util.py::summand_fn``), or
    ``value(k) * w / base**k`` for an int weight ``w`` (an int exactly when
    that is integral); a summand without a base reads only whether ``w`` is
    an int, so it must give the walked term itself at every int ``w``."""
    for summand in SUMMAND_CASES:
        expected_at = _util.summand_fn(summand)
        for k in range(-12, 13):
            expected = expected_at(k)
            value = summand.value(k)
            if value != expected or type(value) is not Fraction:
                return True
            for weight in SUMMAND_WEIGHTS:
                scaled = expected if summand.weight_base is None \
                    else expected * weight / summand.weight_base ** k
                value = summand.value(k, weight)
                if value != scaled or type(value) is not (
                        int if scaled.denominator == 1 else Fraction):
                    return True
    return False


# the plain walks the sequence mutants are held to, made once per family
_walked = lru_cache(maxsize=None)(_util.walk_terms)


def _exact_type(value: Fraction) -> type:
    """int when ``value`` is integral, else Fraction: how a window holds it."""
    return int if value.denominator == 1 else Fraction


def _window_broken(seq, walked: dict, reads, pairs: bool = False) -> bool:
    """True when a read of ``seq`` misses ``walked`` in value or exact type
    (``exact`` an int exactly when the term is integral, ``term`` a
    Fraction), or leaves a window other than the one the walk policy gives:
    a read within ``WALK_GAP`` of the window's edge that keeps it under
    ``WINDOW_CAP`` terms extends it to the index; any other read leaves it.
    With ``pairs``, each read is ``exact_pair(j)``, which must give
    ``exact(j)`` and ``exact(j + 1)`` and, when j + 1 is within reach, leave
    the window the reads of j + 1 and then j leave, else leave it as it is.
    The window [lo, hi] is held as ``_up``, W[0..hi] in order, and
    ``_down``, W[1], W[0], W[-1], ... down to W[lo], each slot in its
    term's exact type."""
    lo, hi = 0, 1

    def reaches(j: int) -> bool:
        return lo - sq.WALK_GAP <= j <= hi + sq.WALK_GAP and max(hi, j) - min(lo, j) < sq.WINDOW_CAP

    for j in reads:
        if pairs:
            values = seq.exact_pair(j)
            if values != (walked[j], walked[j + 1]) or [type(x) for x in values] != [
                    _exact_type(walked[j]), _exact_type(walked[j + 1])]:
                return True
            stored = (j + 1, j) if reaches(j + 1) else ()
        else:
            value = seq.exact(j)
            if value != walked[j] or type(value) is not _exact_type(walked[j]):
                return True
            value = seq.term(j)
            if value != walked[j] or type(value) is not Fraction:
                return True
            stored = (j,)
        for i in stored:
            if reaches(i):
                lo, hi = min(lo, i), max(hi, i)
        if (seq._memo[0], seq._memo[-1]) != (lo, hi) or len(seq._memo) != hi - lo + 1:
            return True
    slots = [*zip(seq._up, range(hi + 1)), *zip(seq._down, range(1, lo - 1, -1))]
    return seq._up != [walked[k] for k in range(hi + 1)] \
        or seq._down != [walked[k] for k in range(1, lo - 1, -1)] \
        or any(type(slot) is not _exact_type(walked[k]) for slot, k in slots)


def _companions_broken(params) -> bool:
    """True when ``_lucas_terms``, past its cache, or its readers
    ``first_kind_pair`` and ``second_kind_pair`` miss the walks of U and V
    on the (p, q) of ``params`` at any j from -300 to 300: each must be the
    int pair of the walked Fraction, in lowest terms over a positive
    denominator."""
    lucas_terms = sq._lucas_terms.__wrapped__
    walked_u = _walked(sq.lucas_first_kind(params.p, params.q), -300, 300)
    walked_v = _walked(sq.lucas_second_kind(params.p, params.q), -300, 300)
    for j in range(-300, 301):
        expected = ((walked_u[j].numerator, walked_u[j].denominator),
                    (walked_v[j].numerator, walked_v[j].denominator))
        for pairs in (lucas_terms(params._pq, j),
                      (sq.first_kind_pair(params, j), sq.second_kind_pair(params, j))):
            if pairs != expected or any(type(x) is not int for pair in pairs for x in pair):
                return True
    return False


def _stride_broken(params, walked: dict) -> bool:
    """True when a summand's reader of a fresh window (``Stride.read``)
    misses ``walked`` in value or exact type on a line of ``STRIDE_LINES``,
    stores a term it read past reach, or leaves a term it read in reach
    unstored. Its runs past reach step and reset the cursor, and no other
    read reaches those indices."""
    for step, first in STRIDE_LINES:
        seq = sq.HoradamSequence(params)
        read = sq.Stride(seq, step).read
        runs = (range(first, first + 30), range(first + 5, first + 15),
                range(first + 40, first + 34, -1), (first + 60,))
        for k in (k for run in runs for k in run):
            j = step * k + 1
            value = read(j)
            if value != walked[j] or type(value) is not _exact_type(walked[j]):
                return True
        if seq._memo != range(0, 2):
            return True
        for k in range(-12 // abs(step), 12 // abs(step)):
            j = step * k + 1
            value = read(j)
            if value != walked[j] or type(value) is not _exact_type(walked[j]) \
                    or j not in seq._memo:
                return True
    return False


def _sequence_broken() -> bool:
    """True when ``HoradamSequence._far``, one term or a pair, or
    ``_lucas_terms`` misses a plain recurrence walk, or a fresh window's
    reads, one term or one pair at a time, do (see :func:`_window_broken`),
    or a summand's reader does on a line (see :func:`_stride_broken`)."""
    for params in SEQUENCE_FAMILIES:
        walked = _walked(params, -301, 301)
        far = sq.HoradamSequence(params)._far
        for j in range(-300, 301):
            (an, ad), (bn, bd) = far(j, pair=True)
            if Fraction(*far(j)) != walked[j] \
                    or (Fraction(an, ad), Fraction(bn, bd)) != (walked[j], walked[j + 1]):
                return True
        if _companions_broken(params):
            return True
        if _window_broken(sq.HoradamSequence(params), walked, WINDOW_READS):
            return True
        if _window_broken(sq.HoradamSequence(params), walked, PAIR_READS, pairs=True):
            return True
        if _stride_broken(params, walked):
            return True
    reads = [-sq.WALK_GAP, *range(sq.WALK_GAP, sq.WINDOW_CAP + 2 * sq.WALK_GAP, sq.WALK_GAP)]
    return _window_broken(sq.HoradamSequence(CAP_FAMILY),
                          _walked(CAP_FAMILY, reads[0], reads[-1]), reads)


# C(top, k) for every (top, k) a binom mutant is held to
BINOMS = {(top, k): _util.falling_binom(top, k) for top in range(-45, 46) for k in range(28)}


def _binom_broken() -> bool:
    """True when ``binom`` misses the falling-factorial definition, in value
    or exact type, or returns for a negative k instead of raising."""
    for (top, k), expected in BINOMS.items():
        value = cb.binom(top, k)
        if value != expected or type(value) is not int:
            return True
    for top in (-3, 0, 3):
        try:
            cb.binom(top, -1)
        except ValueError:
            continue
        return True
    return False


def _grid_size_broken() -> bool:
    """True when ``grid_size`` misses the number of points ``sweep_points``
    yields on a tag's default grid or on ``COUNTED_GRIDS``."""
    for ident in ids.IdentityId:
        for grid in (None, ids.default_grid(ident), *COUNTED_GRIDS):
            if ids.grid_size(ident, grid) != len(list(ids.sweep_points(ident, grid))):
                return True
    return False


def _verdicts() -> list:
    """The verdict on one point of each default-grid line and of
    ``PRECONDITION_LINES``: None when the point is valid, else the
    ``InvalidInstanceError`` text. No precondition reads a_n, and neither
    side is evaluated."""
    points = [(ident, params, n, a_values[0], c, r, s, d) for ident in ids.IdentityId
              for params, n, a_values, c, r, s, d in ids.sweep_lines(ident, None)]
    verdicts = []
    for point in points + list(PRECONDITION_LINES):
        try:
            ids.IdentityInstance(*point)
        except ids.InvalidInstanceError as exc:
            verdicts.append(str(exc))
        else:
            verdicts.append(None)
    return verdicts


def _fields(report) -> tuple:
    """Every field of a report but its two times."""
    return tuple(getattr(report, f.name) for f in dataclasses.fields(report)
                 if f.name not in ("oracle_ns", "closed_ns"))


def _times_wrong(report, elapsed: Optional[int] = None) -> bool:
    """True when a report's two times are negative, are not both 0 on a
    report that evaluated neither side (skipped or error), or add up to
    more than ``elapsed``, the wall time of the call that made the report."""
    times = (report.oracle_ns, report.closed_ns)
    if min(times) < 0 or (report.classification in (ids.CLASS_SKIPPED, ids.CLASS_ERROR)
                          and any(times)):
        return True
    return elapsed is not None and sum(times) > elapsed


def _error_report_wrong() -> bool:
    """True when a point whose closed form raises ``ZeroDivisionError`` does
    not give an ``error`` report with the message as its detail, no values
    and both times 0."""
    one = _deep_instances(ids.IdentityId.F3)[0]
    real = ids.evaluate_rhs

    def pole(inst, counter=None):
        raise ZeroDivisionError("pole here")

    ids.evaluate_rhs = pole
    try:
        report = ids.verify(one)
    finally:
        ids.evaluate_rhs = real
    return (report.classification, report.detail, report.lhs, report.rhs, report.equal) \
        != (ids.CLASS_ERROR, "pole here", None, None, None) or _times_wrong(report)


def _killed(tags: list, swept: dict, oracle: bool = False) -> bool:
    """True when a tag's deep-depth points, default sweep or rational sweep
    fail (see the module docstring), or its sweeps' reports differ from
    ``swept[tag]`` but in their times; a tag not yet there has its reports
    recorded."""
    if oracle and _kernel_broken() or _error_report_wrong():
        return True
    for ident in tags:
        for one in _deep_instances(ident):
            # rebuilt from its own fields (a fixed tag's family then given,
            # not None), a point is the same point
            if dataclasses.replace(one) != one:
                return True
            # each call makes the point's own line part: on a counter that
            # already holds a count, on a fresh counter and on none
            used, fresh = EvalCounter(1), EvalCounter()
            value = ids.evaluate_rhs(one, used)
            if value != oracle_nested(ids.lhs_spec(one)) or value != ids.evaluate_rhs(one, fresh) \
                    or value != ids.evaluate_rhs(one) or used.count - 1 != fresh.count:
                return True
            start = time.perf_counter_ns()
            report = ids.verify(one)
            if _times_wrong(report, time.perf_counter_ns() - start):
                return True
            coords = (one.params, one.n, one.a_n, one.c, one.r, one.s, one.d)
            if _fields(ids.evaluate_point(ident, *coords)) != _fields(report):
                return True
        reports = []
        for grid in (None, rational_grid(ident)) if ident in RATIONAL_TAGS else (None,):
            for report in ids.iter_sweep(ident, grid):
                if report.classification in (ids.CLASS_MISMATCH, ids.CLASS_ERROR) \
                        or _times_wrong(report):
                    return True
                reports.append(_fields(report))
        if swept.setdefault(ident, reports) != reports:
            return True
    return False


def _on_alarm(signum, frame):
    raise TimeoutError


def main() -> int:
    start = time.perf_counter()
    funcs = _targets(ids) + _targets(nc) + _targets(sq) + _targets(cb)
    registry = dict(ids._REGISTRY)
    callers = _callers({func.name for module, owner, func in funcs if module is ids})
    callers.update({name: list(ids.IdentityId)
                    for name in ORACLE_TARGETS + LINE_TARGETS + SWEEP_TARGETS})
    swept: dict = {}
    verdicts = _verdicts()
    if _killed(list(ids.IdentityId), swept, oracle=True) or _geometric_broken() \
            or _summand_broken() or _sequence_broken() or _binom_broken() \
            or _grid_size_broken():
        print("the unmutated code already fails the check")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    total = killed = 0
    survivors = []
    for module, owner, func in funcs:
        original = vars(owner)[func.name]
        name = func.name if owner is module else f"{owner.__name__}.{func.name}"
        for node, field, replacement in _sites(func):
            saved = getattr(node, field)
            setattr(node, field, replacement)
            key = f"{name}: {_statement(func, node)}"
            total += 1
            signal.alarm(TIMEOUT_S)
            try:
                _install(module, owner, func)
                if func.name in GEOMETRIC_TARGETS:
                    dead = _geometric_broken()
                elif module is sq:
                    dead = _sequence_broken()
                elif module is cb:
                    dead = _binom_broken()
                elif name in GRID_TARGETS:
                    dead = _grid_size_broken()
                elif name.endswith("_violation"):
                    dead = _verdicts() != verdicts
                elif name in SUMMAND_TARGETS:
                    dead = _summand_broken() or _killed(list(ids.IdentityId), swept) \
                        or _geometric_broken()
                else:
                    dead = _killed(callers[name], swept, oracle=module is nc)
            except Exception:  # a crash or a timeout kills the mutant
                dead = True
            finally:
                signal.alarm(0)
                setattr(node, field, saved)
                setattr(owner, func.name, original)
                # no (U, V) pair made under the mutant is read after it
                sq._lucas_terms.cache_clear()
                if owner is module:
                    ids._REGISTRY.update(registry)
                    _rebind(func.name, original)
            if dead:
                killed += 1
            else:
                survivors.append(key)
    elapsed = time.perf_counter() - start
    new = [key for key in survivors if key not in KNOWN_SURVIVORS]
    stale = sorted(set(KNOWN_SURVIVORS) - set(survivors))
    for key in survivors:
        print(f"{'NEW SURVIVOR' if key in new else 'equivalent'}: {key}"
              + ("" if key in new else f"  ({KNOWN_SURVIVORS[key]})"))
    for key in stale:
        print(f"STALE: known survivor no longer generated or now killed: {key}")
    print(f"{total} mutants, {killed} killed, {len(survivors)} survived "
          f"({len(new)} new, {len(stale)} stale), {elapsed:.1f} s")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
