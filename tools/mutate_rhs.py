"""Mutation check of the package: each wrong variant of a target function
must be killed by the judge of the group that holds it.

    python3 tools/mutate_rhs.py

``GROUPS`` holds one row per group of targets: its module, the functions it
holds, whether its judge evaluates every tag, and the judge; the docstrings
of the functions a judge calls give the group's kill rule.

Each mutant changes one operator or constant in one target function:
``+`` and ``-`` swap, ``*`` and ``/`` swap, ``%`` becomes ``//``, ``**``
becomes ``*`` and ``//`` becomes ``/`` (augmented assignments included);
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
and ``and`` and ``or`` swap; each integer constant of the function's
body is raised by 1 (its signature, with defaults and annotations, is left
as it is); and a product ``x * y`` loses one operand, becoming ``x`` or
``y``, which is how a factor of an int-pair denominator goes missing. A
mutant is named by its function and the statement it changes; an ``if``
mutated in its test is named by that test alone.

The mutated function is compiled against its live module and installed
there (a method on its class, a module function also in every field of the
theorem shapes that hold it), so every caller (``evaluate_rhs`` through
the registry, validation, ``verify``, ``f_closed``,
``HoradamSequence.exact``, both oracles) runs it; it is also bound to the
names ``identities``, ``tests/_util.py`` and this script import it under,
so a mutated ``oracle_nested`` is what the closed forms are compared with
and a mutated ``f_closed`` is what the Binet route runs.

A mutant is killed when its judge returns True, raises, or runs longer
than ``TIMEOUT_S``. Before any mutant, the unmutated code must pass every
judge on every tag, and what it gives is recorded then for the judges that
compare with it. A survivor listed in ``KNOWN_SURVIVORS`` is equivalent to
the original, for the reason given there. The script prints the mutant
and kill counts and the runtime, in all and for each group, and exits 0,
or 1 when any other mutant survives or a listed survivor is stale (no
longer made, or now killed), or 2 when the unmutated code already fails a
judge.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import signal
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import _util  # noqa: E402
import horadam_sums.cli as cli  # noqa: E402
import horadam_sums.combinatorics as cb  # noqa: E402
import horadam_sums.exactnum as en  # noqa: E402
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
    "Stride.past: big_a, big_b, g = up if m > 0 else down": "at m = 0 either direction "
    "gives V_0 = 2, B**0 = 1 and g**0 = 1, so the cursor's steps are the same",
    "Stride.past: big_a, big_b, g = up if m >= 1 else down": "at m = 0 either direction "
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
    "check_cost: heaviest = 1": "a side of 1 bit weighs as one of 0: 1 // FAR_BITS_PER_WEIGHT "
    "is 0",
    "check_points: total += sum((t for t in tuples if t < DEFAULT_NAIVE_CAP))": "no point "
    "that check_cost accepts has exactly DEFAULT_NAIVE_CAP tuples: no C(size + n - 1, n) "
    "with n * size <= MAX_ORACLE_TERMS is 500,000",
    "QuadExt.__pow__: if exponent <= 0:": "an exponent of 0 has returned above, so "
    "exponent <= 0 is exponent < 0",
    "QuadExt.__pow__: if exponent < 1:": "an exponent of 0 has returned above, so "
    "exponent < 1 is exponent < 0",
    "QuadExt.__str__: sign = '+' if self._v > 0 else '-'": "a surd part of 0 has "
    "returned above, so v > 0 is v >= 0",
}

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.FloorDiv: ast.Div}
_COMPARE_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                  ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


class Group(NamedTuple):
    """A row of ``GROUPS``: the functions of ``module`` that ``targets``
    names (``Class.method`` for a method), or that it holds true of when it
    is a rule on names, and the judge of their mutants. The judge is given
    the tags to evaluate, every tag with ``every_tag``, else those whose
    evaluation calls the mutated function, and the dict where it records
    what the unmutated code gives, on its first call, and reads it back. It
    returns True to kill."""

    name: str
    module: object
    targets: object
    every_tag: bool
    judge: Callable[[list, dict], bool]

    def holds(self, name: str) -> bool:
        return self.targets(name) if callable(self.targets) else name in self.targets


GROUPS = (
    Group("preconditions", ids, lambda name: name.endswith("_violation"), False,
          lambda tags, baseline: _verdicts_changed(baseline, "preconditions", ids,
                                                   _precondition_cases(),
                                                   ids.InvalidInstanceError)),
    # the lifted master form, the parts its theorem shapes' tuples hold (ratio
    # and base, index step and multiplier, terms), the left-hand summands,
    # and the grid-line sharing, the comparison in verify and the sweep axes
    Group("closed forms", ids,
          lambda name: name.startswith("_lifted")
          or name.endswith(("_ratio_base", "_term", "_summand"))
          or name in ("evaluate_rhs", "_line_part", "_over_disc", "evaluate_line",
                      "IdentityInstance.__post_init__", "IdentityInstance._at", "lhs_spec",
                      "verify", "_sweep_axes", "sweep_lines"),
          False, lambda tags, baseline: _killed(tags, baseline)),
    Group("grid", ids, ("grid_size",), False, lambda tags, baseline: _grid_size_broken()),
    Group("oracle", nc, ("oracle_nested", "_chain_counts", "_suffix_counts"), True,
          lambda tags, baseline: _killed(tags, baseline, oracle=True)),
    Group("geometric", nc, ("master_E", "f_closed"), False,
          lambda tags, baseline: _geometric_broken()),
    Group("summand", nc, ("SumTerm.value",), True,
          lambda tags, baseline: _summand_broken() or _killed(tags, baseline)
          or _geometric_broken()),
    Group("sequence", sq,
          ("_steps", "_lucas_pair", "_lowest", "_lucas_terms", "first_kind_pair",
           "second_kind_pair", "_slot", "_on_scale", "HoradamSequence.term",
           "HoradamSequence.exact", "HoradamSequence.exact_pair", "HoradamSequence._reaches",
           "HoradamSequence._walk", "HoradamSequence._far", "HoradamSequence._memo",
           "Stride.past"),
          False, lambda tags, baseline: _sequence_broken()),
    # the lemma residuals are left out: tier-1's TestLemma3 fails one made zero
    Group("binet", sq, ("BinetView.__init__", "BinetView.project", "BinetView.term"), False,
          lambda tags, baseline: _binet_broken()),
    Group("binom", cb, ("binom",), False, lambda tags, baseline: _binom_broken()),
    Group("gates", cli, ("parse_int_set", "_family_list", "_point_family", "check_cost",
                         "check_points", "_check_bench_flags"), False,
          lambda tags, baseline: _verdicts_changed(baseline, "gates", cli, GATE_CASES,
                                                   argparse.ArgumentTypeError)),
    Group("ring", en, lambda name: name.startswith("QuadExt."), False,
          lambda tags, baseline: _ring_broken(baseline)),
)

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


def _targets() -> list:
    """(group, owner, function node) for every function a row of ``GROUPS``
    holds, module by module in the rows' order, each module's functions in
    file order and then its classes' methods: the owner is the class of a
    method, else the module."""
    found = []
    for module in dict.fromkeys(group.module for group in GROUPS):
        tree = ast.parse(Path(module.__file__).read_text())
        scopes = [(module, "", tree)] + [(getattr(module, cls.name), f"{cls.name}.", cls)
                                         for cls in tree.body if isinstance(cls, ast.ClassDef)]
        found += [(group, owner, node) for owner, prefix, scope in scopes
                  for node in scope.body if isinstance(node, ast.FunctionDef)
                  for group in GROUPS if group.module is module and group.holds(prefix + node.name)]
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
    """For each function name of ``names``, the tags whose evaluation calls
    a function of ``identities`` by that name: a deep-depth point's, made
    as a sweep makes it (``evaluate_point``: validation, both sides and
    ``verify``), with the tag's default grid lines."""
    callers = {name: [] for name in names}
    for ident in ids.IdentityId:
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == ids.__file__:
                seen.add(frame.f_code.co_name)

        one = _deep_instances(ident)[0]
        sys.setprofile(profile)
        try:
            ids.evaluate_point(ident, one.params, one.n, one.a_n, one.c, one.r, one.s, one.d)
            list(ids.sweep_lines(ident))
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
    """True when the oracle disagrees with ``oracle_nested_naive`` on a case
    of ``tests/test_nestedcore.py::KERNEL_CASES`` (the long cases span one,
    two and several blocks of the fold), in value, type or count, or calls
    ``SumTerm.value`` other than once per index of the innermost range, in
    order, at an int weight u**(k - s) bounded by the block, as
    ``TestSummandCalls`` pins: 1 without a base; or adds two ``Fraction``s,
    where its fold keeps to ints; or when a summand that raises at the
    range's middle index does not leave the count of the values made before
    it."""
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
    """True when ``master_E`` misses ``((x-1)/x)**n`` times the oracle, or
    counts other than n binomial terms, on criterion 2's grid
    (``tests/test_acceptance.py::master_grid``); when ``f_closed`` misses
    the oracle on ``RATIONAL_XY``, as the sum of ``(x/y)**k`` and, at -x, of
    ``(-x/y)**k``; when a pole of ``POLES`` is not refused with
    ``PoleError``; or when ``tests/_util.py::binet_route``, which runs every
    tag's left side through ``f_closed``, misses the oracle on the tier-1
    deep-depth grid of any tag."""
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
            if _util.binet_route(spec) != oracle_nested(spec):
                return True
    return False


def _summand_broken() -> bool:
    """True when ``SumTerm.value`` misses, in value or exact type, a walked
    term times ``base**k`` (``tests/_util.py::summand_fn``), or
    ``value(k) * w / base**k`` for an int weight ``w`` (an int exactly when
    that is integral); a summand without a base reads only whether ``w`` is
    an int, so it must give the walked term itself at every int ``w``. Its
    group's judge also runs :func:`_killed` on every tag and
    :func:`_geometric_broken`: ``oracle_nested_naive`` calls
    ``SumTerm.value`` too, so the kernel cases cannot see a wrong one."""
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
    """True when a summand's read of a fresh window, ``exact(j, line)`` with
    the line's ``Stride``, misses ``walked`` in value or exact type on a line
    of ``STRIDE_LINES``,
    stores a term it read past reach, or leaves a term it read in reach
    unstored. Its runs past reach step and reset the cursor, and no other
    read reaches those indices."""
    for step, first in STRIDE_LINES:
        seq = sq.HoradamSequence(params)
        line = sq.Stride(seq, step)
        runs = (range(first, first + 30), range(first + 5, first + 15),
                range(first + 40, first + 34, -1), (first + 60,))
        for k in (k for run in runs for k in run):
            j = step * k + 1
            value = seq.exact(j, line)
            if value != walked[j] or type(value) is not _exact_type(walked[j]):
                return True
        if seq._memo != range(0, 2):
            return True
        for k in range(-12 // abs(step), 12 // abs(step)):
            j = step * k + 1
            value = seq.exact(j, line)
            if value != walked[j] or type(value) is not _exact_type(walked[j]) \
                    or j not in seq._memo:
                return True
    return False


def _sequence_broken() -> bool:
    """True when ``HoradamSequence._far`` of a fresh sequence, as W[j] alone
    or as the pair W[j] and W[j+1], misses ``tests/_util.py::walk_terms``, a
    plain recurrence walk, at any j from -300 to 300 on
    ``SEQUENCE_FAMILIES``; when the Lucas companions do there (see
    :func:`_companions_broken`); when a fresh window's reads do, on
    ``WINDOW_READS`` and ``PAIR_READS`` of each family and on reads a gap
    apart up to and past ``WINDOW_CAP`` on ``CAP_FAMILY`` (see
    :func:`_window_broken`); or when a summand's reader does on a line (see
    :func:`_stride_broken`). Both sides of an identity read the same terms,
    so lhs == rhs cannot see a wrong one."""
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


# the ring's cases: the discriminants, a negative, a square, a nonsquare and 0,
# and the (u, v) of the elements u + v*delta at each: zero, one, a rational,
# delta and two generic elements, and (1, 1) and (2, -2), zero divisors at
# D = 1; delta is nilpotent at D = 0. The rational operands are an int and a
# Fraction
RING_DISCS = (Fraction(-3), Fraction(1), Fraction(5), Fraction(0))
RING_ELEMENTS = ((0, 0), (1, 0), (Fraction(-7, 3), 0), (0, 1), (Fraction(3, 2), Fraction(-2, 3)),
                 (Fraction(-1, 2), Fraction(3, 4)), (1, 1), (2, -2))
RING_RATIONALS = (2, Fraction(-3, 4))
RING_POWERS = range(-3, 4)


def _matrix(u, v, disc) -> tuple:
    """u + v*delta as the rational matrix [[u, v*D], [v, u]], row by row."""
    return (Fraction(u), v * disc), (Fraction(v), Fraction(u))


def _matrix_verdict(m: tuple, disc) -> tuple:
    """The verdict on an element whose matrix is ``m``: its (u, v), off the
    first column, and its discriminant, as a ``QuadExt`` must hold them."""
    (u, vd), (v, u2) = m
    assert u2 == u and vd == v * disc, "not a matrix of the ring"
    return en.QuadExt, Fraction, Fraction, u, v, disc


def _plus(x: tuple, y: tuple, sign: int = 1) -> tuple:
    return tuple(tuple(a + sign * b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _times(x: tuple, y: tuple) -> tuple:
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _inverse(m: tuple) -> tuple:
    """The inverse of ``m``, its adjugate over its determinant; a matrix of
    determinant 0 raises ``DivisionByZeroError``."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if det == 0:
        raise en.DivisionByZeroError
    return (d / det, -b / det), (-c / det, a / det)


def _power(m: tuple, e: int) -> tuple:
    base = m if e >= 0 else _inverse(m)
    power = _matrix(1, 0, 0)
    for _ in range(abs(e)):
        power = _times(power, base)
    return power


@lru_cache(maxsize=None)
def _ring_model() -> list:
    """The verdicts ``_ring_check`` must give, from the matrix model alone:
    each operation on ``RING_ELEMENTS`` at each of ``RING_DISCS``, in its
    order, as an element's verdict, a bool, a rational or the name of the
    exception raised. Made once, as no mutant reaches it."""
    verdicts = []

    def add(fn, disc):
        try:
            verdicts.append(_matrix_verdict(fn(), disc))
        except en.DivisionByZeroError:
            verdicts.append("DivisionByZeroError")

    for disc in RING_DISCS:
        zero = _matrix(0, 0, disc)
        elements = [_matrix(u, v, disc) for u, v in RING_ELEMENTS]
        for (u, v), x in zip(RING_ELEMENTS, elements):
            (a, b), (c, d) = x
            # equal elements, and a rational one and its rational, hash alike
            verdicts += [_matrix_verdict(x, disc), _matrix_verdict(_matrix(0, 1, disc), disc),
                         (Fraction(u), Fraction(v)), x != zero, True, True]
            add(lambda: _plus(zero, x, -1), disc)
            add(lambda: ((d, -b), (-c, a)), disc)  # the conjugate is the adjugate
            verdicts.append(a * d - b * c)  # and the norm the determinant
            for e in RING_POWERS:
                if e < 0 and x == zero:
                    verdicts.append("ZeroToNegativePowerError")
                else:
                    add(lambda: _power(x, e), disc)
            for r in (_matrix(r, 0, disc) for r in RING_RATIONALS):
                for fn in (lambda: _plus(x, r), lambda: _plus(r, x), lambda: _plus(x, r, -1),
                           lambda: _plus(r, x, -1), lambda: _times(x, r), lambda: _times(r, x),
                           lambda: _times(x, _inverse(r)), lambda: _times(r, _inverse(x))):
                    add(fn, disc)
                verdicts.append(x == r)
            # a rational element equals its rational in any ring, no other
            # element equals one of another ring, and no two rings' elements
            # combine; nor does a float combine with any
            verdicts += [v == 0, v == 0, v == 0, "MismatchedDiscriminantError", "TypeError"]
            for y in elements:
                for fn in (lambda: _plus(x, y), lambda: _plus(x, y, -1), lambda: _times(x, y),
                           lambda: _times(x, _inverse(y))):
                    add(fn, disc)
                verdicts.append(x == y)
    return verdicts


def _ring_check() -> tuple:
    """(verdicts, texts) of ``QuadExt`` on ``RING_ELEMENTS`` at each of
    ``RING_DISCS``: the verdicts ``_ring_model`` gives, and the texts no
    model reads, each element's ``str`` and ``repr`` and the message of
    each exception raised, which must be the unmutated code's."""
    verdicts, texts = [], []

    def element(value):
        return type(value), type(value._u), type(value._v), value._u, value._v, value._d

    def add(fn):
        try:
            verdicts.append(element(fn()))
        except (ZeroDivisionError, ValueError, TypeError) as exc:
            verdicts.append(type(exc).__name__)
            texts.append(str(exc))

    for disc in RING_DISCS:
        for u, v in RING_ELEMENTS:
            x = en.QuadExt(u, v, disc)
            texts += [str(x), repr(x)]
            verdicts += [element(x), element(en.QuadExt.sqrt(disc)),
                         (x.rat_part, x.surd_part), bool(x),
                         hash(x) == hash(en.QuadExt(Fraction(u), Fraction(v), disc)),
                         v != 0 or hash(x) == hash(Fraction(u))]
            add(lambda: -x)
            add(x.conjugate)
            verdicts.append(x.norm())
            for e in RING_POWERS:
                add(lambda: x ** e)
            for r in RING_RATIONALS:
                for fn in (lambda: x + r, lambda: r + x, lambda: x - r, lambda: r - x,
                           lambda: x * r, lambda: r * x, lambda: x / r, lambda: r / x):
                    add(fn)
                verdicts.append(x == r)
            verdicts += [x == u, x == en.QuadExt(u, 0, disc + 1),
                         x == en.QuadExt(u, v, disc + 1)]
            add(lambda: x * en.QuadExt(u, v, disc + 1))
            add(lambda: x + 0.5)
            for y in (en.QuadExt(*pair, disc) for pair in RING_ELEMENTS):
                for fn in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
                    add(fn)
                verdicts.append(x == y)
    return verdicts, texts


def _ring_broken(baseline: dict) -> bool:
    """True when ``QuadExt`` misses the rational matrix [[u, v*D], [v, u]]
    of u + v*delta on ``RING_ELEMENTS`` at each of ``RING_DISCS``: when the
    (u, v) and D of a sum, difference, product, quotient, negation,
    conjugate (the adjugate) or power from -3 to 3, the norm (the
    determinant), an equality or a truth value, with another element or
    with an int or a ``Fraction``, differs from the matrices'; when
    inverting a matrix of determinant 0 does not raise
    ``DivisionByZeroError`` (0 to a negative power,
    ``ZeroToNegativePowerError``); when two rings' elements combine, a float
    combines or equal elements hash apart; or when an element's ``str`` or
    ``repr`` or an exception's message differs from the unmutated code's,
    which the first call records in ``baseline``."""
    verdicts, texts = _ring_check()
    return verdicts != _ring_model() or baseline.setdefault("ring", texts) != texts


# the Binet views' families, one at each of RING_DISCS, with a != 0 and
# 2*b != a*p so that both coordinates of tau**j count
BINET_FAMILIES = (sq.horadam(Fraction(3, 2), -1, 1, 1), sq.horadam(2, Fraction(1, 3), 3, 2),
                  sq.horadam(-1, 2, 3, 1), sq.horadam(1, Fraction(-2, 3), 1, Fraction(1, 4)))


def _binet_broken() -> bool:
    """True when a ``BinetView`` misses ``tests/_util.py::walk_terms``, in
    value or exact type (``Fraction``), at any j from -40 to 40 on
    ``BINET_FAMILIES``, or its roots miss tau + sigma = p, tau*sigma = q,
    tau - sigma = delta and delta**2 = D."""
    for params in BINET_FAMILIES:
        view = sq.BinetView(params)
        walked = _walked(params, -40, 40)
        for j in range(-40, 41):
            value = view.term(j)
            if value != walked[j] or type(value) is not Fraction:
                return True
        tau, sigma, delta = view.tau, view.sigma, view.delta
        if (tau + sigma, tau * sigma, tau - sigma, delta * delta) != (
                params.p, params.q, delta, params.discriminant):
            return True
    return False


# C(top, k) for every (top, k) a binom mutant is held to
BINOMS = {(top, k): _util.falling_binom(top, k) for top in range(-45, 46) for k in range(28)}


def _binom_broken() -> bool:
    """True when ``binom`` misses ``tests/_util.py::falling_binom``, in value
    or exact type (int), at any top from -45 to 45 and k from 0 to 27, or
    returns for a negative k instead of raising ``ValueError``."""
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


def _verdicts_changed(baseline: dict, key: str, module, cases, error: type) -> bool:
    """True when a case ``(name, args)`` gets another verdict than under the
    unmutated code: the value of ``module``'s function ``name`` at ``args``,
    or the text of the ``error`` it raises. The function is looked up at
    each call, so a mutant installed there is what runs; nothing else is
    evaluated. The first call for ``key`` records the list in ``baseline``."""
    verdicts = []
    for name, args in cases:
        try:
            verdicts.append(getattr(module, name)(*args))
        except error as exc:
            verdicts.append(str(exc))
    return baseline.setdefault(key, verdicts) != verdicts


def _precondition_cases() -> list:
    """Validation of one point of each default-grid line and of
    ``PRECONDITION_LINES``: no precondition reads a_n, and a precondition
    mutant is judged by these verdicts alone, never by evaluating either
    side."""
    points = [(ident, params, n, a_values[0], c, r, s, d) for ident in ids.IdentityId
              for params, n, a_values, c, r, s, d in ids.sweep_lines(ident, None)]
    return [("IdentityInstance", point) for point in points + list(PRECONDITION_LINES)]


# the input gates' cases, judged by verdict alone: integer_root, whose
# denominators double per index below 0; a rational (p, q) whose
# denominators double above 0 and grow 4-fold below; one that grows on
# neither side; and none (no sequence)
_ROOT = ids.FAMILIES["integer_root"]
_HALF = sq.horadam(1, 1, Fraction(1, 2), -1)
_FIB = ids.FAMILIES["fibonacci"]
# check_cost's points, (family, n, a_n, c, r, s, d): each cap and one past
# it (terms, reach, bits below 0 on integer_root, with r of either sign,
# bits above 0 on _HALF), the weight's steps at 599 and 600 bits, where a
# point's reach and width first reach 600 bits, a side of 620 bits whose
# reach and width are 310, sides of 595 bits at a_n and c at or below 0
# (above) and at or above 0 (below), r = 0, and points on the other families
COST_POINTS = ((_FIB, 8, 25000, 1, 1, 0, 0), (_FIB, 8, 25001, 1, 1, 0, 0),
               (_FIB, 1, 29999, 1, 1, 0, 0), (_FIB, 1, 29999, 1, 1, 1, 0),
               (_ROOT, 5, 0, -10794, 1, 0, 0), (_ROOT, 5, 0, -10794, 1, -1, 0),
               (_ROOT, 5, 10795, 1, -1, 0, 0), (_ROOT, 5, 10795, 1, -1, -1, 0),
               (_HALF, 5, 10795, 1, 1, 0, 0), (_HALF, 5, 10795, 1, 1, 1, 0),
               (_ROOT, 1, 0, -117, 1, -4, 0), (_ROOT, 1, 0, -117, 1, -5, 0),
               (_ROOT, 1, 0, -118, 1, 0, 0), (_ROOT, 1, 0, -116, 2, 0, 1),
               (_HALF, 1, 0, -60, 1, 0, 0), (_HALF, 1, 0, -1, 1, 590, 0),
               (_ROOT, 1, 5, 1, 1, -590, 0),
               (_HALF, 1, 0, -100, 0, 300, 0), (_HALF, 2, 150, 0, 0, 0, 0),
               (_HALF, 2, -3, -150, 1, 2, 3), (_HALF, 3, 2000, 3, 2, -7, 1),
               (_ROOT, 3, -1900, -2000, 2, 5, -1), (_FIB, 9, 20000, 1, 3, -20, 1),
               (None, 8, 25000, 1, 1, 0, 0), (None, 1, 29999, 1, 1, 1, 0))
# check_points' runs, (count, lines, naive): the grid cap and one past it; a
# line whose first refused point is inside it; the command cap and one past
# it, with integral terms, with bench's naive tuples, with F4's far point
# (weight 91), with F3's (clamped to MAX_COMMAND_TERMS - DEFAULT_NAIVE_CAP)
# and with a line of weight 2 that holds a_n = c; a line whose weight is 1
# at some points and more at others, and three F4 points
_FIB_LINE = (_FIB, 1, (25000,) * 200, 1, 1, 0, 0)
_F4_POINT = (_ROOT, 5, (0,), -5994, 3, 0, 0)
_F3_POINT = (_ROOT, 5, (29205,), -10794, 1, 0, 0)
GATE_RUNS = ((100_000, (), False), (100_001, (), False),
             (6, ((_FIB, 1, (5, 28600, 29000), 1, 1, 0, 0),
                  (_FIB, 7, (5, 28600, 29000), 1, 1, 0, 0)), False),
             (200, (_FIB_LINE,), False),
             (200, ((_FIB, 1, (25000,) * 199 + (25001,), 1, 1, 0, 0),), False),
             (100, ((None, 2, (25000,) * 100, 1, 1, 0, 0),), True),
             (101, ((None, 2, (25000,) * 99 + (24999, 1), 1, 1, 0, 0),), True),
             (92, (_F4_POINT, (_FIB, 1, (25000,) * 90 + (22275,), 1, 1, 0, 0)), False),
             (92, (_F4_POINT, (_FIB, 1, (25000,) * 90 + (22276,), 1, 1, 0, 0)), False),
             (21, (_F3_POINT, (_FIB, 1, (25000,) * 20, 1, 1, 0, 0)), False),
             (21, (_F3_POINT, (_FIB, 1, (25000,) * 19 + (25001,), 1, 1, 0, 0)), False),
             (1, (_F3_POINT,), True),
             (202, ((_ROOT, 1, (-118, 0), -118, 1, 0, 0),
                    (_FIB, 1, (25000,) * 199 + (24760,), 1, 1, 0, 0)), False),
             (202, ((_ROOT, 1, (-118, 0), -118, 1, 0, 0),
                    (_FIB, 1, (25000,) * 199 + (24761,), 1, 1, 0, 0)), False),
             (4, ((_HALF, 5, (100, 5000, 10795, 200), 1, 1, 0, 0),), False),
             (3, ((_ROOT, 2, (-300, -200, 5), -200, 1, 0, 0),), True),
             (3, ((_ROOT, 5, (-2, -1, 0), -5994, 3, 0, 0),), False))


_PARSER = cli.build_parser()


def _bench(*argv: str) -> argparse.Namespace:
    """bench's flags as its parser leaves them for ``argv``."""
    return _PARSER.parse_args(["bench", *argv])


# the flag checks' cases: parse_int_set at the range cap and one past it, a
# one-value range, an end below its start, a comma list, a single int, text
# that is not an int and a range with two ".."; _check_bench_flags on flags
# each kind reads, --c on any kind, each identity flag alone and all
# together without --kind identity, and --x without --kind geometric;
# _family_list on no flag, two families, --p/--q/--a/--b given, partly given,
# given with --family and with p = 0, and an unknown family; _point_family
# on a tag with a fixed family and one without, with and without flags
_IDENTITY_FLAGS = (("--identity", "F3"), ("--family", "lucas"), ("--p", "2"), ("--q", "2"),
                   ("--a", "2"), ("--b", "2"), ("--r", "2"), ("--s", "1"), ("--d", "1"))
_PQAB = ("--p", "1", "--q", "-1", "--a", "2", "--b", "1")
FLAG_CASES = [*(("parse_int_set", (text,)) for text in (
                  "1..100000", "1..100001", "5..5", "5..4", "1,3,-2", "7", "x", "1..2..3")),
              *(("_check_bench_flags", (_bench(*argv),)) for argv in (
                  (), ("--c", "5"), ("--kind", "geometric", "--x", "3"),
                  ("--kind", "identity", "--identity", "F3", "--family", "fibonacci", "--r",
                   "2", "--s", "1", "--d", "1"),
                  *(("--kind", "geometric", *flag) for flag in _IDENTITY_FLAGS),
                  tuple(arg for flag in _IDENTITY_FLAGS for arg in flag),
                  ("--kind", "identity", "--x", "2"), ("--x", "2"))),
              *(("_family_list", (_bench(*argv),)) for argv in (
                  (), ("--family", "fibonacci", "--family", "lucas"), _PQAB, _PQAB[:4],
                  ("--family", "fibonacci", *_PQAB), ("--p", "0", *_PQAB[2:]),
                  ("--family", "nope"))),
              *(("_point_family", (ident, _bench(*argv))) for ident in (
                  ids.IdentityId.H, ids.IdentityId.F3) for argv in (
                  (), ("--family", "lucas", "--family", "fibonacci")))]
# check_cost's weight or text on each point, check_points' None or text on
# each run, and each flag check's value or text; nothing is run
GATE_CASES = [*(("check_cost", point) for point in COST_POINTS),
              *(("check_points", run) for run in GATE_RUNS), *FLAG_CASES]


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


def _killed(tags: list, baseline: dict, oracle: bool = False) -> bool:
    """True when, for a tag of ``tags``, a point of the tier-1 deep-depth
    grid (``tests/test_identities.py::_deep_instances``), of the tag's
    default-grid sweep or, for a tag without a fixed family, of its sweep
    over rational p, q and seeds (``tests/test_identities.py::rational_grid``)
    shows a mismatch or an error report, or when a report of either sweep
    differs in any field but the two times from the unmutated run's (so a
    sweep with more or fewer points kills), which the first call for the
    tag records in ``baseline``. Every built-in family is
    integral, so the rational sweep is what holds the closed forms' int-pair
    denominators. Also True when ``evaluate_point`` at a deep-depth point
    differs in the same way from ``verify`` of it, when a deep-depth point
    rebuilt from its own fields is not the same point, or when a deep-depth
    point's closed form, evaluated first on a counter that already holds a
    count, then on a fresh counter and on none (a point built alone keeps no
    part, so each call makes its own), gives another value or adds another
    count the second time than the first; when a report's times are wrong
    (see :func:`_times_wrong`, against the wall time of ``verify`` at a
    deep-depth point) or a closed form's ``ZeroDivisionError`` is reported
    wrongly (see :func:`_error_report_wrong`); and, with ``oracle``, when
    :func:`_kernel_broken`."""
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
        if baseline.setdefault(ident, reports) != reports:
            return True
    return False


def _on_alarm(signum, frame):
    raise TimeoutError


def main() -> int:
    start = time.perf_counter()
    targets = _targets()
    every = list(ids.IdentityId)
    callers = _callers({func.name for group, owner, func in targets if not group.every_tag})
    registry = dict(ids._REGISTRY)
    baseline: dict = {}
    if any(group.judge(every, baseline) for group in GROUPS):
        print("the unmutated code already fails the check")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    # per group: [mutants, killed, seconds]
    tally = {group.name: [0, 0, 0.0] for group in GROUPS}
    survivors = []
    for group, owner, func in targets:
        module = group.module
        original = vars(owner)[func.name]
        name = func.name if owner is module else f"{owner.__name__}.{func.name}"
        tags = every if group.every_tag else callers[func.name]
        for node, field, replacement in _sites(func):
            saved = getattr(node, field)
            setattr(node, field, replacement)
            key = f"{name}: {_statement(func, node)}"
            started = time.perf_counter()
            signal.alarm(TIMEOUT_S)
            try:
                _install(module, owner, func)
                dead = group.judge(tags, baseline)
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
            counts = tally[group.name]
            counts[0] += 1
            counts[1] += dead
            counts[2] += time.perf_counter() - started
            if not dead:
                survivors.append(key)
    elapsed = time.perf_counter() - start
    new = [key for key in survivors if key not in KNOWN_SURVIVORS]
    stale = sorted(set(KNOWN_SURVIVORS) - set(survivors))
    for key in survivors:
        print(f"{'NEW SURVIVOR' if key in new else 'equivalent'}: {key}"
              + ("" if key in new else f"  ({KNOWN_SURVIVORS[key]})"))
    for key in stale:
        print(f"STALE: known survivor no longer generated or now killed: {key}")
    for group, (count, dead, seconds) in tally.items():
        print(f"{group}: {count} mutants, {dead} killed, {seconds:.1f} s")
    total = sum(count for count, _, _ in tally.values())
    print(f"{total} mutants, {total - len(survivors)} killed, {len(survivors)} survived "
          f"({len(new)} new, {len(stale)} stale), {elapsed:.1f} s")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
