"""Mutation check of the closed-form evaluators, of the grid-line sharing,
of the preconditions, of the nested-sum oracle and its summand, of the
sequence terms and of the binomials.

    python3 tools/mutate_rhs.py

Each mutant changes one operator or constant in one target function:
``+`` and ``-`` swap, ``*`` and ``/`` swap, ``%`` becomes ``//``, ``**``
becomes ``*`` and ``//`` becomes ``/`` (augmented assignments included);
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
and ``and`` and ``or`` swap; and each integer constant of the function's
body is raised by 1 (its signature, with defaults and annotations, is left
as it is). The targets are the lifted master form (``_lifted`` with its
line part ``_lifted_line`` and point part ``_lifted_point``) and the right-hand-side
functions (``rhs_*`` and ``_rhs_*``) of ``horadam_sums.identities`` with
its grid-line sharing (``evaluate_line``, which validates a line once, the
validation in ``IdentityInstance.__post_init__``, the point copy
``IdentityInstance._at`` and the summand caching in ``lhs_spec``) and its
preconditions (``_violation`` and every ``_*_violation``), and, in
``horadam_sums.nestedcore``,
``oracle_nested`` (its int weights and its Horner pass) with its chain
counts ``_chain_counts`` and the summand method ``SumTerm.value``, and the
geometric closed form ``master_E`` with its substitution ``f_closed``, and,
in ``horadam_sums.sequences``, the window walk of ``HoradamSequence.term``
and the far-term doubling ``doubled_term`` with its Lucas pair
``_lucas_pair``, and the int scaling ``_scaled_pq`` both share, and
``binom`` of ``horadam_sums.combinatorics``, and the grid's point count
``grid_size`` of ``horadam_sums.identities``. An ``if``
mutated in its test is named by that test alone. The mutated function is
compiled against its live module and installed there (a method on its
class, a precondition also in the theorem shapes that hold it), so every
caller (the registry, ``_rhs_F5``'s and ``_rhs_F6``'s wrappers, validation,
``verify``, ``f_closed``, ``HoradamSequence.term``, both oracles) runs it;
it is also bound to the names ``identities``, ``tests/_util.py``
and this script import it under, so a mutated ``oracle_nested`` is what the
closed forms are compared with and a mutated ``f_closed`` is what the Binet
route runs.

A mutant is killed when, for any tag whose evaluation calls the mutated
function (every tag, for the oracle and the grid-line sharing), a point of
the tier-1 deep-depth grid (``tests/test_identities.py::_deep_instances``),
of the tag's default-grid sweep or, for a tag without a fixed family, of its
sweep over rational p, q and seeds
(``tests/test_identities.py::rational_grid``) shows a mismatch, an error
report or an exception, or when it runs longer than ``TIMEOUT_S``. Every
built-in family is integral, so the rational sweep is what holds the
closed forms' int-pair denominators. It is also killed
when a report of either sweep differs in any field but the two times from
the unmutated run's, when ``evaluate_point`` at a deep-depth point differs in
the same way from ``verify`` of it, when a deep-depth point rebuilt from
its own fields is not the same point, or when a
deep-depth point's closed form, evaluated first on a counter that already
holds a count (which makes its grid line's part), then on a fresh counter
and on none (which read that part back), gives another value or adds
another count the second time than the first. An oracle mutant is also killed when, on a case
of ``tests/test_nestedcore.py::KERNEL_CASES``, its value, type or summand
count differs from the enumeration ``oracle_nested_naive``. A summand
mutant is killed when ``SumTerm.value`` misses, in value or in exact type,
the product of a plain recurrence walk's term and the power ``base**k`` on
``SUMMAND_CASES``, or ``value(k) * w / base**k`` for an int weight w;
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
``doubled_term`` misses ``tests/_util.py::walk_terms``, a plain recurrence
walk, at any j from -300 to 300 on ``SEQUENCE_FAMILIES``, or when a fresh
``HoradamSequence`` misses it, in value or exact type, on the reads
``WINDOW_READS`` of each of those families and on reads a gap apart up to
and past ``WINDOW_CAP`` on ``CAP_FAMILY``, or is left with a window other
than the walk policy gives; both sides of an identity read the same terms,
so lhs == rhs cannot see a wrong one.
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
precondition reads a_n.
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
    "rhs_F7: return _lifted(inst, counter, ratio_base, 1, 0, lambda e, k: (1, 1))":
    "F7's term ignores its index, so the index step is unread",
    "rhs_F7: return _lifted(inst, counter, ratio_base, 0, 1, lambda e, k: (1, 1))":
    "F7's term ignores its index, so the index multiplier is unread",
    "oracle_nested: num, den = (0, 2)": "any positive starting denominator is a "
    "common denominator of the partial sums, and the returned Fraction is normalised",
    "_lucas_pair: if j >= 1:": "j = 0 gives (U_0, V_0) = (0, 2) over 1 on both branches",
    "_lucas_pair: if j > 0:": "j = 0 gives (U_0, V_0) = (0, 2) over 1 on both branches",
    "_lifted_line: sn, sd = (u ** lift, v ** lift) if lift > 0 else (v ** (-lift), "
    "u ** (-lift))": "at c - 1 = 0 both branches raise u and v to the power 0, which is 1",
    "_lifted_line: sn, sd = (u ** lift, v ** lift) if lift >= 1 else (v ** (-lift), "
    "u ** (-lift))": "at c - 1 = 0 both branches raise u and v to the power 0, which is 1",
    "oracle_nested: scale_num, scale_den = (u ** lo, v ** lo) if lo > 0 else (v ** (-lo), "
    "u ** (-lo))": "at lo = 0 both branches raise u and v to the power 0, which is 1",
    "oracle_nested: scale_num, scale_den = (u ** lo, v ** lo) if lo >= 1 else (v ** (-lo), "
    "u ** (-lo))": "at lo = 0 both branches raise u and v to the power 0, which is 1",
    "_lifted_point: if a <= 0:": "at a = 0 both branches raise u and v to the power 0, "
    "which is 1",
    "_lifted_point: if a < 1:": "at a = 0 both branches raise u and v to the power 0, "
    "which is 1",
    "HoradamSequence.term: edge, step, mul, sub, grow = (hi, 1, big_p, big_q, m) if j >= hi "
    "else (lo, -1, big_p * m, m * m * big_q, big_q)":
    "a miss lies outside [lo, hi], so j never equals hi",
    "_chain_counts: if start >= lo:":
    "at start = lo the slice counts[:0] is empty, so the zeroing it guards changes nothing",
}

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.FloorDiv: ast.Div}
_COMPARE_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                  ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


ORACLE_TARGETS = ("oracle_nested", "_chain_counts")
SUMMAND_TARGETS = ("SumTerm.value",)
GEOMETRIC_TARGETS = ("master_E", "f_closed")
SEQUENCE_TARGETS = ("_scaled_pq", "_lucas_pair", "doubled_term", "HoradamSequence.term")
LINE_TARGETS = ("evaluate_line", "IdentityInstance.__post_init__", "IdentityInstance._at",
                "lhs_spec")
BINOM_TARGETS = ("binom",)
GRID_TARGETS = ("grid_size",)

# lines a precondition mutant is judged on besides the default grids': F3_G
# on a family of the wrong shape, and (p, q) = (2, 2), whose V_2 = 0 stops F6
# at (r, d) = (1, 1) as V_{r+d} and at (1, 2) as the weight base's V_d
_V2_ZERO = sq.horadam(1, 1, 2, 2)
PRECONDITION_LINES = ((ids.IdentityId.F3_G, ids.FAMILIES["generic"], 1, 2, 1, 1, 0, 0),
                      *((ident, _V2_ZERO, n, 3, 1, 1, 0, d) for d in (1, 2)
                        for ident, n in ((ids.IdentityId.F6A, 2), (ids.IdentityId.F6B, 1))))

# a != 0 so both Lucas terms count, p not +-1 and rational p or q so the lcm
# scaling runs; the fourth has D = 0; the last has int p and q = 1 and a
# half-integral seed, so every walk stores its terms over the scale 2
SEQUENCE_FAMILIES = (sq.horadam(Fraction(3, 2), -1, Fraction(5, 2), Fraction(-2, 3)),
                     sq.horadam(2, Fraction(1, 3), 3, Fraction(7, 4)),
                     sq.horadam(-1, 2, Fraction(-3, 2), 2),
                     sq.horadam(1, 2, 3, Fraction(9, 4)),
                     sq.horadam(Fraction(1, 2), 3, 3, 1))
# reads of a fresh window: unit steps, jumps to the gap's edge (walked and
# stored) and one past it (doubled, not stored), upwards then downwards
WINDOW_READS = (2, 3, 3 + sq.WALK_GAP, 4 + 3 * sq.WALK_GAP, 4 + sq.WALK_GAP, 1, -1, -2,
                -2 - sq.WALK_GAP, -3 - 3 * sq.WALK_GAP, 0, -2 - sq.WALK_GAP)
# an int family read up to its window cap, after one read below zero
CAP_FAMILY = sq.horadam(2, -1, 1, -1)

# summands whose value SumTerm.value must give: rational bases (one of them
# with a numerator other than 1), a negative base, an index multiplier other
# than 1, negative indices with non-integral terms, and no sequence
SUMMAND_CASES = (nc.SumTerm(seq=SEQUENCE_FAMILIES[0], index_mul=2, index_add=-1,
                            weight_base=Fraction(2, 3)),
                 nc.SumTerm(seq=sq.horadam(1, 4, 3, 2), index_mul=1, index_add=0,
                            weight_base=Fraction(3, 2)),
                 nc.SumTerm(seq=sq.horadam(1, 4, 3, 2), index_mul=-1, index_add=1),
                 nc.SumTerm(weight_base=Fraction(-5, 2)))
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
    return name.startswith(("_lifted", "rhs_", "_rhs_")) or name.endswith("_violation") \
        or name in LINE_TARGETS + GRID_TARGETS


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


def _sites(func: ast.FunctionDef) -> list:
    """Every mutable (node, field, replacement) in the body of ``func``,
    statement by statement; the signature's defaults and annotations, which
    no statement holds, are left out."""
    sites = []
    for node in (node for stmt in func.body for node in ast.walk(stmt)):
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
    """For each target function, the tags whose evaluation calls it."""
    callers = {name: [] for name in names}
    for ident in ids.IdentityId:
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == ids.__file__:
                seen.add(frame.f_code.co_name)

        one = _deep_instances(ident)[0]
        sys.setprofile(profile)
        try:
            ids.evaluate_rhs(one)
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
    module, or the class of a method) and point the registry's evaluators
    and shape preconditions and the imported names at the result."""
    code = compile(ast.Module(body=[func], type_ignores=[]), module.__file__, "exec")
    compiled = {}
    exec(code, module.__dict__, compiled)
    setattr(owner, func.name, compiled[func.name])
    if owner is not module:
        return
    for ident, record in ids._REGISTRY.items():
        current = ids.__dict__[record.rhs.__name__]
        shape = record.shape
        if shape.violation.__name__ == func.name:
            shape = dataclasses.replace(shape, violation=compiled[func.name])
        if current is not record.rhs or shape is not record.shape:
            ids._REGISTRY[ident] = dataclasses.replace(record, rhs=current, shape=shape)
    _rebind(func.name, module.__dict__[func.name])


def _kernel_broken() -> bool:
    """True when the oracle disagrees with the naive enumeration on a kernel case."""
    for spec in KERNEL_CASES:
        counter = EvalCounter()
        fast = oracle_nested(spec, counter=counter)
        slow = oracle_nested_naive(spec, cap=None)
        limits = spec.lower_limits
        count = (sum(max(0, spec.upper - limit + 1) for limit in limits)
                 if spec.upper >= limits[-1] else 0)
        if type(fast) is not type(slow) or fast != slow or counter.count != count:
            return True
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
    that is integral)."""
    for summand in SUMMAND_CASES:
        expected_at = _util.summand_fn(summand)
        for k in range(-12, 13):
            expected = expected_at(k)
            value = summand.value(k)
            if value != expected or type(value) is not Fraction:
                return True
            if summand.weight_base is None:
                continue
            for weight in SUMMAND_WEIGHTS:
                scaled = expected * weight / summand.weight_base ** k
                value = summand.value(k, weight)
                if value != scaled or type(value) is not (
                        int if scaled.denominator == 1 else Fraction):
                    return True
    return False


# the plain walks the sequence mutants are held to, made once per family
_walked = lru_cache(maxsize=None)(_util.walk_terms)


def _window_broken(seq, walked: dict, reads) -> bool:
    """True when a read of ``seq`` misses ``walked`` in value or exact type,
    or leaves a window other than the one the walk policy gives: a read
    within ``WALK_GAP`` of the window's edge that keeps it under
    ``WINDOW_CAP`` terms extends it to the index; any other read leaves it."""
    lo, hi = 0, 1
    for j in reads:
        value = seq.term(j)
        if value != walked[j] or type(value) is not Fraction:
            return True
        if lo - sq.WALK_GAP <= j <= hi + sq.WALK_GAP and max(hi, j) - min(lo, j) < sq.WINDOW_CAP:
            lo, hi = min(lo, j), max(hi, j)
        if (seq._lo, seq._hi) != (lo, hi) or len(seq._memo) != hi - lo + 1:
            return True
    return set(seq._memo) != set(range(lo, hi + 1)) \
        or any(seq._memo[k] != walked[k] for k in seq._memo)


def _sequence_broken() -> bool:
    """True when ``doubled_term`` misses a plain recurrence walk, or a fresh
    window's reads do (see :func:`_window_broken`)."""
    for params in SEQUENCE_FAMILIES:
        walked = _walked(params, -300, 300)
        if any(sq.doubled_term(params, j) != walked[j] for j in range(-300, 301)):
            return True
        if _window_broken(sq.HoradamSequence(params), walked, WINDOW_READS):
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
              for params, n, a_values, c, r, s, d in ids._sweep_lines(ident, None)]
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


def _killed(tags: list, swept: dict, oracle: bool = False) -> bool:
    """True when a tag's deep-depth points, default sweep or rational sweep
    fail (see the module docstring), or its sweeps' reports differ from
    ``swept[tag]`` but in their times; a tag not yet there has its reports
    recorded."""
    if oracle and _kernel_broken():
        return True
    for ident in tags:
        for one in _deep_instances(ident):
            # rebuilt from its own fields (a fixed tag's family then given,
            # not None), a point is the same point
            if dataclasses.replace(one) != one:
                return True
            # the line's part is made on a counter that already holds a
            # count, then read back with a fresh counter and with none
            used, fresh = EvalCounter(1), EvalCounter()
            value = ids.evaluate_rhs(one, used)
            if value != oracle_nested(ids.lhs_spec(one)) or value != ids.evaluate_rhs(one, fresh) \
                    or value != ids.evaluate_rhs(one) or used.count - 1 != fresh.count:
                return True
            coords = (one.params, one.n, one.a_n, one.c, one.r, one.s, one.d)
            if _fields(ids.evaluate_point(ident, *coords)) != _fields(ids.verify(one)):
                return True
        reports = []
        for grid in (None, rational_grid(ident)) if ident in RATIONAL_TAGS else (None,):
            for report in ids.iter_sweep(ident, grid):
                if report.classification in (ids.CLASS_MISMATCH, ids.CLASS_ERROR):
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
    callers.update({name: list(ids.IdentityId) for name in ORACLE_TARGETS + LINE_TARGETS})
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
