"""Catalog of nested-sum closed forms and the engine that verifies them.

Each :class:`IdentityId` names one closed-form evaluation of a nested sum
whose innermost summand involves a second-order recurrence sequence. For
every identity the left-hand side is evaluated independently by the exact
chain-count oracle and the right-hand side by an evaluator coded directly from
the closed form; :func:`verify` demands bit-exact agreement.

The catalog covers the general four-parameter family (tags F3..F7), the
Fibonacci/Lucas cubic-index forms (F1*/F2*), and their specializations for
the restricted (p = 1) and gibonacci (p = 1, q = -1) families. Every tag is
described once, by one record in ``_REGISTRY``: its fixed family or family
shape, the F6 depth parity, the theorem shape it shares with its parent
(swept coordinates, preconditions, left-hand summand), its right-hand
evaluator and its default grid. As in the paper, which evaluates the nested
geometric sum once and derives every display from it, the closed forms of
F3..F7 are one lifted master form at a parameter tuple per theorem. Every
restricted and gibonacci specialization runs its parent's tuple, since
validation already pins its parameters (and, for F7_r1d0_*, its r and d).
The classic form H is F3 on the Fibonacci numbers at r = 1, s = 0, c = 1,
and F1/F2 are F5 at (r, d) = (3, -1) and (3, -2). All eight F6 tags share
F6's tuple over Q: the display's sqrt(D) occurs only in even powers, which
become powers of D, and the Fibonacci and Lucas forms only swap in their own
term lookups. The left-hand summands are built apart from the master form,
so every closed form is checked against the oracle, never against another
evaluator.

Closed forms are evaluated anywhere their denominators permit, including
points with an empty left-hand side (outer upper limit below the lower
limit). Those points are classified ``outside_domain`` rather than failed.
There each closed form equals the nested sum under Karr's convention for
reversed limits, sum_{k=a}^{b} = -sum_{k=b+1}^{a-1} when b < a - 1 (Karr,
"Summation in finite terms", J. ACM 28(2), 1981), applied at every level:
``tests/test_line_memo.py::test_outside_domain_follows_the_reversed_sum_convention``
checks this at every such point of the default grids.

The work of a grid line, one (tag, family, n, c, r, s, d) with a_n varying,
that does not depend on a_n is done once per line: :func:`evaluate_line`
validates the line by one instance and builds its points from it, so they
share its :class:`_Line` (the left-hand summand and the closed form's line
part, each made when a point first needs it). An instance built alone has a
line of its own. The closed form's terms are exchanged as (numerator,
denominator) int pairs and its line part holds ints only, so a point is
finished on ints in one normalised ``Fraction``; its left-hand spec and its
report are built without their frozen dataclass constructors.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .combinatorics import binom
from .nestedcore import EvalCounter, NestedSumSpec, PoleError, SumTerm, oracle_nested
from .sequences import (FIBONACCI, LUCAS, HoradamParams, HoradamSequence,
                        first_kind_term, gibonacci, horadam, second_kind_term)


class IdentityId(str, Enum):
    H = "H"
    F1A = "F1a"
    F1B = "F1b"
    F2A = "F2a"
    F2B = "F2b"
    F3 = "F3"
    F4 = "F4"
    F5 = "F5"
    F6A = "F6a"
    F6B = "F6b"
    F7 = "F7"
    F3_W = "F3_w"
    F3_G = "F3_G"
    F4_G = "F4_G"
    F5_G = "F5_G"
    F6_G_EVEN = "F6_G_even"
    F6_G_ODD = "F6_G_odd"
    F6_F_EVEN = "F6_F_even"
    F6_F_ODD = "F6_F_odd"
    F6_L_EVEN = "F6_L_even"
    F6_L_ODD = "F6_L_odd"
    F7_W = "F7_w"
    F7_G = "F7_G"
    F7_R1D0_W = "F7_r1d0_w"
    F7_R1D0_G = "F7_r1d0_G"

    def __str__(self) -> str:  # "F3" rather than "IdentityId.F3" in messages
        return self.value


class InvalidInstanceError(ValueError):
    """Instance parameters violate a precondition of the chosen identity."""


# Built-in parameter families used as verification fixtures. Seeds are chosen
# so that the main sequence has no zero terms in the swept index window
# (zeros of the first/second-kind companions are unavoidable and are handled
# by precondition skips).
FAMILIES: Dict[str, HoradamParams] = {
    "fibonacci": FIBONACCI,
    "lucas": LUCAS,
    "gibonacci31": gibonacci(3, 1),
    "gibonacci_neg": gibonacci(-1, 2),
    "integer_root": horadam(1, 4, 3, 2),   # discriminant 1, roots 2 and 1
    "negative_d": horadam(1, 4, 1, 1),     # discriminant -3, period 6
    "generic": horadam(2, 5, 1, 3),        # discriminant -11, restricted
}


def _check_int(name: str, value) -> None:
    # a bool is an int to isinstance, but not a coordinate
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


class _Line:
    """The a_n-free work of one instance's grid line, shared with the points
    :meth:`IdentityInstance._at` builds from it: the left-hand ``summand``
    and the closed form's line part, all ints, with the counter units it
    cost (``closed``, see :func:`_lifted`), each filled when a point first
    needs it and written once it is whole. Only numbers and the summand are
    kept, never a sequence or a counter."""

    __slots__ = ("summand", "closed")

    def __init__(self):
        self.summand: Optional[SumTerm] = None
        self.closed: Optional[Tuple[tuple, int]] = None


@dataclass(frozen=True)
class IdentityInstance:
    """One concrete evaluation point of an identity.

    Construction validates every precondition of the chosen identity (family
    shape, parity, nonzero denominators and weight bases) and raises
    :class:`InvalidInstanceError` naming the violated condition. Evaluators
    may therefore assume a valid instance. A coordinate that is not an int
    (a bool included), or no family for a tag without a fixed one, is a
    caller's bug, not a failed precondition, and raises ``TypeError``.
    """

    identity: IdentityId
    params: Optional[HoradamParams]
    n: int
    a_n: int
    c: int = 1
    r: int = 1
    s: int = 0
    d: int = 0

    def __post_init__(self):
        for name in ("n", "a_n", "c", "r", "s", "d"):
            _check_int(name, getattr(self, name))
        ident = self.identity
        record = _REGISTRY[ident]
        if record.fixed is not None:
            if self.params is None:
                object.__setattr__(self, "params", record.fixed)
            elif self.params != record.fixed:
                raise InvalidInstanceError(f"{ident} is specific to one fixed sequence family")
        elif self.params is None:
            raise TypeError(f"{ident} needs a family: params must not be None")
        reason = _violation(self, record)
        if reason:
            raise InvalidInstanceError(f"{ident}: {reason}")
        # not a field: equality, hashing and the repr are the coordinates'
        object.__setattr__(self, "_line", _Line())

    def _at(self, a_n: int) -> IdentityInstance:
        """This instance at another a_n, sharing its line; unvalidated, as no
        precondition reads a_n."""
        _check_int("a_n", a_n)
        point = object.__new__(IdentityInstance)
        point.__dict__.update(self.__dict__, a_n=a_n)
        return point

    def sequence(self) -> HoradamSequence:
        return HoradamSequence.of(self.params)


_RESTRICTED = "restricted"
_GIBONACCI = "gibonacci"


def _violation(inst: IdentityInstance, record: _Record) -> Optional[str]:
    """The first precondition of ``record`` that ``inst`` violates, if any."""
    p, q = inst.params.p, inst.params.q
    if inst.n < 1:
        return "n must be a positive integer"
    if record.family == _RESTRICTED and p != 1:
        return "restricted form requires p = 1"
    if record.family == _GIBONACCI and (p != 1 or q != -1):
        return "gibonacci form requires p = 1, q = -1"
    if record.parity is not None and inst.n % 2 != record.parity:
        return f"n must be {('even', 'odd')[record.parity]} for this variant"
    return record.shape.violation(inst)


# ---------------------------------------------------------------------------
# Theorem shapes: what a theorem and its specializations share
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Shape:
    """Swept coordinates, kind-specific preconditions and left-hand summand.

    ``dims`` names the coordinates among c, r, s, d that a sweep varies; the
    others stay at their defaults. ``violation`` returns the first violated
    precondition as a reason, or None. ``summand`` builds the oracle-evaluable
    innermost term of the left-hand side.
    """

    dims: str
    summand: Callable[[IdentityInstance], SumTerm]
    violation: Callable[[IdentityInstance], Optional[str]] = lambda inst: None


def _h_violation(inst: IdentityInstance) -> Optional[str]:
    if (inst.r, inst.s, inst.c) != (1, 0, 1):
        return "this form is fixed at r = 1, s = 0, c = 1"
    return None


def _v_r_violation(inst: IdentityInstance) -> Optional[str]:
    if second_kind_term(inst.params, inst.r) == 0:
        return f"V_{inst.r} = 0"
    return None


def _f3_summand(inst: IdentityInstance) -> SumTerm:
    params = inst.params
    return SumTerm(seq=params, index_mul=inst.r, index_add=inst.s,
                   weight_base=1 / second_kind_term(params, inst.r))


def _f4_summand(inst: IdentityInstance) -> SumTerm:
    return SumTerm(seq=inst.params, index_mul=2 * inst.r, index_add=inst.s,
                   weight_base=-inst.params.q ** -inst.r)


def _f5_violation(inst: IdentityInstance) -> Optional[str]:
    r, d = inst.r, inst.d
    if r == 0:
        return "r must be nonzero"
    if r + d == 0:
        return "r + d must be nonzero"
    for j, note in ((r, ""), (r + d, ""), (d, " (degenerate weight base)")):
        if first_kind_term(inst.params, j) == 0:
            return f"U_{j} = 0{note}"
    return None


def _f5_summand(inst: IdentityInstance) -> SumTerm:
    params, r, d = inst.params, inst.r, inst.d
    return SumTerm(seq=params, index_mul=r, index_add=inst.s,
                   weight_base=first_kind_term(params, d) / first_kind_term(params, r + d))


def _f6_violation(inst: IdentityInstance) -> Optional[str]:
    r, d = inst.r, inst.d
    if r == 0:
        return "r must be nonzero"
    if inst.params.discriminant == 0:
        return "discriminant must be nonzero"
    if first_kind_term(inst.params, r) == 0:
        return f"U_{r} = 0"
    for j, note in ((r + d, ""), (d, " (degenerate weight base)")):
        if second_kind_term(inst.params, j) == 0:
            return f"V_{j} = 0{note}"
    return None


def _f6_summand(inst: IdentityInstance) -> SumTerm:
    params, r, d = inst.params, inst.r, inst.d
    return SumTerm(seq=params, index_mul=r, index_add=inst.s,
                   weight_base=second_kind_term(params, d) / second_kind_term(params, r + d))


def _f7_violation(inst: IdentityInstance) -> Optional[str]:
    r, s, d = inst.r, inst.s, inst.d
    if r + 1 == d:
        return "r + 1 = d makes the leading denominator index zero"
    for j, note in ((r - d + 1, ""), (r - d, " (degenerate weight base)")):
        if first_kind_term(inst.params, j) == 0:
            return f"U_{j} = 0{note}"
    seq = inst.sequence()
    for j, note in ((s + d, ""), (s + d - 1, " (degenerate weight base)"), (r + s, "")):
        if seq.term(j) == 0:
            return f"W_{j} = 0{note}"
    return None


def _f7_summand(inst: IdentityInstance) -> SumTerm:
    params, r, s, d = inst.params, inst.r, inst.s, inst.d
    seq = inst.sequence()
    return SumTerm(weight_base=params.q * first_kind_term(params, r - d)
                   / first_kind_term(params, r - d + 1) * seq.term(s + d - 1) / seq.term(s + d))


def _f7_r1d0_violation(inst: IdentityInstance) -> Optional[str]:
    if (inst.r, inst.d) != (1, 0):
        return "this form is fixed at r = 1, d = 0"
    return _f7_violation(inst)


_H = _Shape("", lambda inst: SumTerm(seq=inst.params), _h_violation)
_F1 = _Shape("cs", lambda inst: SumTerm(seq=inst.params, index_mul=3, index_add=inst.s))
_F2 = _Shape("cs", lambda inst: SumTerm(seq=inst.params, index_mul=3, index_add=inst.s,
                                        weight_base=-1))
_F3 = _Shape("crs", _f3_summand, _v_r_violation)
_F4 = _Shape("crs", _f4_summand, _v_r_violation)
_F5 = _Shape("crsd", _f5_summand, _f5_violation)
_F6 = _Shape("crsd", _f6_summand, _f6_violation)
_F7 = _Shape("crsd", _f7_summand, _f7_violation)
_F7_R1D0 = _Shape("cs", _f7_summand, _f7_r1d0_violation)


def lhs_spec(inst: IdentityInstance) -> NestedSumSpec:
    """The oracle-evaluable nested-sum shape matching the identity's left side.

    The spec equals ``NestedSumSpec(n, a_n, c, summand)`` but is built as
    :meth:`IdentityInstance._at` builds a point, by ``object.__new__`` and
    ``__dict__.update``: a valid instance has n >= 1, so the frozen
    ``__init__`` and ``__post_init__``, which check that and widen c to one
    lower limit per level, would only repeat work at every point."""
    line = inst._line
    if line.summand is None:
        line.summand = _REGISTRY[inst.identity].shape.summand(inst)
    spec = object.__new__(NestedSumSpec)
    spec.__dict__.update(depth=inst.n, upper=inst.a_n, lower_limits=(inst.c,) * inst.n,
                         term=line.summand)
    return spec


# ---------------------------------------------------------------------------
# Right-hand sides
#
# The paper evaluates the nested geometric sum once and reads every display
# off it, so F3..F7 are one lifted master form, ``_lifted``, at a parameter
# tuple per theorem: the ratio and the base (a function giving both, called
# once per grid line), the index step and multiplier, and the term T(e, k).
# Each tuple serves every specialization of its theorem:
# H runs F3, F1/F2 run F5's tuple at fixed (r, d), and the F6 Fibonacci and
# Lucas forms plug their own term lookups into F6's. A term is an int pair
# (numerator, denominator): the denominator is nonzero but may be negative
# and need not be reduced, so a term costs no normalised ``Fraction``. The
# optional counter tallies one unit per summand-family sequence term and per
# binomial coefficient, so reported closed-form costs are measured, not
# assumed.
# ---------------------------------------------------------------------------

def _counted(fn: Callable[[int], Fraction],
             counter: Optional[EvalCounter]) -> Callable[[int], Tuple[int, int]]:
    """The lookup ``fn(j)`` as a (numerator, denominator) int pair, tallying
    one unit on ``counter`` per call."""
    if counter is None:
        return lambda j: fn(j).as_integer_ratio()

    def tallied(j: int) -> Tuple[int, int]:
        counter.add()
        return fn(j).as_integer_ratio()

    return tallied


def _lifted(inst: IdentityInstance, counter: Optional[EvalCounter],
            ratio_base: Callable[[], Tuple[Fraction, Fraction]], step: int, mul: int,
            term: Callable[[int, int], Tuple[int, int]]) -> Fraction:
    """The lifted master form every closed form evaluates.

    With (ratio, base) = ``ratio_base()``, a = a_n and T(e, k) the fraction
    of the int pair ``term(e, k)``, it returns
    ratio**n * base**a * T(n, step*n + mul*a + s)
    - base**(c-1) * sum_{j<n} ratio**(n-j) * T(n-j, step*(n-j) + mul*(c-1) + s)
    * C(a+j-c, j).

    ratio and base do not depend on a, so ``ratio_base`` is called only when
    the line part, :func:`_lifted_line`, is made. That part, ints only, is
    kept on the instance's :class:`_Line` with the counter units its lookups
    tallied, and :func:`_lifted_point` finishes each point from it on ints,
    in one normalised ``Fraction``. A later point of the
    line (see :func:`evaluate_line`) adds those units as if it had made the
    lookups, so ``closed_terms`` counts uses, not cache misses. A call
    without a counter keeps nothing, since its units are unknown.
    """
    line = inst._line
    closed = line.closed
    if closed is None:
        before = None if counter is None else counter.count
        part = _lifted_line(inst, *ratio_base(), step, mul, term)
        if counter is not None:
            line.closed = part, counter.count - before
    else:
        part, units = closed
        if counter is not None:
            counter.add(units)
    return _lifted_point(inst, counter, part, step, mul, term)


def _lifted_line(inst: IdentityInstance, ratio: Fraction, base: Fraction, step: int,
                 mul: int, term: Callable[[int, int], Tuple[int, int]]) -> tuple:
    """The part of :func:`_lifted` free of a_n, in ints only:
    ``(rn**n, rd**n, u, v, K, D)`` with ratio = rn/rd and base = u/v in
    lowest terms, where K[j] / D are the coefficients
    base**(c-1) * ratio**(n-j) * T(n-j, step*(n-j) + mul*(c-1) + s), j < n,
    over their least common denominator D > 0. base**(c-1) is u**(c-1) over
    v**(c-1), with u and v swapped when c - 1 < 0; each coefficient is an
    unreduced product of int pairs until the one gcd that reduces K and D
    together."""
    n = inst.n
    rn, rd = ratio.numerator, ratio.denominator
    u, v = base.numerator, base.denominator
    lift = inst.c - 1
    shift = mul * lift + inst.s
    sn, sd = (u ** lift, v ** lift) if lift >= 0 else (v ** -lift, u ** -lift)
    pairs = []
    pn, pd = 1, 1
    for e in range(1, n + 1):
        pn, pd = pn * rn, pd * rd  # ratio**e, at j = n - e
        tn, td = term(e, step * e + shift)
        pairs.append((sn * pn * tn, sd * pd * td))
    pairs.reverse()
    den = lcm(*(d for k, d in pairs))
    coefficients = [k * (den // d) for k, d in pairs]
    g = gcd(den, *coefficients)
    return pn, pd, u, v, tuple(k // g for k in coefficients), den // g


def _lifted_point(inst: IdentityInstance, counter: Optional[EvalCounter], part: tuple,
                  step: int, mul: int, term: Callable[[int, int], Tuple[int, int]]) -> Fraction:
    """:func:`_lifted` at the instance's a_n from its line part
    ``(rn**n, rd**n, u, v, K, D)``: the one term that depends on a, less one
    dot product of K with the binomials C(a+j-c, j), over D.

    With T(n, step*n + mul*a + s) = tn/td, and u and v swapped and a made -a
    when a < 0, the point is the one normalised
    ``Fraction(rn**n*u**a*tn*D - dot*rd**n*v**a*td, rd**n*v**a*td*D)``.
    ``counter`` tallies the n binomials."""
    ratio_num, ratio_den, u, v, coefficients, den = part
    n, a, c = inst.n, inst.a_n, inst.c
    if counter is not None:
        counter.add(n)
    dot = sum(k * binom(a + j - c, j) for j, k in enumerate(coefficients))
    tn, td = term(n, step * n + mul * a + inst.s)
    if a < 0:
        u, v, a = v, u, -a
    lead = ratio_den * v ** a * td
    return Fraction(ratio_num * u ** a * tn * den - dot * lead, lead * den)


def _w_term(inst: IdentityInstance, counter: Optional[EvalCounter]):
    """T(e, k) = W[k] as an int pair, tallied."""
    w = _counted(inst.sequence().term, counter)
    return lambda e, k: w(k)


def rhs_F3(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """General closed form for the nested sum of W[rk+s] / V_r**k (also H)."""
    q, r = inst.params.q, inst.r
    return _lifted(inst, counter, lambda: (-1 / q ** r, 1 / second_kind_term(inst.params, r)),
                   2 * r, r, _w_term(inst, counter))


def rhs_F4(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """General closed form for the nested sum of (-1)**k W[2rk+s] / q**(rk)."""
    q, r = inst.params.q, inst.r
    return _lifted(inst, counter, lambda: (1 / second_kind_term(inst.params, r), -1 / q ** r),
                   r, 2 * r, _w_term(inst, counter))


def _rhs_F5(inst: IdentityInstance, counter: Optional[EvalCounter],
            r: int, d: int) -> Fraction:
    """F5 at the given r and d, for the nested sum of (U_d/U_{r+d})**k W[rk+s].

    The display's factor (-1)**m (U_d/U_r)**m / q**(dm) is ``ratio**m``.
    """
    params = inst.params

    def ratio_base() -> Tuple[Fraction, Fraction]:
        ud = first_kind_term(params, d)
        ratio = -ud / (first_kind_term(params, r) * params.q ** d)
        return ratio, ud / first_kind_term(params, r + d)

    return _lifted(inst, counter, ratio_base, r + d, r, _w_term(inst, counter))


def rhs_F5(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """General closed form for the nested sum of (U_d/U_{r+d})**k W[rk+s].

    On the Fibonacci recurrence, (r, d) = (3, -1) has U_{-1}/U_2 = 1 and
    U_3 = 2, which give F1's powers of 2, and (3, -2) has U_{-2}/U_1 = -1,
    which gives F2's alternating sign; ``rhs_F1``/``rhs_F2`` run F5's tuple
    there.
    """
    return _rhs_F5(inst, counter, inst.r, inst.d)


def rhs_F1(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """F1a/F1b: the nested sum of F[3k+s] or L[3k+s], F5 at (r, d) = (3, -1)."""
    return _rhs_F5(inst, counter, 3, -1)


def rhs_F2(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """F2a/F2b: the alternating nested sum of F[3k+s] or L[3k+s], F5 at (3, -2)."""
    return _rhs_F5(inst, counter, 3, -2)


def _rhs_F6(inst: IdentityInstance, counter: Optional[EvalCounter],
            main: Callable[[int], Tuple[int, int]],
            other: Callable[[int], Tuple[int, int]]) -> Fraction:
    """Every F6 form, for the nested sum of (V_d/V_{r+d})**k W[rk+s].

    ``main(k)`` is W[k] and ``other(k)`` equals W[k+1] - q*W[k-1], both as
    int pairs; both tally their own terms. The display's delta = sqrt(D)
    occurs only in even powers, which collapse to powers of the discriminant
    D, so the form is evaluated over Q: a term of odd power e is ``other``,
    one of even e is ``main``, and either is divided by D**ceil(e/2), whose
    numerator goes to the pair's denominator (negative when D < 0 and the
    power is odd). This covers both parities of n.
    """
    params, r, d = inst.params, inst.r, inst.d
    disc_num, disc_den = params.discriminant.as_integer_ratio()

    def ratio_base() -> Tuple[Fraction, Fraction]:
        vd = second_kind_term(params, d)
        ratio = vd / (first_kind_term(params, r) * params.q ** d)
        return ratio, vd / second_kind_term(params, r + d)

    def term(e: int, k: int) -> Tuple[int, int]:
        xn, xd = (other if e % 2 else main)(k)
        h = (e + 1) // 2
        return xn * disc_den ** h, xd * disc_num ** h

    return _lifted(inst, counter, ratio_base, r + d, r, term)


def rhs_F6(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """General closed form for the nested sum of (V_d/V_{r+d})**k W[rk+s]."""
    w = _counted(inst.sequence().term, counter)
    q_num, q_den = inst.params.q.as_integer_ratio()

    def other(j: int) -> Tuple[int, int]:
        (an, ad), (bn, bd) = w(j + 1), w(j - 1)
        return an * bd * q_den - q_num * bn * ad, ad * bd * q_den

    return _rhs_F6(inst, counter, w, other)


def rhs_F6_F(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """Fibonacci-number form of F6, using F[j+1] + F[j-1] = L[j]."""
    fib = _counted(lambda j: first_kind_term(inst.params, j), counter)
    luc = _counted(lambda j: second_kind_term(inst.params, j), counter)
    return _rhs_F6(inst, counter, fib, luc)


def rhs_F6_L(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """Lucas-number form of F6, using L[j+1] + L[j-1] = 5 F[j]."""
    fib = _counted(lambda j: first_kind_term(inst.params, j), counter)
    luc = _counted(lambda j: second_kind_term(inst.params, j), counter)

    def five_fib(j: int) -> Tuple[int, int]:
        num, den = fib(j)
        return 5 * num, den

    return _rhs_F6(inst, counter, luc, five_fib)


def rhs_F7(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """General closed form for the purely geometric nested sum with base
    q * (U_{r-d}/U_{r-d+1}) * (W_{s+d-1}/W_{s+d})."""
    params, r, s, d = inst.params, inst.r, inst.s, inst.d

    def ratio_base() -> Tuple[Fraction, Fraction]:
        w = _counted(inst.sequence().term, counter)
        q = params.q
        u0 = first_kind_term(params, r - d)
        wsd1 = Fraction(*w(s + d - 1))
        base = q * u0 / first_kind_term(params, r - d + 1) * wsd1 / Fraction(*w(s + d))
        return -q * u0 * wsd1 / Fraction(*w(r + s)), base

    return _lifted(inst, counter, ratio_base, 0, 0, lambda e, k: (1, 1))


def evaluate_rhs(inst: IdentityInstance,
                 counter: Optional[EvalCounter] = None) -> Fraction:
    """Evaluate the closed form matching the instance's identity."""
    return _REGISTRY[inst.identity].rhs(inst, counter)


# ---------------------------------------------------------------------------
# Verification engine
# ---------------------------------------------------------------------------

CLASS_VERIFIED = "verified"
CLASS_MISMATCH = "mismatch"
CLASS_OUTSIDE = "outside_domain"
CLASS_SKIPPED = "skipped"
CLASS_ERROR = "error"


@dataclass(frozen=True)
class EvaluationReport:
    """Outcome of evaluating one identity instance both ways.

    The coordinates are listed here rather than held as an instance, since a
    skipped point has no valid instance. The outcome fields default to those
    of a skipped point. ``oracle_terms`` and ``closed_terms`` count the
    summand-scale units (sequence terms, binomials, oracle additions) each
    route used for this point. The closed form's a_n-free lookups are made
    once per line :func:`evaluate_line` runs (see :func:`_lifted`), but
    counted at every point that uses them: the counts are uses, not cache
    misses, and a sweep reports what its points verified alone report.
    """

    identity: IdentityId
    params: HoradamParams
    n: int
    a_n: int
    c: int
    r: int
    s: int
    d: int
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    equal: Optional[bool] = None
    oracle_terms: int = 0
    closed_terms: int = 0
    oracle_ns: int = 0
    closed_ns: int = 0
    classification: str = CLASS_SKIPPED
    detail: str = ""


_EVALUATION_ERRORS = (PoleError, ZeroDivisionError)


def verify(inst: IdentityInstance) -> EvaluationReport:
    """Evaluate oracle and closed form for one instance and compare exactly.

    Evaluation-time failures (poles, division by zero) are folded into an
    ``error`` report rather than raised; any other exception is a bug and
    propagates. The report equals ``EvaluationReport(**fields)`` but is
    built by ``object.__new__`` and ``__dict__.update``, as
    :meth:`IdentityInstance._at` builds a point, without the frozen
    ``__init__``'s one ``object.__setattr__`` per field.
    """
    oracle_counter = EvalCounter()
    closed_counter = EvalCounter()
    try:
        start = time.perf_counter_ns()
        lhs = oracle_nested(lhs_spec(inst), counter=oracle_counter)
        oracle_ns = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        rhs = evaluate_rhs(inst, counter=closed_counter)
        closed_ns = time.perf_counter_ns() - start
    except _EVALUATION_ERRORS as exc:
        lhs = rhs = equal = None
        oracle_ns = closed_ns = 0
        classification, detail = CLASS_ERROR, str(exc)
    else:
        equal = lhs == rhs
        if inst.a_n >= inst.c:
            classification = CLASS_VERIFIED if equal else CLASS_MISMATCH
        else:
            classification = CLASS_OUTSIDE
        detail = ""
    report = object.__new__(EvaluationReport)
    report.__dict__.update(identity=inst.identity, params=inst.params, n=inst.n, a_n=inst.a_n,
                           c=inst.c, r=inst.r, s=inst.s, d=inst.d, lhs=lhs, rhs=rhs,
                           equal=equal, oracle_terms=oracle_counter.count,
                           closed_terms=closed_counter.count, oracle_ns=oracle_ns,
                           closed_ns=closed_ns, classification=classification, detail=detail)
    return report


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of instance coordinates for one identity.

    ``a_offsets`` positions the outer upper limit relative to each lower
    limit (``a_n = c + offset``); ``a_values`` may instead pin absolute
    values. Dimensions an identity does not use are collapsed to one point.
    """

    families: Tuple[HoradamParams, ...] = ()
    n_values: Tuple[int, ...] = (1, 2, 3)
    c_values: Tuple[int, ...] = (1,)
    r_values: Tuple[int, ...] = (1,)
    s_values: Tuple[int, ...] = (0,)
    d_values: Tuple[int, ...] = (0,)
    a_offsets: Tuple[int, ...] = tuple(range(-2, 9))
    a_values: Optional[Tuple[int, ...]] = None


def _sweep_axes(identity: IdentityId, grid: Optional[SweepGrid]) -> tuple:
    """The values ``(families, n, c, r, s, d)`` a grid sweeps for a tag, and
    the grid. ``families`` is the grid's when it has any, so a family other
    than a fixed tag's own is swept and skipped, and ``(None,)`` for a fixed
    tag's grid without one; the coordinates the tag does not sweep keep
    their defaults."""
    record = _REGISTRY[identity]
    if grid is None:
        grid = record.grid
    dims = record.shape.dims
    families: Tuple[Optional[HoradamParams], ...]
    if grid.families:
        families = grid.families
    elif record.fixed is not None:
        families = (None,)
    else:
        raise ValueError(f"{identity} needs at least one parameter family")
    c_values = grid.c_values if "c" in dims else (1,)
    r_values = grid.r_values if "r" in dims else (1,)
    s_values = grid.s_values if "s" in dims else (0,)
    d_values = grid.d_values if "d" in dims else (0,)
    return (families, grid.n_values, c_values, r_values, s_values, d_values), grid


def _sweep_lines(identity: IdentityId, grid: Optional[SweepGrid]) -> Iterator[tuple]:
    """The lines ``(params, n, a_values, c, r, s, d)`` of a grid, in grid order."""
    axes, grid = _sweep_axes(identity, grid)
    for params, n, c, r, s, d in product(*axes):
        a_values = grid.a_values if grid.a_values is not None else tuple(
            c + off for off in grid.a_offsets)
        yield params, n, a_values, c, r, s, d


def sweep_points(identity: IdentityId, grid: Optional[SweepGrid] = None) -> Iterator[tuple]:
    """Every grid point ``(params, n, a_n, c, r, s, d)``, in grid order, unvalidated."""
    for params, n, a_values, c, r, s, d in _sweep_lines(identity, grid):
        for a_n in a_values:
            yield params, n, a_n, c, r, s, d


def grid_size(identity: IdentityId, grid: Optional[SweepGrid] = None) -> int:
    """The number of points :func:`sweep_points` yields, counted without
    enumerating them."""
    axes, grid = _sweep_axes(identity, grid)
    a_count = len(grid.a_offsets if grid.a_values is None else grid.a_values)
    return prod(map(len, axes)) * a_count


def fixed_family(identity: IdentityId) -> Optional[HoradamParams]:
    """The one family a tag is specific to, or None when any valid family will do."""
    return _REGISTRY[identity].fixed


def evaluate_line(identity: IdentityId, params: Optional[HoradamParams], n: int,
                  a_values: Sequence[int], c: int, r: int, s: int,
                  d: int) -> Iterator[EvaluationReport]:
    """Yield :func:`verify` at each a_n of one grid line, validated once by
    one instance whose a_n-free work its points (:meth:`IdentityInstance._at`)
    share. A line that fails a precondition gives a ``skipped`` report per
    a_n with the reason as its detail, never an exception; ``params`` None
    stands for the tag's fixed family, and raises ``TypeError`` on a tag
    without one, as does an a_n that is not an int."""
    if not a_values:
        return
    try:
        line = IdentityInstance(identity, params, n, a_values[0], c, r, s, d)
    except InvalidInstanceError as exc:
        shown = params if params is not None else fixed_family(identity)
        for a_n in a_values:
            _check_int("a_n", a_n)
            yield EvaluationReport(identity, shown, n, a_n, c, r, s, d, detail=str(exc))
        return
    for a_n in a_values:
        yield verify(line._at(a_n))


def evaluate_point(identity: IdentityId, params: Optional[HoradamParams], n: int,
                   a_n: int, c: int = 1, r: int = 1, s: int = 0, d: int = 0) -> EvaluationReport:
    """:func:`evaluate_line` at one point given by its coordinates."""
    return next(evaluate_line(identity, params, n, (a_n,), c, r, s, d))


def iter_sweep(identity: IdentityId, grid: Optional[SweepGrid] = None):
    """Yield one report per grid point, in grid order, by :func:`evaluate_line`.

    Points that fail a precondition are yielded as ``skipped`` reports,
    never raised. Streaming keeps large sweeps at constant memory.
    """
    for line in _sweep_lines(identity, grid):
        yield from evaluate_line(identity, *line)


def sweep(identity: IdentityId, grid: Optional[SweepGrid] = None) -> List[EvaluationReport]:
    """Run :func:`verify` over a grid, one report per point, in grid order."""
    return list(iter_sweep(identity, grid))


@dataclass(frozen=True)
class SweepSummary:
    total: int
    verified: int
    mismatched: int
    outside_domain: int
    skipped: int
    errors: int

    @property
    def exit_code(self) -> int:
        """1 when any point mismatched or failed to evaluate, else 0."""
        return 1 if self.mismatched or self.errors else 0

    @classmethod
    def of(cls, tally: Counter) -> SweepSummary:
        """The summary of per-class report counts, keyed by ``CLASS_*``."""
        return cls(total=sum(tally.values()), verified=tally[CLASS_VERIFIED],
                   mismatched=tally[CLASS_MISMATCH], outside_domain=tally[CLASS_OUTSIDE],
                   skipped=tally[CLASS_SKIPPED], errors=tally[CLASS_ERROR])


def summarize(reports: Iterable[EvaluationReport]) -> SweepSummary:
    return SweepSummary.of(Counter(report.classification for report in reports))


def default_grid(identity: IdentityId) -> SweepGrid:
    """A deterministic grid sized to exercise the identity across families."""
    return _REGISTRY[identity].grid


# ---------------------------------------------------------------------------
# Registry: one record per tag
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Record:
    """Everything that distinguishes one tag.

    ``fixed`` pins the sequence family; otherwise ``family`` may require the
    restricted or gibonacci shape. ``parity`` is the required ``n % 2`` of
    the F6 forms. ``shape`` is shared with the tag's parent theorem.
    """

    shape: _Shape
    rhs: Callable[[IdentityInstance, Optional[EvalCounter]], Fraction]
    grid: SweepGrid
    fixed: Optional[HoradamParams] = None
    family: Optional[str] = None
    parity: Optional[int] = None


def _fams(*names: str) -> Tuple[HoradamParams, ...]:
    return tuple(FAMILIES[name] for name in names)


_STD_FAMILIES = _fams("fibonacci", "gibonacci31", "integer_root", "negative_d", "generic")
_GIBONACCI_FAMILIES = _fams("fibonacci", "lucas", "gibonacci31", "gibonacci_neg")
_RESTRICTED_FAMILIES = _fams("fibonacci", "gibonacci31", "negative_d", "generic")

# Default grids. Tags whose grids differ only in their families share a builder.
_CUBIC_GRID = SweepGrid(n_values=(1, 2, 3, 4), c_values=(-2, 0, 1, 3),
                        s_values=(-3, 0, 2, 5), a_offsets=tuple(range(-2, 9)))
_F3_GRID = SweepGrid(families=_STD_FAMILIES, n_values=(1, 2, 3), c_values=(-1, 1),
                     r_values=(-2, -1, 1, 2), s_values=(-2, 0, 3),
                     a_offsets=tuple(range(-2, 7)))


def _f3_special_grid(families: Tuple[HoradamParams, ...]) -> SweepGrid:
    return SweepGrid(families=families, n_values=(1, 2), c_values=(-1, 1),
                     r_values=(-1, 1, 2), s_values=(0, 2), a_offsets=tuple(range(-1, 7)))


def _f6_grid(families: Tuple[HoradamParams, ...], n_values: Tuple[int, ...]) -> SweepGrid:
    return SweepGrid(families=families, n_values=n_values,
                     c_values=(-1, 1), r_values=(-1, 1, 2), s_values=(0, 2),
                     d_values=(0, 1), a_offsets=tuple(range(-1, 7)))


def _f7_special_grid(families: Tuple[HoradamParams, ...]) -> SweepGrid:
    return SweepGrid(families=families, n_values=(1, 2), c_values=(-1, 1), r_values=(1, 2),
                     s_values=(-1, 0, 2), d_values=(-1, 0), a_offsets=tuple(range(-1, 7)))


def _f7_r1d0_grid(families: Tuple[HoradamParams, ...]) -> SweepGrid:
    return SweepGrid(families=families, n_values=(1, 2, 3), c_values=(-1, 0, 1),
                     s_values=(-2, 2, 3), a_offsets=tuple(range(-1, 7)))


_REGISTRY: Dict[IdentityId, _Record] = {
    IdentityId.H: _Record(
        _H, rhs_F3, SweepGrid(n_values=(1, 2, 3), a_offsets=tuple(range(0, 13))),
        fixed=FIBONACCI),
    IdentityId.F1A: _Record(_F1, rhs_F1, _CUBIC_GRID, fixed=FIBONACCI),
    IdentityId.F1B: _Record(_F1, rhs_F1, _CUBIC_GRID, fixed=LUCAS),
    IdentityId.F2A: _Record(_F2, rhs_F2, _CUBIC_GRID, fixed=FIBONACCI),
    IdentityId.F2B: _Record(_F2, rhs_F2, _CUBIC_GRID, fixed=LUCAS),
    IdentityId.F3: _Record(_F3, rhs_F3, _F3_GRID),
    IdentityId.F4: _Record(_F4, rhs_F4, _F3_GRID),
    IdentityId.F5: _Record(_F5, rhs_F5, SweepGrid(
        families=_STD_FAMILIES, n_values=(1, 2, 3), c_values=(-1, 1), r_values=(-1, 1, 2),
        s_values=(0, 2), d_values=(-1, 1, 2), a_offsets=tuple(range(-2, 7)))),
    IdentityId.F6A: _Record(_F6, rhs_F6, _f6_grid(_STD_FAMILIES, (2, 4)), parity=0),
    IdentityId.F6B: _Record(_F6, rhs_F6, _f6_grid(_STD_FAMILIES, (1, 3)), parity=1),
    IdentityId.F7: _Record(_F7, rhs_F7, SweepGrid(
        families=_STD_FAMILIES, n_values=(1, 2, 3), c_values=(-1, 1), r_values=(-1, 1, 2),
        s_values=(-1, 0, 2), d_values=(-1, 0, 1), a_offsets=tuple(range(-2, 7)))),
    IdentityId.F3_W: _Record(_F3, rhs_F3, _f3_special_grid(_RESTRICTED_FAMILIES),
                             family=_RESTRICTED),
    IdentityId.F3_G: _Record(_F3, rhs_F3, _f3_special_grid(_GIBONACCI_FAMILIES),
                             family=_GIBONACCI),
    IdentityId.F4_G: _Record(_F4, rhs_F4, _f3_special_grid(_GIBONACCI_FAMILIES),
                             family=_GIBONACCI),
    IdentityId.F5_G: _Record(_F5, rhs_F5, SweepGrid(
        families=_GIBONACCI_FAMILIES, n_values=(1, 2), c_values=(-1, 1), r_values=(-1, 1, 2),
        s_values=(0, 2), d_values=(1, 2), a_offsets=tuple(range(-1, 7))),
        family=_GIBONACCI),
    IdentityId.F6_G_EVEN: _Record(_F6, rhs_F6, _f6_grid(_GIBONACCI_FAMILIES, (2, 4)),
                                  family=_GIBONACCI, parity=0),
    IdentityId.F6_G_ODD: _Record(_F6, rhs_F6, _f6_grid(_GIBONACCI_FAMILIES, (1, 3)),
                                 family=_GIBONACCI, parity=1),
    IdentityId.F6_F_EVEN: _Record(_F6, rhs_F6_F, _f6_grid((), (2, 4)), fixed=FIBONACCI, parity=0),
    IdentityId.F6_F_ODD: _Record(_F6, rhs_F6_F, _f6_grid((), (1, 3)), fixed=FIBONACCI, parity=1),
    IdentityId.F6_L_EVEN: _Record(_F6, rhs_F6_L, _f6_grid((), (2, 4)), fixed=LUCAS, parity=0),
    IdentityId.F6_L_ODD: _Record(_F6, rhs_F6_L, _f6_grid((), (1, 3)), fixed=LUCAS, parity=1),
    IdentityId.F7_W: _Record(_F7, rhs_F7, _f7_special_grid(_RESTRICTED_FAMILIES),
                             family=_RESTRICTED),
    IdentityId.F7_G: _Record(_F7, rhs_F7, _f7_special_grid(_GIBONACCI_FAMILIES),
                             family=_GIBONACCI),
    IdentityId.F7_R1D0_W: _Record(_F7_R1D0, rhs_F7, _f7_r1d0_grid(_RESTRICTED_FAMILIES),
                                  family=_RESTRICTED),
    IdentityId.F7_R1D0_G: _Record(_F7_R1D0, rhs_F7, _f7_r1d0_grid(_GIBONACCI_FAMILIES),
                                  family=_GIBONACCI),
}
