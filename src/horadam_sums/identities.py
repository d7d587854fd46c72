"""Catalog of nested-sum closed forms and the engine that verifies them.

Each :class:`IdentityId` names one closed-form evaluation of a nested sum
whose innermost summand involves a second-order recurrence sequence. For
every identity the left-hand side is evaluated independently by the exact
chain-count oracle and the right-hand side by an evaluator coded directly from
the closed form; :func:`verify` demands bit-exact agreement.

The catalog covers the general four-parameter family (tags F3..F7), the
Fibonacci/Lucas cubic-index forms (F1*/F2*), and their specializations for
the restricted (p = 1) and gibonacci (p = 1, q = -1) families. Every tag is
described once, by one record keyed by the tag's string: its fixed family or
family shape, the F6 depth parity, its default grid and the theorem shape it
shares with its parent (the coordinates it reads, preconditions, left-hand
summand and the closed form's parameter tuple). :class:`IdentityId` is built
from those keys, in their order, each member named by its tag upper-cased
(``IdentityId.F6_G_EVEN`` is ``"F6_G_even"``), and ``_REGISTRY`` is keyed
by the members, so a tag is written in one place only. As in the paper, which
evaluates the nested geometric sum once and derives every display from it,
every closed form is one lifted master form at its shape's tuple, which
:func:`evaluate_rhs` reads off the registry. Every restricted and gibonacci
specialization holds its parent's shape, since validation already pins its
parameters, and F7_r1d0_* holds F7's reading only c and s. One rule of
validation holds each coordinate among c, r, s and d that a shape does not
read at its default. So the classic form H, which reads none, is F3 on the
Fibonacci numbers at r = 1, s = 0, c = 1, and F1/F2, which read c and s,
hold F5's tuple at the fixed (r, d) = (3, -1) and (3, -2). All eight F6
tags run F6's shape over Q: the display's sqrt(D) occurs only in even
powers, which become powers of D, and the Fibonacci and Lucas forms' own
terms are F6's on their families. The left-hand summands are built apart
from the master form, so every closed form is checked against the oracle,
never against another evaluator.

Closed forms are evaluated anywhere their denominators permit, including
points with an empty left-hand side (outer upper limit below the lower
limit). Those points are classified ``outside_domain`` rather than failed.
There each closed form equals the nested sum under Karr's convention for
reversed limits, sum_{k=a}^{b} = -sum_{k=b+1}^{a-1} when b < a - 1 (Karr,
"Summation in finite terms", J. ACM 28(2), 1981), applied at every level:
``tests/test_line_memo.py::test_outside_domain_follows_the_reversed_sum_convention``
checks this at every such point of the default grids.

The work of a grid line, one (tag, family, n, c, r, s, d) with a_n varying,
that does not depend on a_n is done once per line, on ints, in one place:
:func:`evaluate_line` validates the line by one instance, makes the
left-hand summand and the closed form's line part right after, and builds
its points from that instance, each carrying the two. An instance built
alone keeps nothing: :func:`lhs_spec` and :func:`evaluate_rhs` make what
each call needs. Validation tests the int pairs (numerator, denominator) of
U_j and V_j (``first_kind_pair``, ``second_kind_pair``), of p, q and D and
the exact terms W_j for zero; each shape's ratio and base are int pairs in
lowest terms over a positive denominator, built from those of U_j, V_j, q**j
and W_j; and each left-hand summand builds its one ``Fraction``, its weight
base, from the same ints but apart from the closed form's base, so the
oracle stays independent of the closed form. On a family whose terms are all
integers, an instance and its closed form run no ``Fraction`` code. The
closed form's terms are exchanged as int pairs too and its line part holds
ints only, read from the far end of the line so that a cold window walks
once (see :func:`_lifted_line`); a point is finished on ints in one
``Fraction``, reduced by the factors of its denominator rather than by one
gcd with the whole of it (see :func:`_lifted_reduced`); its left-hand spec
and its report are built without their frozen dataclass constructors. The
closed form's parts are module functions given the instance and the counter,
so a point builds no closure, and the two sides are compared as ints: an
agreeing report holds one value object as both its sides.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .combinatorics import binom
from .nestedcore import (EvalCounter, NestedSumSpec, PoleError, SumTerm, _check_int,
                         oracle_nested)
from .sequences import (FIBONACCI, LUCAS, HoradamParams, HoradamSequence, _lowest,
                        first_kind_pair, gibonacci, horadam, second_kind_pair)


class _Tag(str, Enum):
    """The base of :class:`IdentityId`, built from the registry's tags below."""

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


# each of the coordinates c, r, s, d with its default: the value it must
# hold for a form that does not read it, and a single point's when unset
COORD_DEFAULTS = {"c": 1, "r": 1, "s": 0, "d": 0}


@dataclass(frozen=True)
class IdentityInstance:
    """One concrete evaluation point of an identity.

    Construction validates every precondition of the chosen identity (family
    shape, parity, the coordinates its form does not read held at their
    defaults, nonzero denominators and weight bases) and raises
    :class:`InvalidInstanceError` naming the violated condition. Evaluators
    may therefore assume a valid instance. A coordinate that is not an int
    (a bool included), or no family for a tag without a fixed one, is a
    caller's bug, not a failed precondition, and raises ``TypeError``.
    """

    identity: IdentityId
    params: Optional[HoradamParams]
    n: int
    a_n: int
    c: int = COORD_DEFAULTS["c"]
    r: int = COORD_DEFAULTS["r"]
    s: int = COORD_DEFAULTS["s"]
    d: int = COORD_DEFAULTS["d"]

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

    def _at(self, a_n: int) -> IdentityInstance:
        """This instance at another a_n, with the line parts it carries (see
        :func:`evaluate_line`); unvalidated, as no precondition reads a_n."""
        _check_int("a_n", a_n)
        point = object.__new__(IdentityInstance)
        point.__dict__.update(self.__dict__, a_n=a_n)
        return point


_RESTRICTED = "restricted"
_GIBONACCI = "gibonacci"

def _violation(inst: IdentityInstance, record: _Record) -> Optional[str]:
    """The first precondition of ``record`` that ``inst`` violates, if any.
    Every test is made on ints: p and q as their (numerator, denominator)
    pairs, and U, V, W and D by their numerators."""
    p, q = inst.params._pq
    if inst.n < 1:
        return "n must be a positive integer"
    if record.family == _RESTRICTED and p != (1, 1):
        return "restricted form requires p = 1"
    if record.family == _GIBONACCI and (p != (1, 1) or q != (-1, 1)):
        return "gibonacci form requires p = 1, q = -1"
    if record.parity is not None and inst.n % 2 != record.parity:
        return f"n must be {('even', 'odd')[record.parity]} for this variant"
    for name, default in COORD_DEFAULTS.items():
        if name not in record.shape.dims and getattr(inst, name) != default:
            return f"this form does not read {name}, which must be {default}"
    return record.shape.violation(inst)


# ---------------------------------------------------------------------------
# Theorem shapes: what a theorem and its specializations share
# ---------------------------------------------------------------------------

# (inst, counter, r, d) -> (ratio, base, step, mul), and (inst, counter, e, k)
# -> T(e, k); the ratio, the base and T are int pairs (numerator, denominator)
Pair = Tuple[int, int]
ClosedTuple = Tuple[Pair, Pair, int, int]
RatioBase = Callable[[IdentityInstance, EvalCounter, int, int], ClosedTuple]
Term = Callable[[IdentityInstance, EvalCounter, int, int], Pair]


@dataclass(frozen=True)
class _Shape:
    """The coordinates a form reads, kind-specific preconditions, left-hand
    summand and the closed form's tuple.

    ``dims`` names the coordinates among c, r, s, d that the form reads;
    validation holds each of the others at its default (``COORD_DEFAULTS``).
    ``violation`` returns the first violated kind-specific precondition as a
    reason, or None. ``summand`` builds the oracle-evaluable innermost term
    of the left-hand side. :func:`evaluate_rhs` runs the lifted master form
    at ``ratio_base`` (the ratio, base, index step and multiplier) and
    ``term``, with r and d the instance's or, if set, ``at``.
    """

    dims: str
    summand: Callable[[IdentityInstance], SumTerm]
    ratio_base: RatioBase
    term: Term
    violation: Callable[[IdentityInstance], Optional[str]] = lambda inst: None
    at: Optional[Tuple[int, int]] = None


def _v_r_violation(inst: IdentityInstance) -> Optional[str]:
    if second_kind_pair(inst.params, inst.r)[0] == 0:
        return f"V_{inst.r} = 0"
    return None


# The summands' weight bases are read off the left-hand displays, apart from
# the closed forms' ratios and bases, each built as one Fraction from ints.

def _f3_summand(inst: IdentityInstance) -> SumTerm:
    params = inst.params
    vn, vd = second_kind_pair(params, inst.r)
    return SumTerm(seq=params, index_mul=inst.r, index_add=inst.s,
                   weight_base=Fraction(vd, vn))


def _f4_summand(inst: IdentityInstance) -> SumTerm:
    qn, qd, _ = _lifted_power(*inst.params._key[3], -inst.r)
    return SumTerm(seq=inst.params, index_mul=2 * inst.r, index_add=inst.s,
                   weight_base=Fraction(-qn, qd))


def _f5_violation(inst: IdentityInstance) -> Optional[str]:
    r, d = inst.r, inst.d
    if r == 0:
        return "r must be nonzero"
    if r + d == 0:
        return "r + d must be nonzero"
    for j, note in ((r, ""), (r + d, ""), (d, " (degenerate weight base)")):
        if first_kind_pair(inst.params, j)[0] == 0:
            return f"U_{j} = 0{note}"
    return None


def _f5_summand(inst: IdentityInstance) -> SumTerm:
    params, r, d = inst.params, inst.r, inst.d
    (un, ud), (wn, wd) = first_kind_pair(params, d), first_kind_pair(params, r + d)
    return SumTerm(seq=params, index_mul=r, index_add=inst.s,
                   weight_base=Fraction(un * wd, ud * wn))


def _f6_violation(inst: IdentityInstance) -> Optional[str]:
    r, d = inst.r, inst.d
    if r == 0:
        return "r must be nonzero"
    if inst.params._discriminant[0] == 0:
        return "discriminant must be nonzero"
    if first_kind_pair(inst.params, r)[0] == 0:
        return f"U_{r} = 0"
    for j, note in ((r + d, ""), (d, " (degenerate weight base)")):
        if second_kind_pair(inst.params, j)[0] == 0:
            return f"V_{j} = 0{note}"
    return None


def _f6_summand(inst: IdentityInstance) -> SumTerm:
    params, r, d = inst.params, inst.r, inst.d
    (vn, vd), (wn, wd) = second_kind_pair(params, d), second_kind_pair(params, r + d)
    return SumTerm(seq=params, index_mul=r, index_add=inst.s,
                   weight_base=Fraction(vn * wd, vd * wn))


def _f7_violation(inst: IdentityInstance) -> Optional[str]:
    r, s, d = inst.r, inst.s, inst.d
    if r + 1 == d:
        return "r + 1 = d makes the leading denominator index zero"
    for j, note in ((r - d + 1, ""), (r - d, " (degenerate weight base)")):
        if first_kind_pair(inst.params, j)[0] == 0:
            return f"U_{j} = 0{note}"
    seq = HoradamSequence.of(inst.params)
    for j, note in ((s + d, ""), (s + d - 1, " (degenerate weight base)"), (r + s, "")):
        if seq.exact(j) == 0:
            return f"W_{j} = 0{note}"
    return None


def _f7_summand(inst: IdentityInstance) -> SumTerm:
    params, r, s, d = inst.params, inst.r, inst.s, inst.d
    seq = HoradamSequence.of(params)
    (qn, qd), (un, ud), (vn, vd) = (params._key[3], first_kind_pair(params, r - d),
                                    first_kind_pair(params, r - d + 1))
    (an, ad), (bn, bd) = (seq.exact(s + d - 1).as_integer_ratio(),
                          seq.exact(s + d).as_integer_ratio())
    return SumTerm(weight_base=Fraction(qn * un * vd * an * bd, qd * ud * vn * ad * bn))


def lhs_spec(inst: IdentityInstance) -> NestedSumSpec:
    """The oracle-evaluable nested-sum shape matching the identity's left side.

    Its summand is the one a point of :func:`evaluate_line` carries, or is
    made for this call on an instance built alone. The spec equals
    ``NestedSumSpec(n, a_n, c, summand)`` but is built as
    :meth:`IdentityInstance._at` builds a point, by ``object.__new__`` and
    ``__dict__.update``: a valid instance has n >= 1, so the frozen
    ``__init__`` and ``__post_init__``, which check that and widen c to one
    lower limit per level, would only repeat work at every point."""
    spec = object.__new__(NestedSumSpec)
    spec.__dict__.update(depth=inst.n, upper=inst.a_n, lower_limits=(inst.c,) * inst.n,
                         term=inst.__dict__.get("_summand")
                         or _REGISTRY[inst.identity].shape.summand(inst))
    return spec


# ---------------------------------------------------------------------------
# Right-hand sides
#
# The paper evaluates the nested geometric sum once and reads every display
# off it, so every closed form is one lifted master form, :func:`evaluate_rhs`,
# at the tuple its theorem shape holds: the ratio, the base, the index step
# and the multiplier (one function of the instance, r and d, giving the ratio
# and base as int pairs in lowest terms over positive denominators), called
# once per grid line, and the term T(e, k). A term is an int pair
# (numerator, denominator): the denominator is nonzero but may be negative
# and need not be reduced, so a term costs no normalised ``Fraction``. The
# ratio-and-base and term functions are module functions that take the
# instance and the counter as arguments, so a point that reads its line's
# part builds no closure. The counter tallies one unit per summand-family
# sequence term and per binomial coefficient, so reported closed-form costs
# are measured, not assumed.
# ---------------------------------------------------------------------------

def _lifted_power(u: int, v: int, e: int) -> Tuple[int, int, int]:
    """(u/v)**e as an int pair and the root of its denominator: (u**e, v**e, v),
    or (v**-e, u**-e, u) when e < 0."""
    return (u ** e, v ** e, v) if e >= 0 else (v ** -e, u ** -e, u)


def _lifted_line(inst: IdentityInstance, counter: EvalCounter, ratio: Pair, base: Pair,
                 step: int, mul: int, term: Term) -> tuple:
    """The part of the closed form (see :func:`evaluate_rhs`) free of a_n,
    in ints only, from ``ratio`` = (rn, rd) and ``base`` = (u, v), each in
    lowest terms over a positive denominator:
    ``(rn**n, rd**n, u, v, K, D)``, where K[j] / D are the coefficients
    base**(c-1) * ratio**(n-j) * T(n-j, step*(n-j) + mul*(c-1) + s), j < n,
    over their least common denominator D > 0. Each coefficient is an
    unreduced product of int pairs until the one gcd that reduces K and D
    together.

    The terms are read in the order of j, from e = n - j = n down, so a line
    whose terms grow away from the seeds with e reads its farthest term
    first: a cold window walks once, to the farthest one it can reach, and
    holds the nearer ones, where reading them nearest first would walk once
    per term."""
    n = inst.n
    rn, rd = ratio
    u, v = base
    lift = inst.c - 1
    shift = mul * lift + inst.s
    sn, sd, _ = _lifted_power(u, v, lift)
    pairs = []
    for e in range(n, 0, -1):
        tn, td = term(inst, counter, e, step * e + shift)
        pairs.append((sn * rn ** e * tn, sd * rd ** e * td))
    den = lcm(*(d for k, d in pairs))
    coefficients = [k * (den // d) for k, d in pairs]
    g = gcd(den, *coefficients)
    return rn ** n, rd ** n, u, v, tuple(k // g for k in coefficients), den // g


def _lifted_point(inst: IdentityInstance, counter: EvalCounter, part: tuple,
                  step: int, mul: int, term: Term) -> Fraction:
    """The closed form at the instance's a_n from its line part
    ``(rn**n, rd**n, u, v, K, D)``: the one term that depends on a, less one
    dot product of K with the binomials C(a+j-c, j), over D.

    With T(n, step*n + mul*a + s) = tn/td and base**a = bn/bd, the point is
    ``(rn**n*bn*tn*D - dot*rd**n*td*bd) / (rd**n*td*D * bd)``, reduced by
    :func:`_lifted_reduced` factor by factor: bd = root**|a| is as large as
    the whole point at a far a_n, while rd**n*td*D stays small.
    ``counter`` tallies the n binomials, and ``term`` its own lookups."""
    ratio_num, ratio_den, u, v, coefficients, den = part
    n, a, c = inst.n, inst.a_n, inst.c
    counter.count += n
    dot = 0
    top = a - c
    for j, k in enumerate(coefficients):
        dot += k * binom(top + j, j)
    tn, td = term(inst, counter, n, step * n + mul * a + inst.s)
    bn, bd, root = _lifted_power(u, v, a)
    lead = ratio_den * td
    return _lifted_reduced(ratio_num * bn * tn * den - dot * lead * bd, lead * den, root,
                           abs(a), bd)


def _lifted_reduced(num: int, small: int, root: int, e: int, big: int) -> Fraction:
    """``num / (small * big)`` in lowest terms, where big = root**e, e >= 0,
    and small and root are nonzero, without one gcd of num and the whole
    denominator.

    After num and small are divided by their gcd, they are coprime. The
    primes of root are then stripped from num one ``h = gcd(num, root)`` at
    a time, and big is divided by their product. That stops when h is 1, or
    after e strips: then each strip took a prime's full share of root, so a
    prime still in num is gone from what is left of big. Either way num is
    left coprime to the whole denominator, and the ``Fraction`` is built
    from the pair with no further gcd, 0 as 0/1."""
    den = 1
    if num:
        g = gcd(num, small)
        num, small = num // g, small // g
        stripped = 1
        for _ in range(e):
            h = gcd(num, root)
            if h == 1:
                break
            num //= h
            stripped *= h
        den = small * (big // stripped)
        if den < 0:
            num, den = -num, -den
    # Fraction(num, den) would take the gcd again, and its _normalize flag is
    # gone from Python 3.12 on; _numerator and _denominator are its slots
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def _w_term(inst: IdentityInstance, counter: EvalCounter, e: int, k: int) -> Tuple[int, int]:
    """T(e, k) = W[k], tallied."""
    counter.count += 1
    return HoradamSequence.of(inst.params).exact(k).as_integer_ratio()


def _f3_ratio_base(inst: IdentityInstance, counter: EvalCounter, r: int,
                   d: int) -> ClosedTuple:
    """F3's ratio -1/q**r and base 1/V_r, index step 2r and multiplier r."""
    qn, qd, _ = _lifted_power(*inst.params._key[3], r)
    vn, vd = second_kind_pair(inst.params, r)
    return _lowest(-qd, qn), _lowest(vd, vn), 2 * r, r


def _f4_ratio_base(inst: IdentityInstance, counter: EvalCounter, r: int,
                   d: int) -> ClosedTuple:
    """F4's ratio 1/V_r and base -1/q**r, index step r and multiplier 2r."""
    qn, qd, _ = _lifted_power(*inst.params._key[3], r)
    vn, vd = second_kind_pair(inst.params, r)
    return _lowest(vd, vn), _lowest(-qd, qn), r, 2 * r


def _f5_ratio_base(inst: IdentityInstance, counter: EvalCounter, r: int,
                   d: int) -> ClosedTuple:
    """F5's ratio -U_d/(U_r*q**d), whose m-th power is the display's factor
    (-1)**m (U_d/U_r)**m / q**(dm), base U_d/U_{r+d}, step r + d and mul r."""
    params = inst.params
    qn, qd, _ = _lifted_power(*params._key[3], d)
    (un, ud), (rn, rd), (wn, wd) = (first_kind_pair(params, d), first_kind_pair(params, r),
                                    first_kind_pair(params, r + d))
    return _lowest(-un * rd * qd, ud * rn * qn), _lowest(un * wd, ud * wn), r + d, r


def _f6_ratio_base(inst: IdentityInstance, counter: EvalCounter, r: int,
                   d: int) -> ClosedTuple:
    """F6's ratio V_d/(U_r*q**d), base V_d/V_{r+d}, and F5's step and mul."""
    params = inst.params
    qn, qd, _ = _lifted_power(*params._key[3], d)
    (vn, vd), (rn, rd), (wn, wd) = (second_kind_pair(params, d), first_kind_pair(params, r),
                                    second_kind_pair(params, r + d))
    return _lowest(vn * rd * qd, vd * rn * qn), _lowest(vn * wd, vd * wn), r + d, r


def _over_disc(inst: IdentityInstance, e: int, xn: int, xd: int) -> Pair:
    """xn/xd divided by D**ceil(e/2) as an int pair: the numerator of D goes
    to the denominator, which is negative when D < 0 and the power odd."""
    disc_num, disc_den = inst.params._discriminant
    h = (e + 1) // 2
    return xn * disc_den ** h, xd * disc_num ** h


def _f6_term(inst: IdentityInstance, counter: EvalCounter, e: int, k: int) -> Pair:
    """F6's T(e, k): W[k] at even e, and at odd e the display's
    W[k+1] - q*W[k-1], read as 2*W[k+1] - p*W[k] (since q*W[k-1] =
    p*W[k] - W[k+1]) off one :meth:`~HoradamSequence.exact_pair`, so a far k
    runs one index-doubling ladder, not two; tallied 2 and 1, the terms the
    display reads."""
    sequence = HoradamSequence.of(inst.params)
    if e % 2:
        counter.count += 2
        here, after = sequence.exact_pair(k)
        (an, ad), (bn, bd) = after.as_integer_ratio(), here.as_integer_ratio()
        pn, pd = inst.params._key[2]
        return _over_disc(inst, e, 2 * an * pd * bd - pn * bn * ad, ad * pd * bd)
    counter.count += 1
    return _over_disc(inst, e, *sequence.exact(k).as_integer_ratio())


def _f7_ratio_base(inst: IdentityInstance, counter: EvalCounter, r: int,
                   d: int) -> ClosedTuple:
    """F7's ratio -q*U_{r-d}*W_{s+d-1}/W_{r+s} and base
    q*U_{r-d}*W_{s+d-1}/(U_{r-d+1}*W_{s+d}), which read three terms W of the
    summand's family; its term ignores its index, so step and mul are 0."""
    params, s = inst.params, inst.s
    sequence = HoradamSequence.of(params)
    counter.count += 3
    (qn, qd), (un, ud), (vn, vd) = (params._key[3], first_kind_pair(params, r - d),
                                    first_kind_pair(params, r - d + 1))
    (an, ad), (bn, bd), (cn, cd) = (sequence.exact(j).as_integer_ratio()
                                    for j in (s + d - 1, s + d, r + s))
    top, bottom = qn * un * an, qd * ud * ad  # q*U_{r-d}*W_{s+d-1}
    return _lowest(-top * cd, bottom * cn), _lowest(top * vd * bd, bottom * vn * bn), 0, 0


def _unit_term(inst: IdentityInstance, counter: EvalCounter, e: int, k: int) -> Tuple[int, int]:
    """F7's T(e, k) = 1: its summand has no sequence factor."""
    return 1, 1


# H is F3 on the Fibonacci numbers at r = 1, s = 0, c = 1, and runs F3's tuple.
_H = _Shape("", lambda inst: SumTerm(seq=inst.params), _f3_ratio_base, _w_term)
# F1 and F2 run F5's tuple at a fixed (r, d). On the Fibonacci recurrence,
# (3, -1) has U_{-1}/U_2 = 1 and U_3 = 2, which give F1's powers of 2, and
# (3, -2) has U_{-2}/U_1 = -1, which gives F2's alternating sign.
_F1 = _Shape("cs", lambda inst: SumTerm(seq=inst.params, index_mul=3, index_add=inst.s),
             _f5_ratio_base, _w_term, at=(3, -1))
_F2 = _Shape("cs", lambda inst: SumTerm(seq=inst.params, index_mul=3, index_add=inst.s,
                                        weight_base=-1),
             _f5_ratio_base, _w_term, at=(3, -2))
# F3: the nested sum of W[rk+s] / V_r**k; F4: of (-1)**k W[2rk+s] / q**(rk);
# F5: of (U_d/U_{r+d})**k W[rk+s].
_F3 = _Shape("crs", _f3_summand, _f3_ratio_base, _w_term, _v_r_violation)
_F4 = _Shape("crs", _f4_summand, _f4_ratio_base, _w_term, _v_r_violation)
_F5 = _Shape("crsd", _f5_summand, _f5_ratio_base, _w_term, _f5_violation)
# F6: the nested sum of (V_d/V_{r+d})**k W[rk+s]. Its term is W[k] at even e
# and W[k+1] - q*W[k-1] at odd e. The display's delta = sqrt(D) occurs only in
# even powers, so the form runs over Q for both parities of n, each term
# divided by D**ceil(e/2) (_over_disc). All eight F6 tags run this shape: on
# the Fibonacci and Lucas numbers the odd term is the display's L[k] and 5 F[k],
# by F[k+1] + F[k-1] = L[k] and L[k+1] + L[k-1] = 5 F[k].
_F6 = _Shape("crsd", _f6_summand, _f6_ratio_base, _f6_term, _f6_violation)
# F7: the geometric nested sum of base q * (U_{r-d}/U_{r-d+1}) * (W_{s+d-1}/W_{s+d}).
_F7 = _Shape("crsd", _f7_summand, _f7_ratio_base, _unit_term, _f7_violation)
_F7_R1D0 = replace(_F7, dims="cs")


def _line_part(inst: IdentityInstance, counter: EvalCounter) -> Tuple[tuple, int, int]:
    """The closed form's line part (:func:`_lifted_line`) at its shape's
    tuple, with its index step and multiplier; r and d are the shape's
    ``at`` or the instance's, and ``counter`` tallies the lookups."""
    shape = _REGISTRY[inst.identity].shape
    r, d = shape.at or (inst.r, inst.d)
    ratio, base, step, mul = shape.ratio_base(inst, counter, r, d)
    return _lifted_line(inst, counter, ratio, base, step, mul, shape.term), step, mul


def evaluate_rhs(inst: IdentityInstance, counter: Optional[EvalCounter] = None) -> Fraction:
    """Evaluate the closed form matching the instance's identity: the lifted
    master form at the tuple its shape holds.

    With (ratio, base, step, mul) from ``ratio_base(inst, counter, r, d)``,
    the ratio and base the fractions of its int pairs, r and d the shape's
    ``at`` or the instance's, a = a_n and T(e, k) the fraction of the int
    pair ``term(inst, counter, e, k)``, it returns
    ratio**n * base**a * T(n, step*n + mul*a + s)
    - base**(c-1) * sum_{j<n} ratio**(n-j) * T(n-j, step*(n-j) + mul*(c-1) + s)
    * C(a+j-c, j).

    Only the last term and the binomials depend on a, so the rest, the line
    part, is made by :func:`_line_part`, ints only, and
    :func:`_lifted_point` finishes the point from it on ints, in one
    normalised ``Fraction`` that :func:`_lifted_reduced` reduces by the
    factors of its denominator. A point of :func:`evaluate_line` carries its
    line's part, with the counter units its lookups tallied, and adds those
    units as if it had made the lookups, so ``closed_terms`` counts uses,
    not cache misses. An instance built alone makes the part on ``counter``,
    or on a fresh one without it, and keeps nothing; a failed call leaves
    the units it made on ``counter``."""
    if counter is None:
        counter = EvalCounter()
    carried = inst.__dict__.get("_closed")
    if carried is None:
        part, step, mul = _line_part(inst, counter)
    else:
        part, step, mul, units = carried
        counter.count += units
    return _lifted_point(inst, counter, part, step, mul, _REGISTRY[inst.identity].shape.term)


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
    once per line by :func:`evaluate_line`, before its first point, so no
    ``closed_ns`` times them, but they are counted at every point that uses
    them (see :func:`evaluate_rhs`): the counts are uses, not cache misses,
    and a sweep reports what its points verified alone report.
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
    propagates. Both routes end in a normalised ``Fraction``, so they are
    compared by numerator and denominator, as ints, which is ``==`` without
    ``Fraction.__eq__``'s type dispatch. When they agree, the report's
    ``rhs`` is the ``lhs`` object itself, which an emitter may use to write
    one value once. The report equals ``EvaluationReport(**fields)`` but is
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
        if lhs.numerator == rhs.numerator and lhs.denominator == rhs.denominator:
            equal, rhs = True, lhs
        else:
            equal = False
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
    values. Every value is swept as given: a point that holds a coordinate
    its tag does not read off that coordinate's default is ``skipped``, as
    validation refuses it.
    """

    families: Tuple[HoradamParams, ...] = ()
    n_values: Tuple[int, ...] = (1, 2, 3)
    c_values: Tuple[int, ...] = (COORD_DEFAULTS["c"],)
    r_values: Tuple[int, ...] = (COORD_DEFAULTS["r"],)
    s_values: Tuple[int, ...] = (COORD_DEFAULTS["s"],)
    d_values: Tuple[int, ...] = (COORD_DEFAULTS["d"],)
    a_offsets: Tuple[int, ...] = tuple(range(-2, 9))
    a_values: Optional[Tuple[int, ...]] = None


def _sweep_axes(identity: IdentityId, grid: Optional[SweepGrid]) -> tuple:
    """The values ``(families, n, c, r, s, d)`` a grid sweeps for a tag, and
    the grid. ``families`` is the grid's when it has any, so a family other
    than a fixed tag's own is swept and skipped, and ``(None,)`` for a fixed
    tag's grid without one; c, r, s and d are the grid's, as validation
    judges a coordinate the tag does not read."""
    record = _REGISTRY[identity]
    if grid is None:
        grid = record.grid
    families: Tuple[Optional[HoradamParams], ...]
    if grid.families:
        families = grid.families
    elif record.fixed is not None:
        families = (None,)
    else:
        raise ValueError(f"{identity} needs at least one parameter family")
    return (families, grid.n_values, grid.c_values, grid.r_values, grid.s_values,
            grid.d_values), grid


def sweep_lines(identity: IdentityId, grid: Optional[SweepGrid] = None) -> Iterator[tuple]:
    """The lines ``(params, n, a_values, c, r, s, d)`` of a grid, in grid
    order, unvalidated."""
    axes, grid = _sweep_axes(identity, grid)
    for params, n, c, r, s, d in product(*axes):
        a_values = grid.a_values if grid.a_values is not None else tuple(
            c + off for off in grid.a_offsets)
        yield params, n, a_values, c, r, s, d


def sweep_points(identity: IdentityId, grid: Optional[SweepGrid] = None) -> Iterator[tuple]:
    """Every grid point ``(params, n, a_n, c, r, s, d)``, in grid order, unvalidated."""
    for params, n, a_values, c, r, s, d in sweep_lines(identity, grid):
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
    one instance. Right after, its left-hand summand and its closed form's
    line part (:func:`_line_part`, on a fresh counter whose units are kept)
    are made once, and its points (:meth:`IdentityInstance._at`) carry them,
    the summand and ints only, for :func:`lhs_spec` and :func:`evaluate_rhs`.
    If either raises, the points carry nothing. A line that fails
    a precondition gives a ``skipped`` report per a_n with the reason as
    its detail, never an exception; ``params`` None stands for the tag's
    fixed family, and raises ``TypeError`` on a tag without one, as does an
    a_n that is not an int. A skipped report is built as :func:`verify`
    builds its own, from the line's fields with only a_n set per point."""
    if not a_values:
        return
    try:
        line = IdentityInstance(identity, params, n, a_values[0], c, r, s, d)
    except InvalidInstanceError as exc:
        skipped = dict(identity=identity,
                       params=params if params is not None else fixed_family(identity),
                       n=n, a_n=None, c=c, r=r, s=s, d=d, lhs=None, rhs=None, equal=None,
                       oracle_terms=0, closed_terms=0, oracle_ns=0, closed_ns=0,
                       classification=CLASS_SKIPPED, detail=str(exc))
        for a_n in a_values:
            _check_int("a_n", a_n)
            report = object.__new__(EvaluationReport)
            report.__dict__.update(skipped, a_n=a_n)
            yield report
        return
    counter = EvalCounter()
    try:
        summand = _REGISTRY[identity].shape.summand(line)
        line.__dict__.update(_summand=summand, _closed=(*_line_part(line, counter), counter.count))
    except _EVALUATION_ERRORS:
        pass  # each point then makes its own parts and fails as it does alone
    for a_n in a_values:
        yield verify(line._at(a_n))


def evaluate_point(identity: IdentityId, params: Optional[HoradamParams], n: int,
                   a_n: int, c: int = COORD_DEFAULTS["c"], r: int = COORD_DEFAULTS["r"],
                   s: int = COORD_DEFAULTS["s"], d: int = COORD_DEFAULTS["d"]) -> EvaluationReport:
    """:func:`evaluate_line` at one point given by its coordinates."""
    return next(evaluate_line(identity, params, n, (a_n,), c, r, s, d))


def iter_sweep(identity: IdentityId, grid: Optional[SweepGrid] = None):
    """Yield one report per grid point, in grid order, by :func:`evaluate_line`.

    Points that fail a precondition are yielded as ``skipped`` reports,
    never raised. Streaming keeps large sweeps at constant memory.
    """
    for line in sweep_lines(identity, grid):
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
    the F6 forms. ``shape`` is its parent theorem's, or a variant of it.
    """

    shape: _Shape
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


_RECORDS: Dict[str, _Record] = {
    "H": _Record(_H, SweepGrid(n_values=(1, 2, 3), a_offsets=tuple(range(0, 13))),
                 fixed=FIBONACCI),
    "F1a": _Record(_F1, _CUBIC_GRID, fixed=FIBONACCI),
    "F1b": _Record(_F1, _CUBIC_GRID, fixed=LUCAS),
    "F2a": _Record(_F2, _CUBIC_GRID, fixed=FIBONACCI),
    "F2b": _Record(_F2, _CUBIC_GRID, fixed=LUCAS),
    "F3": _Record(_F3, _F3_GRID),
    "F4": _Record(_F4, _F3_GRID),
    "F5": _Record(_F5, SweepGrid(
        families=_STD_FAMILIES, n_values=(1, 2, 3), c_values=(-1, 1), r_values=(-1, 1, 2),
        s_values=(0, 2), d_values=(-1, 1, 2), a_offsets=tuple(range(-2, 7)))),
    "F6a": _Record(_F6, _f6_grid(_STD_FAMILIES, (2, 4)), parity=0),
    "F6b": _Record(_F6, _f6_grid(_STD_FAMILIES, (1, 3)), parity=1),
    "F7": _Record(_F7, SweepGrid(
        families=_STD_FAMILIES, n_values=(1, 2, 3), c_values=(-1, 1), r_values=(-1, 1, 2),
        s_values=(-1, 0, 2), d_values=(-1, 0, 1), a_offsets=tuple(range(-2, 7)))),
    "F3_w": _Record(_F3, _f3_special_grid(_RESTRICTED_FAMILIES), family=_RESTRICTED),
    "F3_G": _Record(_F3, _f3_special_grid(_GIBONACCI_FAMILIES), family=_GIBONACCI),
    "F4_G": _Record(_F4, _f3_special_grid(_GIBONACCI_FAMILIES), family=_GIBONACCI),
    "F5_G": _Record(_F5, SweepGrid(
        families=_GIBONACCI_FAMILIES, n_values=(1, 2), c_values=(-1, 1), r_values=(-1, 1, 2),
        s_values=(0, 2), d_values=(1, 2), a_offsets=tuple(range(-1, 7))),
        family=_GIBONACCI),
    "F6_G_even": _Record(_F6, _f6_grid(_GIBONACCI_FAMILIES, (2, 4)), family=_GIBONACCI,
                         parity=0),
    "F6_G_odd": _Record(_F6, _f6_grid(_GIBONACCI_FAMILIES, (1, 3)), family=_GIBONACCI,
                        parity=1),
    "F6_F_even": _Record(_F6, _f6_grid((), (2, 4)), fixed=FIBONACCI, parity=0),
    "F6_F_odd": _Record(_F6, _f6_grid((), (1, 3)), fixed=FIBONACCI, parity=1),
    "F6_L_even": _Record(_F6, _f6_grid((), (2, 4)), fixed=LUCAS, parity=0),
    "F6_L_odd": _Record(_F6, _f6_grid((), (1, 3)), fixed=LUCAS, parity=1),
    "F7_w": _Record(_F7, _f7_special_grid(_RESTRICTED_FAMILIES), family=_RESTRICTED),
    "F7_G": _Record(_F7, _f7_special_grid(_GIBONACCI_FAMILIES), family=_GIBONACCI),
    "F7_r1d0_w": _Record(_F7_R1D0, _f7_r1d0_grid(_RESTRICTED_FAMILIES), family=_RESTRICTED),
    "F7_r1d0_G": _Record(_F7_R1D0, _f7_r1d0_grid(_GIBONACCI_FAMILIES), family=_GIBONACCI),
}

# The tags, in the records' order, each a member named by the tag upper-cased
IdentityId = _Tag("IdentityId", [(tag.upper(), tag) for tag in _RECORDS], module=__name__)
_REGISTRY: Dict[IdentityId, _Record] = {IdentityId(tag): record
                                        for tag, record in _RECORDS.items()}
