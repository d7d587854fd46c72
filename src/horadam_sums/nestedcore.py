"""Nested-sum evaluation: exact oracles and the geometric closed forms.

A nested sum of depth ``n`` over a summand ``t`` is

    sum_{k[n-1] = c[n-1]}^{A} sum_{k[n-2] = c[n-2]}^{k[n-1]} ...
        sum_{k[0] = c[0]}^{k[1]} t(k[0])

where each index runs from its own lower limit up to the next outer index and
the outermost runs up to ``A``. Sums whose upper limit falls below the lower
limit are empty and contribute zero.

Two independent evaluators are provided. :func:`oracle_nested` evaluates
the summand once per index of the innermost range, at an int weight in place
of the rational weight power, and weights each value by the number of index
chains that reach it; those counts are small-int suffix sums, one pass per
level, and one Horner pass over Python ints folds the weighted values in.
The scale back to the rational weight power joins those ints, so the
oracle ends in one normalised ``Fraction``. :func:`oracle_nested_naive`
literally enumerates every index tuple in plain ``Fraction`` arithmetic. Their
agreement guards against a shared bug, and both serve as ground truth for
the closed forms in this module and in :mod:`horadam_sums.identities`.
Here the geometric closed form is one loop, :func:`master_E`; the f-form
substitutes into it, and an alternating geometric sum is the f-form at -x.

All values are exact. Summands and both oracles are rational: a
:class:`SumTerm` takes an int or :class:`~fractions.Fraction` weight base,
so every value the oracles add is an int or a ``Fraction`` (an int only
where :func:`oracle_nested` passes an int weight and the value is
integral), and both oracles return a ``Fraction``. Only :func:`master_E` and
:func:`f_closed` also take :class:`~horadam_sums.exactnum.QuadExt`
arguments, for the root-power routes that run in Q(sqrt(D)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Optional, Tuple, Union

from .combinatorics import binom
from .exactnum import QuadExt
from .sequences import HoradamParams, HoradamSequence

Scalar = Union[Fraction, QuadExt]

DEFAULT_NAIVE_CAP = 500_000

_ONE = Fraction(1)


class PoleError(ValueError):
    """A closed form was evaluated at a parameter value where it divides by zero."""


class NaiveCapExceededError(RuntimeError):
    """A naive enumeration would exceed the configured summand budget."""


@dataclass
class EvalCounter:
    """Mutable tally of summand-scale evaluations (terms, binomials)."""

    count: int = 0

    def add(self, k: int = 1) -> None:
        self.count += k


@dataclass(frozen=True)
class SumTerm:
    """Innermost summand of a nested sum.

    The value at index ``k`` is the product of up to two factors: a
    sequence term ``seq[index_mul*k + index_add]`` and a geometric weight
    ``weight_base**k``. An omitted factor contributes 1. A sign ``(-1)**k``
    is a negative base: ``(-1)**k * b**k`` is ``(-b)**k``. The weight base
    is an int or a ``Fraction`` (an int becomes a ``Fraction``; any other
    type raises ``TypeError``) and must be nonzero so that negative indices
    stay well-defined. ``index_mul`` and ``index_add`` must be ints.

    Construction also resolves the sequence's :class:`HoradamSequence` once
    (``_sequence``) and decides once whether the weight is read at all
    (``_base``): a base equal to 1 is dropped. Neither attribute is a field,
    so equality, hashing and the repr are those of the fields alone.
    """

    seq: Optional[HoradamParams] = None
    index_mul: int = 1
    index_add: int = 0
    weight_base: Optional[Fraction] = None

    def __post_init__(self):
        if not (isinstance(self.index_mul, int) and isinstance(self.index_add, int)):
            raise TypeError("index_mul and index_add must be ints")
        base = self.weight_base
        if base is not None:
            if isinstance(base, int):
                base = Fraction(base)
                object.__setattr__(self, "weight_base", base)
            elif not isinstance(base, Fraction):
                raise TypeError(f"weight base must be an int or a Fraction, "
                                f"not {type(base).__name__}")
            if not base:
                raise ValueError("weight base must be nonzero")
            if base == 1:
                base = None
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_sequence",
                           None if self.seq is None else HoradamSequence.of(self.seq))

    def value(self, k: int,
              weight: Union[int, Fraction, None] = None) -> Union[int, Fraction]:
        """The summand at ``k``. ``weight`` stands in for ``weight_base**k``:
        the result is ``value(k) * weight / weight_base**k`` (the weight
        itself when there is no sequence), so a caller may pass any
        multiple of the power; :func:`oracle_nested` passes an int. A summand
        without a base, or with a base of 1, reads no weight.

        With an int weight read, the result is an int whenever it is integral
        and a ``Fraction`` otherwise, so an integral sequence term costs one
        int product and no normalised ``Fraction``. Every other call returns
        a ``Fraction``."""
        base = self._base
        if base is not None and weight is None:
            weight = base ** k
        sequence = self._sequence
        if sequence is None:
            result = _ONE if base is None else weight
        else:
            result = sequence.term(self.index_mul * k + self.index_add)
            if base is not None:
                if result.denominator == 1:
                    result = result.numerator * weight
                else:
                    result = result * weight
                    if type(weight) is int and result.denominator == 1:
                        result = result.numerator
        return result


ONES = SumTerm()


def geometric_term(base: Fraction) -> SumTerm:
    """Summand ``base**k``; an alternating one has a negative base."""
    return SumTerm(weight_base=base)


@dataclass(frozen=True)
class NestedSumSpec:
    """Shape of a nested sum: depth, outer upper limit, per-level lower limits, summand.

    ``lower_limits`` may be a single int (shared by every level) or one value
    per level ordered innermost first.
    """

    depth: int
    upper: int
    lower_limits: Tuple[int, ...] = field()
    term: SumTerm = ONES

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        limits = self.lower_limits
        if isinstance(limits, int):
            limits = (limits,) * self.depth
        else:
            limits = tuple(limits)
        if len(limits) != self.depth:
            raise ValueError(f"need {self.depth} lower limits, got {len(limits)}")
        object.__setattr__(self, "lower_limits", limits)


def _chain_counts(limits: Tuple[int, ...], upper: int) -> list:
    """Multiplicity of each level-0 index ``k`` in ``limits[0] .. upper``.

    The nested total is sum_k m_k * t(k), where m_k counts the index chains
    k = a_0 <= a_1 <= ... <= a_{n-1} <= upper with each a_i >= limits[i].
    From the outermost level inwards, level i's counts are the suffix sums
    of level i + 1's, zeroed below level i + 1's own lower limit. The counts
    are ints far shorter than the summand values they weight.
    """
    lo = limits[0]
    size = upper - lo + 1
    counts = [1] * size
    for start in reversed(limits[1:]):
        if start > lo:
            counts[:start - lo] = [0] * min(start - lo, size)
        counts = list(accumulate(reversed(counts)))
        counts.reverse()
    return counts


def oracle_nested(spec: NestedSumSpec, counter: Optional[EvalCounter] = None) -> Fraction:
    """Exact nested-sum value as one weighted sum of the level-0 summands.

    Each index ``k`` from the innermost lower limit ``lo`` to the outer upper
    limit is evaluated once. With the weight base written ``u/v`` (``v > 0``),
    ``value(k, u**(k - lo))`` is ``t(k) * v**(k - lo) / base**lo``, an int
    weight in place of a rational power, and an int whenever it is integral.
    The nested total is sum_k m_k * t(k), with the chain counts m_k of
    :func:`_chain_counts`; one Horner pass over Python ints folds the values
    in (an int value has denominator 1) on a common denominator that grows
    only with the sequence terms' own. ``base**lo`` is folded in as ints,
    ``u**lo`` into the numerator and ``v**lo`` into that denominator times
    the power of ``v`` (the two swapped, and negative when ``u`` is and the
    power odd, for lo < 0), so the result is one normalised ``Fraction`` of
    two ints and ``SumTerm.value`` runs exactly once per index. ``counter``
    tallies one unit per addition of a value into a level, as a plain loop
    over the levels would: depth times range, not the multinomial blow-up of
    direct enumeration.
    """
    summand = spec.term
    limits = spec.lower_limits
    hi = spec.upper
    if hi < limits[-1]:
        return Fraction(0)
    lo = limits[0]
    base = summand._base
    if base is None:
        weight, v, scale_num, scale_den = None, 1, 1, 1
    else:
        weight, u, v = 1, base.numerator, base.denominator
        scale_num, scale_den = (u ** lo, v ** lo) if lo >= 0 else (v ** -lo, u ** -lo)
    num, den = 0, 1
    made = 0
    # a summand that raises leaves the count of the values made before it,
    # which verify reports with the error
    try:
        for k, m in enumerate(_chain_counts(limits, hi), lo):
            term = summand.value(k, weight)
            made += 1
            d = term.denominator
            if d == den:
                num += m * term.numerator
            else:
                common = lcm(den, d)
                num = num * (common // den) + m * term.numerator * (common // d)
                den = common
            # sum_k m_k * value_k * v**(hi + 1 - k), one power of v per step
            if weight is not None:
                num *= v
                weight *= u
    finally:
        if counter is not None:
            counter.add(made)
    if counter is not None:
        counter.add(sum(max(0, hi - start + 1) for start in limits[1:]))
    return Fraction(num * scale_num, den * v ** made * scale_den)


def oracle_nested_naive(spec: NestedSumSpec, cap: Optional[int] = DEFAULT_NAIVE_CAP,
                        counter: Optional[EvalCounter] = None) -> Fraction:
    """Literal recursive enumeration of every index tuple.

    Costs one summand evaluation per tuple, which grows like
    C(range + depth, depth); instances whose tuple count exceeds ``cap``
    are rejected rather than run.
    """
    if cap is not None:
        expected = oracle_nested(NestedSumSpec(spec.depth, spec.upper, spec.lower_limits, ONES))
        if expected > cap:
            raise NaiveCapExceededError(
                f"{expected} summand evaluations exceed the naive cap {cap}")
    summand = spec.term
    limits = spec.lower_limits

    def descend(level: int, upper: int) -> Fraction:
        total = Fraction(0)
        if level == 0:
            for k in range(limits[0], upper + 1):
                total = total + summand.value(k)
                if counter is not None:
                    counter.add()
        else:
            for k in range(limits[level], upper + 1):
                total = total + descend(level - 1, k)
        return total

    return descend(spec.depth - 1, spec.upper)


def master_E(x: Scalar, n: int, a_n: int, c: int,
             counter: Optional[EvalCounter] = None) -> Scalar:
    """Closed form for the scaled nested geometric sum with uniform lower limit.

    Returns ``x**a_n - x**(c-1) * sum_{j=0}^{n-1} ((x-1)/x)**j * C(a_n+j-c, j)``,
    which equals ``((x-1)/x)**n`` times the depth-``n`` nested sum of ``x**k``
    with every lower limit ``c`` and outer upper limit ``a_n``. This is the
    module's one geometric closed-form loop: :func:`f_closed` is a
    substitution into it, and ``counter`` tallies one unit per binomial term.
    """
    if x == 0 or x == 1:
        raise PoleError(f"x = {x} is a pole of the master closed form")
    if n < 1:
        raise ValueError("n must be >= 1")
    ratio = (x - 1) / x
    power = x ** 0
    total = x * 0
    for j in range(n):
        total = total + power * binom(a_n + j - c, j)
        if counter is not None:
            counter.add()
        power = power * ratio
    return x ** a_n - x ** (c - 1) * total


def f_closed(x: Scalar, y: Scalar, n: int, a_n: int, c: int,
             counter: Optional[EvalCounter] = None) -> Scalar:
    """Closed form for the depth-``n`` nested sum of ``(x/y)**k`` (lower limit c).

    The master form at ``w = x/y``, unscaled: ``w/(w-1) = x/(x-y)``, so the
    sum is ``(x/(x-y))**n * master_E(x/y, n, a_n, c)``. Requires x, y nonzero
    and x != y (the pole of this form).
    """
    if x == 0 or y == 0:
        raise PoleError("x and y must be nonzero")
    if x == y:
        raise PoleError("x = y is a pole of the f-form")
    return (x / (x - y)) ** n * master_E(x / y, n, a_n, c, counter)
