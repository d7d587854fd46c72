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
chains that reach it, which :func:`_chain_counts` makes with ``math.comb``
where the limits allow and by suffix sums otherwise. Horner's rule over
Python ints folds the weighted values in, an int value by one multiply-add,
by blocks of consecutive indices, so an index's weight is a power of the
base's numerator bounded by the block, not by the range, and one product
per block shifts its part into the total. The scale back to the rational
weight power joins those ints, so the oracle ends in one normalised
``Fraction``. A summand reads its sequence through a
:class:`~horadam_sums.sequences.Stride`, which keeps the window's layout to
itself and steps far terms by their own recurrence.
:func:`oracle_nested_naive` literally enumerates every index tuple in plain
``Fraction`` arithmetic, sized against its cap by the chain counts alone,
with no call into :func:`oracle_nested`. Their agreement guards against a
shared bug, and both serve as ground truth for the closed forms in this
module and in :mod:`horadam_sums.identities`.
Here the geometric closed form is one loop, :func:`master_E`; the f-form
substitutes into it, and an alternating geometric sum is the f-form at -x.

All values are exact. Summands and both oracles are rational: a
:class:`SumTerm` takes an int or :class:`~fractions.Fraction` weight base,
so every value the oracles add is an int or a ``Fraction`` (an int only
where :func:`oracle_nested` passes an int weight, as it always does, and
the value is integral), and both oracles return a ``Fraction``. Only
:func:`master_E` and :func:`f_closed` also take
:class:`~horadam_sums.exactnum.QuadExt` arguments, for the root-power
routes that run in Q(sqrt(D)).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, lcm
from typing import Optional, Tuple, Union

from .combinatorics import binom
from .exactnum import QuadExt
from .sequences import HoradamParams, HoradamSequence, Stride

Scalar = Union[Fraction, QuadExt]

DEFAULT_NAIVE_CAP = 500_000

_ONE = Fraction(1)

# indices per block of oracle_nested's weighted fold: an index's int weight
# is a product of fewer than this many factors of the base's numerator
_BLOCK = 32


class PoleError(ValueError):
    """A closed form was evaluated at a parameter value where it divides by zero."""


class NaiveCapExceededError(RuntimeError):
    """A naive enumeration would exceed the configured summand budget."""


def _check_int(name: str, value) -> None:
    # a bool is an int to isinstance, but never an index, a limit or a count
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


@dataclass
class EvalCounter:
    """Mutable tally of summand-scale evaluations (terms, binomials), added to ``count``."""

    count: int = 0


@dataclass(frozen=True)
class SumTerm:
    """Innermost summand of a nested sum.

    The value at index ``k`` is the product of up to two factors: a
    sequence term ``seq[index_mul*k + index_add]`` and a geometric weight
    ``weight_base**k``. An omitted factor contributes 1. A sign ``(-1)**k``
    is a negative base: ``(-1)**k * b**k`` is ``(-b)**k``. The weight base
    is an int or a ``Fraction`` (an int becomes a ``Fraction``; any other
    type, a bool included, raises ``TypeError``) and must be nonzero so that negative indices
    stay well-defined. ``index_mul`` and ``index_add`` must be ints, not
    bools; any other type raises ``TypeError`` naming the field.

    Construction also makes the reader of the sequence's line once, the
    ``read`` of a :class:`~horadam_sums.sequences.Stride` of the shared
    :class:`HoradamSequence` in steps of ``index_mul`` (``_read``), and
    decides once whether the weight is read at all (``_base``): a base equal
    to 1 is dropped. Neither attribute is a field, so equality, hashing and
    the repr are those of the fields alone.
    """

    seq: Optional[HoradamParams] = None
    index_mul: int = 1
    index_add: int = 0
    weight_base: Optional[Fraction] = None

    def __post_init__(self):
        _check_int("index_mul", self.index_mul)
        _check_int("index_add", self.index_add)
        base = self.weight_base
        if base is not None:
            if isinstance(base, int) and type(base) is not bool:
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
        object.__setattr__(self, "_read", None if self.seq is None
                           else Stride(HoradamSequence.of(self.seq), self.index_mul).read)

    def value(self, k: int,
              weight: Union[int, Fraction, None] = None) -> Union[int, Fraction]:
        """The summand at ``k``. ``weight`` stands in for ``weight_base**k``:
        the result is ``value(k) * weight / weight_base**k`` (the weight
        itself when there is no sequence), so a caller may pass any
        multiple of the power, as :func:`oracle_nested` does. A summand
        without a base, or with a base of 1, reads only whether the weight
        is an int.

        With an int weight, the result is an int whenever it is integral
        and a ``Fraction`` otherwise: the sequence term is read as the
        window holds it, through the summand's
        :class:`~horadam_sums.sequences.Stride`, so an integral term costs
        one int product, none without a base, and no ``Fraction`` at all.
        Every other call returns a ``Fraction``."""
        base = self._base
        read = self._read
        if type(weight) is int:
            if read is None:
                return 1 if base is None else weight
            result = read(self.index_mul * k + self.index_add)
            if base is None:
                return result
            result = result * weight
            # an int term gives an int product; a Fraction one may be integral
            return result if type(result) is int or result.denominator != 1 \
                else result.numerator
        if base is not None and weight is None:
            weight = base ** k
        if read is None:
            return _ONE if base is None else weight
        result = read(self.index_mul * k + self.index_add)
        # the weight is a Fraction here, so the product is one
        return Fraction(result) if base is None else result * weight


ONES = SumTerm()


def geometric_term(base: Fraction) -> SumTerm:
    """Summand ``base**k``; an alternating one has a negative base."""
    return SumTerm(weight_base=base)


@dataclass(frozen=True)
class NestedSumSpec:
    """Shape of a nested sum: depth, outer upper limit, per-level lower limits, summand.

    ``lower_limits`` may be a single int (shared by every level) or one value
    per level ordered innermost first. The depth, the upper limit and every
    lower limit must be ints; any other type, a bool included, raises
    ``TypeError`` naming the field.
    """

    depth: int
    upper: int
    lower_limits: Tuple[int, ...] = field()
    term: SumTerm = ONES

    def __post_init__(self):
        _check_int("depth", self.depth)
        _check_int("upper", self.upper)
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        limits = self.lower_limits
        limits = tuple(limits) if isinstance(limits, Iterable) else (limits,) * self.depth
        if len(limits) != self.depth:
            raise ValueError(f"need {self.depth} lower limits, got {len(limits)}")
        for limit in limits:
            _check_int("lower_limits", limit)
        object.__setattr__(self, "lower_limits", limits)


def _chain_counts(limits: Tuple[int, ...], upper: int) -> list:
    """Multiplicity of each level-0 index ``k`` in ``limits[0] .. upper``.

    The nested total is sum_k m_k * t(k), where m_k counts the index chains
    k = a_0 <= a_1 <= ... <= a_{n-1} <= upper with each a_i >= limits[i].
    When no outer lower limit exceeds ``limits[0]``, every a_i >= k is above
    its own limit, so m_k counts the multisets of n - 1 indices in
    k .. upper, C(upper - k + n - 1, n - 1), made by ``math.comb`` and not
    by the binomial the closed forms use. Crossing limits, and depths 1 and
    2, where they cost less, take :func:`_suffix_counts`.
    """
    depth = len(limits)
    if depth > 2 and max(limits) == limits[0]:
        size = upper - limits[0] + 1
        return list(map(comb, range(size + depth - 2, depth - 2, -1), repeat(depth - 1)))
    return _suffix_counts(limits, upper)


def _suffix_counts(limits: Tuple[int, ...], upper: int) -> list:
    """The chain counts of :func:`_chain_counts`, one pass per level: from
    the outermost level inwards, level i's counts are the suffix sums of
    level i + 1's, zeroed below level i + 1's own lower limit. The counts
    are kept from ``upper`` down to ``limits[0]``, so every level's suffix
    sums are one running sum in list order and its zeroed indices are the
    list's tail, and the list is reversed once at the end. The counts are
    ints far shorter than the summand values they weight.
    """
    lo = limits[0]
    size = upper - lo + 1
    counts = [1] * size  # counts[i] belongs to k = upper - i
    for start in reversed(limits[1:]):
        # for start <= lo, kept >= size and the zeroed tail is empty
        kept = max(upper - start + 1, 0)
        counts[kept:] = [0] * (size - kept)
        counts = list(accumulate(counts))
    counts.reverse()
    return counts


def oracle_nested(spec: NestedSumSpec, counter: Optional[EvalCounter] = None) -> Fraction:
    """Exact nested-sum value as one weighted sum of the level-0 summands.

    Each index ``k`` from the innermost lower limit ``lo`` to the outer upper
    limit is evaluated once, in order, by ``SumTerm.value`` at an int weight.
    The nested total is sum_k m_k * t(k), with the chain counts m_k of
    :func:`_chain_counts`, folded in over Python ints on a common
    denominator that grows only with the values' own: an int value joins
    the total as ``m_k * den * t(k)``, one multiply-add, and only a
    ``Fraction`` takes the lcm path. A summand without a weight base is read
    at the int weight 1, which it multiplies by nothing, and summed as it
    comes, so an integral term arrives as the int its window holds and
    neither loop builds or unwraps a ``Fraction`` for it.

    With the weight base written ``u/v`` (``v > 0``), the range is folded by
    blocks of ``_BLOCK`` indices, by Horner's rule in ``v``. Inside the
    block that starts at ``s``, ``value(k, u**(k - s))`` is
    ``t(k) * v**(k - s) / base**s``: an int weight of fewer than ``_BLOCK``
    factors of ``u`` in place of a rational power, and an int whenever it
    is integral. A block's part is folded forward in ``v`` and joins the
    total as ``total * v**size + u**(s - lo) * part``, so the one product
    that grows with the range is made once per block, not once per index,
    and no list of the values is held. ``base**lo`` is folded in as ints,
    ``u**lo`` into the numerator and ``v**lo`` into the denominator times
    the power of ``v`` (the two swapped, and negative when ``u`` is and the
    power odd, for lo < 0), so the result is one normalised ``Fraction`` of
    two ints.

    ``counter`` tallies one unit per addition of a value into a level, as a
    plain loop over the levels would: depth times range, not the
    multinomial blow-up of direct enumeration. The values made are read off
    the index reached, not counted one by one, so a summand that raises
    leaves the count of the values made before it, which verify reports
    with the error.
    """
    if counter is None:
        counter = EvalCounter()
    summand = spec.term
    limits = spec.lower_limits
    hi = spec.upper
    if hi < limits[-1]:
        return Fraction(0)
    lo = limits[0]
    counts = _chain_counts(limits, hi)
    base = summand._base
    u, v = (1, 1) if base is None else base.as_integer_ratio()
    value = summand.value
    num, den = 0, 1
    k = lo
    try:
        if base is None:
            for k, m in enumerate(counts, lo):
                t = value(k, 1)
                if type(t) is int:
                    num += m * den * t
                else:
                    n, d = t.as_integer_ratio()
                    common = lcm(den, d)
                    num = num * (common // den) + m * n * (common // d)
                    den = common
        else:
            power = 1  # u**(s - lo) at the block that starts at index s
            for first in range(0, len(counts), _BLOCK):
                block = counts[first:first + _BLOCK]
                part, weight = 0, 1
                for k, m in enumerate(block, lo + first):
                    t = value(k, weight)
                    if type(t) is int:
                        part += m * den * t
                    else:
                        # the total and the part share one denominator
                        n, d = t.as_integer_ratio()
                        common = lcm(den, d)
                        num *= common // den
                        part = part * (common // den) + m * n * (common // d)
                        den = common
                    part *= v
                    weight *= u
                num = num * v ** len(block) + power * part
                power *= weight  # u**len(block) by now
    except BaseException:
        # the values made before the index reached; verify reports them with
        # the summand's error
        counter.count += k - lo
        raise
    # one unit per value added into a level, the values made included
    added = 0
    for start in limits:
        if start <= hi:
            added += hi + 1 - start
    counter.count += added
    scale_num, scale_den = (u ** lo, v ** lo) if lo >= 0 else (v ** -lo, u ** -lo)
    return Fraction(num * scale_num, den * v ** len(counts) * scale_den)


def oracle_nested_naive(spec: NestedSumSpec, cap: Optional[int] = DEFAULT_NAIVE_CAP,
                        counter: Optional[EvalCounter] = None) -> Fraction:
    """Literal recursive enumeration of every index tuple.

    Costs one summand evaluation per tuple, which grows like
    C(range + depth, depth); instances whose tuple count exceeds ``cap``
    are rejected rather than run. The tuple count is the sum of
    :func:`_chain_counts`, taken before any summand call and never by
    :func:`oracle_nested`. The values never read it, and the mutation gate
    judges the kernel against the uncapped enumeration, so no kernel mutant
    reaches the reference's values. When no lower limit passes the upper
    one, every index of the innermost range heads at least one tuple, so a
    range longer than ``cap`` is refused on that lower bound before any
    count is made: the refusal costs the same at any range.
    """
    if counter is None:
        counter = EvalCounter()
    limits = spec.lower_limits
    if cap is not None:
        reached = max(limits) <= spec.upper
        least = spec.upper - limits[0] + 1
        if reached and least > cap:
            raise NaiveCapExceededError(
                f"at least {least} summand evaluations exceed the naive cap {cap}")
        # a lower limit past the upper one leaves no tuple at all
        expected = sum(_chain_counts(limits, spec.upper)) if reached else 0
        if expected > cap:
            raise NaiveCapExceededError(
                f"{expected} summand evaluations exceed the naive cap {cap}")
    summand = spec.term

    def descend(level: int, upper: int) -> Fraction:
        total = Fraction(0)
        if level == 0:
            for k in range(limits[0], upper + 1):
                total = total + summand.value(k)
                counter.count += 1
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
    if counter is None:
        counter = EvalCounter()
    if x == 0 or x == 1:
        raise PoleError(f"x = {x} is a pole of the master closed form")
    if n < 1:
        raise ValueError("n must be >= 1")
    ratio = (x - 1) / x
    power = 1
    total = 0
    for j in range(n):
        total = total + power * binom(a_n + j - c, j)
        counter.count += 1
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
