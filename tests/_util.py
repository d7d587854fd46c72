"""Independent reference evaluators used as test oracles.

These deliberately avoid the package's own summation code paths: nested sums
are literal Python loops, binomials go through math.factorial, and sequence
values are generated by a fresh recurrence. The root-power route
``binet_route`` shares no code with the identity evaluators: it splits any
nested sum that ``identities.lhs_spec`` builds into two nested geometric sums
and runs ``nestedcore.f_closed`` on each, over Q(sqrt(D)) or, when D is a
square, over Q. Agreement between these and the library is the point of the
tests. ``doubled_term`` alone reads the package's own code, its
index-doubling ladder, so that tests can hold that ladder to these.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, prod

from horadam_sums.combinatorics import nested_ones
from horadam_sums.exactnum import DegenerateDiscriminantError, QuadExt
from horadam_sums.nestedcore import f_closed
from horadam_sums.sequences import HoradamSequence


def literal_nested_sum(depth, upper, lower_limits, term_fn):
    """Plain recursive evaluation of the nested sum; ground truth for tests."""
    if isinstance(lower_limits, int):
        lower_limits = (lower_limits,) * depth

    def level(k, hi):
        total = Fraction(0)
        for i in range(lower_limits[k], hi + 1):
            total = total + (term_fn(i) if k == 0 else level(k - 1, i))
        return total

    return level(depth - 1, upper)


def karr_nested_sum(depth, upper, lower, term_fn):
    """The depth-fold nested sum with every lower limit ``lower``, read under
    Karr's convention for reversed limits at every level: a sum from a to b
    is the plain sum when b >= a - 1 (empty at b = a - 1), and
    -sum_{k=b+1}^{a-1} when b < a - 1 (Karr, "Summation in finite terms",
    J. ACM 28(2), 1981). Literal loops only."""

    def karr_sum(hi, fn):
        if hi >= lower - 1:
            return sum((fn(k) for k in range(lower, hi + 1)), Fraction(0))
        return -sum((fn(k) for k in range(hi + 1, lower)), Fraction(0))

    def level(k, hi):
        return karr_sum(hi, term_fn if k == 0 else (lambda i: level(k - 1, i)))

    return level(depth - 1, upper)


@lru_cache(maxsize=16)
def _walked(params):
    return walk_terms(params, -64, 64)


def summand_fn(term):
    """k -> W[m*k + s] * base**k read off a summand's fields, an alternating
    sign included in a negative base, with W from a plain recurrence walk
    (|m*k + s| <= 64) and none of the summand's own code."""
    base = Fraction(1) if term.weight_base is None else term.weight_base

    def value(k):
        w = 1 if term.seq is None else _walked(term.seq)[term.index_mul * k + term.index_add]
        return w * base ** k

    return value


def falling_binom(top: int, k: int) -> int:
    """C(top, k) straight from the falling-factorial definition."""
    assert k >= 0
    numerator = prod(top - i for i in range(k))
    result, remainder = divmod(numerator, factorial(k))
    assert remainder == 0
    return result


def fib_list(count: int) -> list:
    """First ``count`` Fibonacci numbers as Fractions, from the bare recurrence."""
    values = [Fraction(0), Fraction(1)]
    while len(values) < count:
        values.append(values[-1] + values[-2])
    return values[:count]


def walk_terms(params, lo: int, hi: int) -> dict:
    """W[j] for lo <= j <= hi (lo <= 0 < hi), one recurrence step at a time."""
    a, b, p, q = params.a, params.b, params.p, params.q
    values = {0: a, 1: b}
    for j in range(2, hi + 1):
        values[j] = p * values[j - 1] - q * values[j - 2]
    for j in range(-1, lo - 1, -1):
        values[j] = (p * values[j + 1] - values[j + 2]) / q
    return values


def doubled_term(params, j: int) -> Fraction:
    """W[j] off the index-doubling ladder of a fresh ``HoradamSequence``, as
    a ``Fraction``: no walk and no window."""
    return Fraction(*HoradamSequence(params)._far(j))


@lru_cache(maxsize=64)
def _binet_form(params):
    """((A, tau), (B, sigma)) with W[j] = A*tau**j + B*sigma**j for every j.

    The roots of x**2 - p*x + q are rational when D = p**2 - 4*q is a
    rational square, and the form is then kept in Q, since Q(sqrt(D)) has
    zero divisors there; otherwise it lives in Q(sqrt(D)).
    """
    disc = params.discriminant
    if disc == 0:
        raise DegenerateDiscriminantError(
            f"p^2 - 4q = 0 for p={params.p}, q={params.q}: repeated root, no Binet form")
    root = QuadExt.sqrt(disc)
    if disc > 0:
        num, den = isqrt(disc.numerator), isqrt(disc.denominator)
        if num * num == disc.numerator and den * den == disc.denominator:
            root = Fraction(num, den)
    tau, sigma = (params.p + root) / 2, (params.p - root) / 2
    return ((params.b - params.a * sigma) / root, tau), ((params.a * tau - params.b) / root, sigma)


def binet_route(spec):
    """The nested sum ``spec`` through root powers, for a uniform lower limit.

    The summand of ``spec.term`` is W[mk+s] * w**k, with an alternating sign
    in a negative base w, and W[j] = A*tau**j + B*sigma**j, so the sum splits
    into A*tau**s*N(w*tau**m) + B*sigma**s*N(w*sigma**m), where N(y) is the
    depth-n nested sum of y**k: ``f_closed(y, 1, ...)``, or ``nested_ones`` at
    y = 1. A summand with no sequence is N(w). The value is a Fraction
    when the roots are rational (or there are none) and a QuadExt otherwise;
    a QuadExt equals a Fraction only when its surd part is zero, so comparing
    it with the oracle also checks that part.
    """
    limits = set(spec.lower_limits)
    if len(limits) != 1:
        raise ValueError(f"the Binet route needs one lower limit, got {spec.lower_limits}")
    n, upper, (c,) = spec.depth, spec.upper, limits
    term = spec.term
    base = Fraction(1) if term.weight_base is None else term.weight_base

    def nested(y):
        return nested_ones(n, upper, c) if y == 1 else f_closed(y, 1, n, upper, c)

    if term.seq is None:
        return nested(base)
    m, s = term.index_mul, term.index_add
    return sum(coef * root ** s * nested(base * root ** m)
               for coef, root in _binet_form(term.seq))
