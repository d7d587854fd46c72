"""Independent reference evaluators used as test oracles.

These deliberately avoid the package's own summation code paths: nested sums
are literal Python loops, binomials go through math.factorial, and sequence
values are generated by a fresh recurrence. The root-power route
``binet_route`` shares no code with the identity evaluators: it sums the
root powers of any nested sum that ``identities.lhs_spec`` builds in the
ring Q[delta]/(delta**2 - D) of ``BinetView``, at every D, by
``nestedcore.f_closed``, and reads W off the result by the view's linear
map. Agreement between these and the library is the point of the tests.
``doubled_term`` alone reads the package's own code, its index-doubling
ladder, so that tests can hold that ladder to these.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from horadam_sums.combinatorics import nested_ones
from horadam_sums.identities import IdentityId
from horadam_sums.nestedcore import f_closed
from horadam_sums.sequences import BinetView, HoradamSequence, horadam

# the ten tags of the paper's theorems, which acceptance criterion 3 sweeps
THEOREM_SUITE = (IdentityId.F1A, IdentityId.F1B, IdentityId.F2A, IdentityId.F2B,
                 IdentityId.F3, IdentityId.F4, IdentityId.F5, IdentityId.F6A,
                 IdentityId.F6B, IdentityId.F7)


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


def binet_route(spec):
    """The nested sum ``spec`` through root powers, for a uniform lower limit.

    The summand of ``spec.term`` is W[mk+s] * w**k, with an alternating sign
    in a negative base w, and W[j] is the linear map ``BinetView.project``
    of tau**j, so the sum is that map of tau**s * N(w*tau**m), where N(y) is
    the depth-n nested sum of y**k: ``f_closed(y, 1, ...)`` when y - 1 is
    invertible. Else z = y - 1 is 0 or a zero divisor, with z*z = t*z for
    t = 2*rat(z), so (1 + z)**k = 1 + z*((1 + t)**k - 1)/t, or 1 + k*z at
    t = 0. A summand with no sequence reads W = 1: (a, b, p, q) = (1, 1, 2, 1).
    """
    limits = set(spec.lower_limits)
    if len(limits) != 1:
        raise ValueError(f"the Binet route needs one lower limit, got {spec.lower_limits}")
    n, upper, (c,) = spec.depth, spec.upper, limits
    term = spec.term
    base = Fraction(1) if term.weight_base is None else term.weight_base
    view = BinetView(term.seq or horadam(1, 1, 2, 1))

    def nested(y):
        z = y - 1
        if z.norm():
            return f_closed(y, 1, n, upper, c)
        t, ones = 2 * z.rat_part, nested_ones(n, upper, c)
        # at t = 0, the nested sum of k: c*C(R + n, n) + C(R + n, n + 1), R = upper - c
        slope = (f_closed(1 + t, 1, n, upper, c) - ones) / t if t \
            else c * ones + nested_ones(n + 1, upper, c + 1)
        return ones + z * slope

    tau = view.tau
    return view.project(tau ** term.index_add * nested(base * tau ** term.index_mul))
