"""Independent reference evaluators used as test oracles.

These deliberately avoid the package's own summation code paths: nested sums
are literal Python loops, binomials go through math.factorial, and sequence
values are generated by a fresh recurrence. The F6 root-power route shares no
code with the identity evaluators: it runs the geometric closed form over
Q(sqrt(D)). Agreement between these and the library is the point of the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from horadam_sums.exactnum import QuadExt
from horadam_sums.nestedcore import f_closed, g_closed
from horadam_sums.sequences import second_kind_term


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


def f3_binet_route(inst, view):
    """The F3 nested sum of W[rk+s]/V_r**k through root powers.

    W[rk+s] = coef_a*tau**s*(tau**r)**k + coef_b*sigma**s*(sigma**r)**k splits
    the sum into two geometric ones, each evaluated by the f-form with
    x = root**r and y = V_r. ``view`` is the sequence's BinetView.
    """
    vr = view.tau ** 0 * second_kind_term(inst.params.p, inst.params.q, inst.r)
    n, a_n, c, r, s = inst.n, inst.a_n, inst.c, inst.r, inst.s
    return (view.coef_a * view.tau ** s * f_closed(view.tau ** r, vr, n, a_n, c)
            + view.coef_b * view.sigma ** s * f_closed(view.sigma ** r, vr, n, a_n, c))


def f4_binet_route(inst, view):
    """The F4 nested sum through root powers: each root's geometric part is
    evaluated by the g-form with x = root**r and y = (other root)**r."""
    n, a_n, c, s = inst.n, inst.a_n, inst.c, inst.s
    tau_r, sigma_r = view.tau ** inst.r, view.sigma ** inst.r
    return (view.coef_a * view.tau ** s * g_closed(tau_r, sigma_r, n, a_n, c)
            + view.coef_b * view.sigma ** s * g_closed(sigma_r, tau_r, n, a_n, c))


def f6_binet_route(inst, view):
    """The F6 nested sum of (V_d/V_{r+d})**k W[rk+s] through root powers.

    W[rk+s] = coef_a*tau**s*(tau**r)**k + coef_b*sigma**s*(sigma**r)**k splits
    the sum into two geometric ones, each evaluated by the f-form with
    x = root**r * V_d and y = V_{r+d}. ``view`` is the sequence's
    BinetView; the result lives in Q(sqrt(D)), its surd part free to be nonzero.
    """
    p, q, n, a_n, c, r, s, d = (inst.params.p, inst.params.q, inst.n, inst.a_n,
                                inst.c, inst.r, inst.s, inst.d)
    vd = QuadExt.from_rational(second_kind_term(p, q, d), view.disc)
    vrd = QuadExt.from_rational(second_kind_term(p, q, r + d), view.disc)
    return (view.coef_a * view.tau ** s
            * f_closed(view.tau ** r * vd, vrd, n, a_n, c)
            + view.coef_b * view.sigma ** s
            * f_closed(view.sigma ** r * vd, vrd, n, a_n, c))
