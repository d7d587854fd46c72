"""Generalized integer binomials and closed-form counts of nested unit sums."""

from __future__ import annotations


def binom(top: int, k: int) -> int:
    """C(top, k) by the falling factorial top*(top-1)*...*(top-k+1) / k!.

    Defined for any integer ``top`` and ``k >= 0``: zero when 0 <= top < k
    (the factor at i = top + 1 is 0), alternating-sign values when top is
    negative.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    result = 1
    for i in range(1, k + 1):
        # each prefix is itself a binomial coefficient, so // is exact
        result = result * (top - i + 1) // i
    return result


def binom_column_sum(k: int, m: int, c: int) -> int:
    """Closed form of sum_{j=c}^{m} C(j - c + k, k); empty ranges (m < c) give 0."""
    if m < c:
        return 0
    return binom(m - c + k + 1, k + 1)


def nested_ones(depth: int, upper: int, lower: int) -> int:
    """C(upper + depth - lower, depth), the depth-fold nested sum of the constant 1.

    All ``depth`` sums share the lower limit ``lower``; each runs up to the
    next outer index, the outermost up to ``upper``. The closed form matches
    the literal sum whenever ``upper >= lower - 1``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return binom(upper + depth - lower, depth)
