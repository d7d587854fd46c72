"""Second-order linear recurrence sequences with exact rational terms.

The central object is the four-parameter family with seeds ``W[0] = a``,
``W[1] = b`` and recurrence ``W[j] = p*W[j-1] - q*W[j-2]`` (both ``p`` and
``q`` nonzero). The classic named sequences are aliases that normalise onto
the same parameter quadruple:

* first-kind Lucas sequence:   seeds (0, 1)
* second-kind Lucas sequence:  seeds (2, p)
* restricted family:           p = 1, any seeds
* gibonacci family:            p = 1, q = -1, any seeds
* Fibonacci / Lucas numbers:   gibonacci seeds (0, 1) and (2, 1)

Because the aliases normalise, all views of one underlying sequence share a
single memoised term cache. Indices may be negative; terms are then produced
by running the recurrence backwards, ``W[j] = (p*W[j+1] - W[j+2]) / q``.

:class:`BinetView` exposes the closed form ``W[j] = A*tau**j + B*sigma**j``
over Q(sqrt(D)) with D = p**2 - 4*q, where tau and sigma are the roots of
``x**2 - p*x + q``. The view is valid for any nonzero D, including negative
and perfect-square discriminants; D = 0 (a repeated root) is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .exactnum import DegenerateDiscriminantError, QuadExt, RationalLike


@dataclass(frozen=True)
class HoradamParams:
    """Seeds ``a = W[0]``, ``b = W[1]`` and recurrence coefficients ``p``, ``q``."""

    a: Fraction
    b: Fraction
    p: Fraction
    q: Fraction

    def __post_init__(self):
        for name in ("a", "b", "p", "q"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.p == 0:
            raise ValueError("recurrence coefficient p must be nonzero")
        if self.q == 0:
            raise ValueError("recurrence coefficient q must be nonzero")

    @property
    def discriminant(self) -> Fraction:
        return self.p * self.p - 4 * self.q


def horadam(a: RationalLike, b: RationalLike, p: RationalLike, q: RationalLike) -> HoradamParams:
    return HoradamParams(Fraction(a), Fraction(b), Fraction(p), Fraction(q))


def lucas_first_kind(p: RationalLike, q: RationalLike) -> HoradamParams:
    """The sequence with seeds (0, 1); its terms are written U below."""
    return horadam(0, 1, p, q)


def lucas_second_kind(p: RationalLike, q: RationalLike) -> HoradamParams:
    """The sequence with seeds (2, p); its terms are written V below."""
    return horadam(2, p, p, q)


def restricted(a: RationalLike, b: RationalLike, q: RationalLike) -> HoradamParams:
    """The p = 1 family."""
    return horadam(a, b, 1, q)


def gibonacci(a: RationalLike, b: RationalLike) -> HoradamParams:
    """The p = 1, q = -1 family (Fibonacci recurrence, arbitrary seeds)."""
    return horadam(a, b, 1, -1)


FIBONACCI = gibonacci(0, 1)
LUCAS = gibonacci(2, 1)


class HoradamSequence:
    """Memoised term evaluation at any integer index.

    Instances are shared per parameter quadruple (see :meth:`of`), so aliases
    of the same underlying sequence hit one cache. The cache only ever grows
    and lookups are plain dict operations, so concurrent readers are safe;
    callers observe a pure function of the index.
    """

    _shared: Dict[HoradamParams, "HoradamSequence"] = {}

    @classmethod
    def of(cls, params: HoradamParams) -> HoradamSequence:
        seq = cls._shared.get(params)
        if seq is None:
            seq = cls._shared.setdefault(params, cls(params))
        return seq

    def __init__(self, params: HoradamParams):
        self.params = params
        self._memo: Dict[int, Fraction] = {0: params.a, 1: params.b}
        self._lo = 0
        self._hi = 1

    def term(self, j: int) -> Fraction:
        memo = self._memo
        value = memo.get(j)
        if value is not None:
            return value
        p, q = self.params.p, self.params.q
        while self._hi < j:
            k = self._hi + 1
            memo[k] = p * memo[k - 1] - q * memo[k - 2]
            self._hi = k
        while self._lo > j:
            k = self._lo - 1
            memo[k] = (p * memo[k + 1] - memo[k + 2]) / q
            self._lo = k
        return memo[j]

    __getitem__ = term

    def __repr__(self) -> str:
        pr = self.params
        return f"HoradamSequence(a={pr.a}, b={pr.b}, p={pr.p}, q={pr.q})"


def term(params: HoradamParams, j: int) -> Fraction:
    """Exact term at index ``j`` (negative indices allowed)."""
    return HoradamSequence.of(params).term(j)


@lru_cache(maxsize=None)
def _companions(p: RationalLike, q: RationalLike) -> Tuple[HoradamSequence, HoradamSequence]:
    """The shared U and V sequences of (p, q), looked up once per pair."""
    return (HoradamSequence.of(lucas_first_kind(p, q)),
            HoradamSequence.of(lucas_second_kind(p, q)))


def first_kind_term(p: RationalLike, q: RationalLike, j: int) -> Fraction:
    """U[j] for the given recurrence coefficients."""
    return _companions(p, q)[0].term(j)


def second_kind_term(p: RationalLike, q: RationalLike, j: int) -> Fraction:
    """V[j] for the given recurrence coefficients."""
    return _companions(p, q)[1].term(j)


class BinetView:
    """Root-power closed form of a sequence, over Q(sqrt(D)).

    Exposes ``tau``, ``sigma`` (the characteristic roots), ``delta`` (their
    difference, the formal sqrt(D)) and the coefficients ``coef_a``/``coef_b``
    such that ``term(j) == coef_a*tau**j + coef_b*sigma**j`` with zero surd
    part, for every integer ``j``.
    """

    def __init__(self, params: HoradamParams):
        disc = params.discriminant
        if disc == 0:
            raise DegenerateDiscriminantError(
                f"p^2 - 4q = 0 for p={params.p}, q={params.q}: repeated root, no such view")
        self.params = params
        self.disc = disc
        half = Fraction(1, 2)
        self.tau = QuadExt(params.p * half, half, disc)
        self.sigma = QuadExt(params.p * half, -half, disc)
        self.delta = QuadExt.sqrt(disc)
        a = QuadExt.from_rational(params.a, disc)
        b = QuadExt.from_rational(params.b, disc)
        self.coef_a = (b - a * self.sigma) / self.delta
        self.coef_b = (a * self.tau - b) / self.delta

    def term(self, j: int) -> QuadExt:
        return self.coef_a * self.tau ** j + self.coef_b * self.sigma ** j

    def first_kind_term(self, j: int) -> QuadExt:
        """(tau**j - sigma**j) / delta, the root-power form of U[j]."""
        return (self.tau ** j - self.sigma ** j) / self.delta

    def second_kind_term(self, j: int) -> QuadExt:
        """tau**j + sigma**j, the root-power form of V[j]."""
        return self.tau ** j + self.sigma ** j


ROOT_SHIFT_IDENTITIES = ("L1", "L2", "L3", "L4")


def lemma3_residual(p: RationalLike, q: RationalLike, r: int, d: int, which: str) -> QuadExt:
    """LHS minus RHS of one of the four root-shift identities, in Q(sqrt(D)).

    The identities relate index-shifted U/V terms to root powers:

    * L1:  U[r+d] - tau**r * U[d]  ==  sigma**d * U[r]
    * L2:  U[r+d] - sigma**r * U[d]  ==  tau**d * U[r]
    * L3:  V[r+d] - tau**r * V[d]  ==  -sigma**d * U[r] * delta
    * L4:  V[r+d] - sigma**r * V[d]  ==  tau**d * U[r] * delta

    The U/V values are computed by recurrence and lifted into the extension,
    so a zero residual cross-checks the recurrence against the root powers.
    """
    view = BinetView(lucas_first_kind(p, q))
    disc = view.disc
    tau, sigma, delta = view.tau, view.sigma, view.delta

    def u(j: int) -> QuadExt:
        return QuadExt.from_rational(first_kind_term(p, q, j), disc)

    def v(j: int) -> QuadExt:
        return QuadExt.from_rational(second_kind_term(p, q, j), disc)

    if which == "L1":
        return u(r + d) - tau ** r * u(d) - sigma ** d * u(r)
    if which == "L2":
        return u(r + d) - sigma ** r * u(d) - tau ** d * u(r)
    if which == "L3":
        return v(r + d) - tau ** r * v(d) + sigma ** d * u(r) * delta
    if which == "L4":
        return v(r + d) - sigma ** r * v(d) - tau ** d * u(r) * delta
    raise ValueError(f"unknown identity {which!r}; expected one of {ROOT_SHIFT_IDENTITIES}")


def lemma4_residual(params: HoradamParams, j: int) -> QuadExt:
    """Residual of the odd Binet combination for p = 1 sequences.

    Checks ``coef_a*tau**j - coef_b*sigma**j == (w[j+1] - q*w[j-1]) / delta``
    where w is the sequence itself. Only defined for p = 1.
    """
    if params.p != 1:
        raise ValueError("identity requires the restricted family (p = 1)")
    view = BinetView(params)
    seq = HoradamSequence.of(params)
    lhs = view.coef_a * view.tau ** j - view.coef_b * view.sigma ** j
    numerator = seq.term(j + 1) - params.q * seq.term(j - 1)
    rhs = QuadExt.from_rational(numerator, view.disc) / view.delta
    return lhs - rhs
