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

Because the aliases normalise, all views of one underlying sequence share
one :class:`HoradamSequence`. Its terms cost a bounded amount whatever the
index:

* A dense window of consecutive terms, at most ``WINDOW_CAP`` long, serves
  the small indices that sweeps and oracles read again and again. A miss
  within ``WALK_GAP`` of the window's edge extends it by running the
  recurrence forwards, or backwards by ``W[j] = (p*W[j+1] - W[j+2]) / q``,
  itself a second-order recurrence (coefficients p/q and 1/q). Either way
  it is one walk on ints scaled by a common denominator, which grows by a
  fixed int factor per step, and it makes one normalised ``Fraction`` per
  term it stores.
* Every other index is computed, not stored, by doubling the Lucas pair
  (U_j, V_j) of (p, q) in O(log |j|) integer products (Joye & Quisquater,
  "Efficient computation of full Lucas sequences", Electronics Letters
  32(6), 1996), from which ``W[j] = b*U_j - a*q*U_{j-1}`` is summed over
  ints into one ``Fraction``.
* At most ``SHARED_CAP`` sequences are kept, least recently used first out.
  The U/V companion parameters of at most ``COMPANIONS_CAP`` pairs (p, q)
  are kept too, keyed on the parameters' cached ints; their sequences come
  from the same registry.

:class:`BinetView` exposes the closed form ``W[j] = A*tau**j + B*sigma**j``
over Q(sqrt(D)) with D = p**2 - 4*q, where tau and sigma are the roots of
``x**2 - p*x + q``. The view is valid for any nonzero D, including negative
and perfect-square discriminants; D = 0 (a repeated root) is rejected.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
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
        # every term read looks its sequence up by these params, and
        # Fraction's own __hash__ and __eq__ run in Python, so both are cached
        values = (self.a, self.b, self.p, self.q)
        object.__setattr__(self, "_hash", hash(values))
        object.__setattr__(self, "_key", tuple((x.numerator, x.denominator) for x in values))
        # F6 reads D at every point; not a field, so equality, hash and repr ignore it
        object.__setattr__(self, "_discriminant", self.p * self.p - 4 * self.q)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    @property
    def discriminant(self) -> Fraction:
        """D = p**2 - 4*q, computed once."""
        return self._discriminant


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


WALK_GAP = 64
"""A miss at most this far outside the window is walked to and stored."""

WINDOW_CAP = 1 << 14
"""Most terms one sequence's window holds. The benchmark's deep oracle reads
windows of up to about 6,000 terms; a full window of a sequence growing by
one bit per index takes about 18 MB."""

SHARED_CAP = 64
"""Most sequences kept in the shared registry. A sweep or an oracle run
reads about 15 (its families and their U/V companions)."""

COMPANIONS_CAP = 64
"""Most (p, q) pairs whose U/V companion parameters are kept."""


def _scaled_pq(params: HoradamParams) -> Tuple[int, int, int]:
    """(m, P, Q): m = lcm(den p, den q), P = m*p and Q = m*m*q, all ints."""
    (pn, pd), (qn, qd) = params._key[2:]
    m = lcm(pd, qd)
    return m, pn * (m // pd), qn * (m * m // qd)


def _lucas_pair(m: int, big_p: int, big_q: int, j: int) -> Tuple[int, int, int]:
    """(u, v, den) with U_j = u/den and V_j = v/den, by index doubling, for
    any integer ``j``; (m, P, Q) are :func:`_scaled_pq`'s.

    The doubling runs on integers: U_j(p, q) = U_j(P, Q) / m**(j-1) and
    V_j(p, q) = V_j(P, Q) / m**j. Each bit of |j| maps k to 2k by
    U_{2k} = U_k*V_k and V_{2k} = V_k**2 - 2*Q**k, then, when the bit is
    set, to 2k + 1 by U_{k+1} = (P*U_k + V_k)/2 and
    V_{k+1} = (D*U_k + P*V_k)/2, both exact integer halvings. Negative
    indices use U_{-j} = -U_j/q**j and V_{-j} = V_j/q**j. Nothing divides
    by D, so D = 0 needs no special case.
    """
    disc = big_p * big_p - 4 * big_q
    n = abs(j)
    u, v, qk = 0, 2, 1
    for bit in bin(n)[2:]:
        u, v, qk = u * v, v * v - 2 * qk, qk * qk
        if bit == "1":
            u, v, qk = (big_p * u + v) // 2, (disc * u + big_p * v) // 2, qk * big_q
    mn = m ** n
    if j >= 0:
        return u * m, v, mn
    return -u * m * mn, v * mn, qk


def doubled_term(params: HoradamParams, j: int) -> Fraction:
    """W[j] by index doubling, with no walk and no memo.

    With U_{j-1} = (p*U_j - V_j) / (2q), W[j] = b*U_j - a*q*U_{j-1} is
    ((2b - a*p)*U_j + a*V_j) / 2. It is summed over ints, on the
    denominator of a, b and p times the Lucas pair's, into one Fraction.
    """
    (an, ad), (bn, bd), (pn, pd), _ = params._key
    u, v, den = _lucas_pair(*_scaled_pq(params), j)
    return Fraction((2 * bn * ad * pd - an * pn * bd) * u + an * bd * pd * v,
                    2 * ad * bd * pd * den)


class HoradamSequence:
    """Term evaluation at any integer index, in bounded memory.

    ``_memo`` is the dense window ``[_lo, _hi]`` of normalised ``Fraction``
    terms. A miss within ``WALK_GAP`` of it walks the recurrence and stores
    what it passes, as long as the window stays within ``WINDOW_CAP`` terms;
    any other index comes from :func:`doubled_term` and is not stored.

    The walk steps k by s from the edge e, (e, s) = (hi, 1) upwards and
    (lo, -1) downwards, and starts from W_{e-s} and W_e over L, the lcm of
    their denominators. With m = lcm(den p, den q), P = m*p and Q = m*m*q it
    runs on ints X_k = A*X_{k-s} - B*X_{k-2s} with W_k = X_k / (L*g**(s*(k-e)+1)),
    where (A, B, g) is (P, Q, m) upwards and (P*m, m*m*Q, Q) downwards, the
    reversed recurrence W_k = (p/q)*W_{k+1} - (1/q)*W_{k+2} scaled by Q per
    step. Each stored term is one ``Fraction``, written before the window's
    edges move past it.

    Instances are shared per parameter quadruple (see :meth:`of`), so aliases
    of the same underlying sequence hit one window. The registry ``_shared``
    keeps the ``SHARED_CAP`` most recently used sequences. Concurrent readers
    get correct values: a window only ever gains terms, and a sequence
    evicted from the registry stays usable by whoever holds it; callers
    observe a pure function of the index.
    """

    _shared: "OrderedDict[HoradamParams, HoradamSequence]" = OrderedDict()

    @classmethod
    def of(cls, params: HoradamParams) -> HoradamSequence:
        shared = cls._shared
        seq = shared.get(params)
        if seq is None:
            seq = shared.setdefault(params, cls(params))
            if len(shared) > SHARED_CAP:
                shared.popitem(last=False)
        else:
            try:
                shared.move_to_end(params)
            except KeyError:  # evicted by another thread since the get
                pass
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
        lo, hi = self._lo, self._hi
        if not (lo - WALK_GAP <= j <= hi + WALK_GAP
                and max(hi, j) - min(lo, j) < WINDOW_CAP):
            return doubled_term(self.params, j)
        m, big_p, big_q = _scaled_pq(self.params)
        edge, step, mul, sub, grow = ((hi, 1, big_p, big_q, m) if j > hi
                                      else (lo, -1, big_p * m, m * m * big_q, big_q))
        w0, w1 = memo[edge - step], memo[edge]
        scale = lcm(w0.denominator, w1.denominator)
        x0 = w0.numerator * (scale // w0.denominator)
        scale *= grow
        x1 = w1.numerator * (scale // w1.denominator)
        for k in range(edge + step, j + step, step):
            x0, x1 = x1, mul * x1 - sub * x0
            scale *= grow
            # over 1, Fraction(x) skips a gcd and a division by 1, which on a
            # 10**4-bit x cost several times a whole step
            memo[k] = Fraction(x1) if scale == 1 else Fraction(x1, scale)
        self._lo, self._hi = min(lo, j), max(hi, j)
        return memo[j]

    def __repr__(self) -> str:
        pr = self.params
        return f"HoradamSequence(a={pr.a}, b={pr.b}, p={pr.p}, q={pr.q})"


def term(params: HoradamParams, j: int) -> Fraction:
    """Exact term at index ``j`` (negative indices allowed)."""
    return HoradamSequence.of(params).term(j)


@lru_cache(maxsize=COMPANIONS_CAP)
def _companions(pq: tuple) -> Tuple[HoradamParams, HoradamParams]:
    """The U and V parameters of one (p, q), built once per pair.

    The key is p and q as (numerator, denominator) ints, read off the
    parameters' cached ``_key``: hashing it runs no Python code, where a
    ``Fraction``'s hash does, and every seed pair on one (p, q) shares it,
    where a key on the whole quadruple would build the two companions anew
    for each new seed pair."""
    p, q = (Fraction(*part) for part in pq)
    return lucas_first_kind(p, q), lucas_second_kind(p, q)


def first_kind_term(params: HoradamParams, j: int) -> Fraction:
    """U[j] for the recurrence coefficients (p, q) of ``params``."""
    return HoradamSequence.of(_companions(params._key[2:])[0]).term(j)


def second_kind_term(params: HoradamParams, j: int) -> Fraction:
    """V[j] for the recurrence coefficients (p, q) of ``params``."""
    return HoradamSequence.of(_companions(params._key[2:])[1]).term(j)


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
        return QuadExt.from_rational(first_kind_term(view.params, j), disc)

    def v(j: int) -> QuadExt:
        return QuadExt.from_rational(second_kind_term(view.params, j), disc)

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
