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
  the small indices that sweeps and oracles read again and again. It is
  held in two lists that only grow, one per direction from the seeds, so a
  stored term costs one list slot and no index key. A miss within
  ``WALK_GAP`` of the window's edge extends it by running the recurrence
  forwards, or backwards by ``W[j] = (p*W[j+1] - W[j+2]) / q``, itself a
  second-order recurrence (coefficients p/q and 1/q). Either way it is one
  walk on ints scaled by a common denominator, which grows by a fixed int
  factor per step. A stored term is its exact value: an int when it is
  integral, as every term of an integral family read upwards is, and a
  normalised ``Fraction`` only when it is not.
* Every other index is computed, not stored, from the Lucas pair of
  (p, q) at half the index. Index doubling (Joye & Quisquater, "Efficient
  computation of full Lucas sequences", Electronics Letters 32(6), 1996)
  gives (U_k, V_k, q**k) at k = j // 2 in O(log |j|) integer products, and
  one product at full size, ``W[2k+o] = V_k*W[k+o] - q**k*W[o]``, gives the
  term as an int numerator and denominator. A negative index is read as a
  positive one of the reversed recurrence.
* :meth:`HoradamSequence.term` and :func:`term` return the term as a
  ``Fraction``; the package's own hot reads, the oracle's summand
  and the closed forms' terms, take the exact value itself
  (:meth:`HoradamSequence.exact`) and build no ``Fraction`` for an
  integral term.
* At most ``SHARED_CAP`` sequences are kept, least recently used first out.
* U and V are values, not sequences: (U_j, V_j) comes off the same ladder,
  at most ``COMPANIONS_CAP`` (p, q, j) cached, and builds no window.

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
from threading import Lock
from typing import List, Tuple, Union

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
one bit per index takes about 18.3 MB, nearly all of it the terms' ints,
each held as an int with no ``Fraction`` around it (the two lists take
0.14 MB of it)."""

SHARED_CAP = 64
"""Most sequences kept in the shared registry. It holds summand families
only: the 25 default sweeps leave 7 there, the built-in families."""

COMPANIONS_CAP = 64
"""Most (p, q, j) entries (U_j, V_j) kept, the latest at any |j|; the default sweeps read 28.
On (3, 2) one at +/-``cli.MAX_REACH`` takes 40/80 KB, 64 take 2.6-5.1 MB, past it more."""


def _scaled_pq(pq: tuple) -> Tuple[int, int, int]:
    """(m, P, Q) = (lcm(den p, den q), m*p, m*m*q), ints, of ``pq``, a params' ``_key[2:]``."""
    (pn, pd), (qn, qd) = pq
    m = lcm(pd, qd)
    return m, pn * (m // pd), qn * (m * m // qd)


def _lucas_pair(big_p: int, big_q: int, n: int) -> Tuple[int, int, int]:
    """(U_n, V_n, Q**n) of the int pair (P, Q), for n >= 0, by index doubling.

    Each bit of n maps k to 2k by U_{2k} = U_k*V_k and V_{2k} = V_k**2 - 2*Q**k,
    then, when the bit is set, to 2k + 1 by U_{k+1} = (P*U_k + V_k)/2 and
    V_{k+1} = (D*U_k + P*V_k)/2, both exact integer halvings. Nothing divides
    by D, so D = 0 needs no special case.
    """
    disc = big_p * big_p - 4 * big_q
    u, v, qk = 0, 2, 1
    for bit in bin(n)[2:]:
        u, v, qk = u * v, v * v - 2 * qk, qk * qk
        if bit == "1":
            u, v, qk = (big_p * u + v) // 2, (disc * u + big_p * v) // 2, qk * big_q
    return u, v, qk


def _slot(num: int, den: int) -> Union[int, Fraction]:
    """num/den as the window holds a term: an int when it is integral, else
    a normalised ``Fraction``."""
    # over 1 the term is num itself: no gcd and no division by 1, which on a
    # 10**4-bit num cost several times a whole step of the window's walk
    if den == 1:
        return num
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 else value


def doubled_term(params: HoradamParams, j: int) -> Fraction:
    """W[j] from the Lucas pair at half of j, with no walk and no memo."""
    num, den = _doubled(params, j)
    # over 1, Fraction(num) skips a gcd and a division
    return Fraction(num) if den == 1 else Fraction(num, den)


def _doubled(params: HoradamParams, j: int) -> Tuple[int, int]:
    """W[j] as ints (num, den), den nonzero and not reduced, from the Lucas
    pair at half of j: what :func:`doubled_term` and a far read of
    :meth:`HoradamSequence.exact` are made of.

    With (m, P, Q) from :func:`_scaled_pq` and L = den a * den b, the ints
    Y_i = L*m**i*W[i] obey the recurrence (P, Q) from Y_0 = L*a and
    Y_1 = L*m*b. For j = 2k + o, o in {0, 1}, the index-addition identity
    Y_{i+n} = V_n*Y_i - Q**n*Y_{i-n} at i = k + o, n = k gives
    Y_j = V_k*Y_{k+o} - Q**k*Y_o, where, with U_{k-1} = (P*U_k - V_k)/(2Q)
    and U_{k+1} = (P*U_k + V_k)/2, 2*Y_k = (2*Y_1 - P*Y_0)*U_k + Y_0*V_k and
    2*Y_{k+1} = (P*Y_1 - 2*Q*Y_0)*U_k + Y_1*V_k. So the doubling stops at k,
    and its last, largest squarings are one product. A negative j reads
    W[j] as term -j of the reversed recurrence, on ints as the window walks
    downwards: L*Q**i*W[-i] obeys (P*m, m*m*Q) from Y_0 and m*(P*Y_0 - Y_1),
    so the scale Q takes m's place, and the denominator L*Q**-j may be
    negative.
    """
    (an, ad), (bn, bd), _, _ = params._key
    m, big_p, big_q = _scaled_pq(params._key[2:])
    y0, y1 = an * bd, bn * ad * m
    if j < 0:
        y1, big_p, big_q, m, j = m * (big_p * y0 - y1), big_p * m, m * m * big_q, big_q, -j
    k, odd = divmod(j, 2)
    u, v, qk = _lucas_pair(big_p, big_q, k)
    if odd:
        y, c = y1, big_p * y1 - 2 * big_q * y0
    else:
        y, c = y0, 2 * y1 - big_p * y0
    return v * ((c * u + y * v) // 2) - qk * y, ad * bd * m ** j


class HoradamSequence:
    """Term evaluation at any integer index, in bounded memory.

    The window ``[lo, hi]`` of stored terms is two lists of exact terms
    that only grow, each the walk in one direction from the seeds:
    ``_up[i]`` is W[i] and ``_down[i]`` is W[1 - i], so both start with
    W[0] and W[1], which the window always holds. A stored term costs
    one list slot and no index key. ``lo`` and ``hi`` are read off the
    lists' lengths (``_memo``, the range of stored indices, from ``_memo[0]``
    to ``_memo[-1]``), so they cannot drift from what is stored. A miss within
    ``WALK_GAP`` of the window walks the recurrence and appends what it
    passes, as long as the window stays within ``WINDOW_CAP`` terms; any
    other index comes from index doubling and is not stored. A term is held
    as an int when it is integral and as a normalised ``Fraction`` only when
    it is not; :meth:`exact` reads it so, and :meth:`term` as a ``Fraction``.

    The walk steps k by s from the edge e, (e, s) = (hi, 1) upwards and
    (lo, -1) downwards, and starts from W_{e-s} and W_e, its list's last two
    terms, over L, the lcm of their denominators. With (m, P, Q) from
    :func:`_scaled_pq`, made once per sequence, it runs on ints
    X_k = A*X_{k-s} - B*X_{k-2s} with W_k = X_k / (L*g**(s*(k-e)+1)), where
    (A, B, g) is (P, Q, m) upwards and (P*m, m*m*Q, Q) downwards, the
    reversed recurrence W_k = (p/q)*W_{k+1} - (1/q)*W_{k+2} scaled by Q per
    step. Each term is appended once it is whole: ``X_k`` itself when the
    scale is 1, as it always is upwards on an integral family.

    Instances are shared per parameter quadruple (see :meth:`of`), so aliases
    of the same underlying sequence hit one window. The registry ``_shared``
    keeps the ``SHARED_CAP`` most recently used sequences. Concurrent readers
    get correct values. A read of a stored term takes no lock, and neither
    does a read that the policy sends to doubling. A walk runs under the
    sequence's lock and checks the policy again once it holds it, since
    another walker may have moved the edges: two walkers appending the same
    index would shift every later term of the list. A sequence evicted from
    the registry stays usable by whoever holds it; callers observe a pure
    function of the index.
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
        a, b = (_slot(num, den) for num, den in params._key[:2])
        self._up: List[Union[int, Fraction]] = [a, b]
        self._down: List[Union[int, Fraction]] = [b, a]
        self._lock = Lock()
        self._scaled = _scaled_pq(params._key[2:])

    @property
    def _memo(self) -> range:
        """The stored indices, lo to hi, read off the lists' lengths; their
        number is the number of stored terms."""
        return range(2 - len(self._down), len(self._up))

    def term(self, j: int) -> Fraction:
        """W[j] as a ``Fraction``."""
        value = self.exact(j)
        return Fraction(value) if type(value) is int else value

    def exact(self, j: int) -> Union[int, Fraction]:
        """W[j] as the window holds it, from the window, a walk or doubling:
        an int when it is integral, else a normalised ``Fraction``."""
        try:
            return self._up[j] if j >= 0 else self._down[1 - j]
        except IndexError:
            pass
        if self._reaches(j):
            with self._lock:
                # another walker may have moved the edges since the check
                if self._reaches(j):
                    return self._walk(j)
        return _slot(*_doubled(self.params, j))

    def _reaches(self, j: int) -> bool:
        """Whether ``j`` is within ``WALK_GAP`` of the window and a walk to it
        keeps the window within ``WINDOW_CAP`` terms."""
        # the bounds as _memo reads them, without its range on the miss path
        lo, hi = 2 - len(self._down), len(self._up) - 1
        return lo - WALK_GAP <= j <= hi + WALK_GAP and max(hi, j) - min(lo, j) < WINDOW_CAP

    def _walk(self, j: int) -> Union[int, Fraction]:
        """W[j], walked to from the window's edge on ``_up`` or ``_down``,
        which gain every term it passes; run under the lock. A ``j`` that
        another walker stored since the caller's check walks no step."""
        m, big_p, big_q = self._scaled
        if j >= 0:
            terms, i, mul, sub, grow = self._up, j, big_p, big_q, m
        else:
            terms, i, mul, sub, grow = self._down, 1 - j, big_p * m, m * m * big_q, big_q
        w0, w1 = terms[-2], terms[-1]
        scale = lcm(w0.denominator, w1.denominator)
        x0 = w0.numerator * (scale // w0.denominator)
        scale *= grow
        x1 = w1.numerator * (scale // w1.denominator)
        for _ in range(len(terms), i + 1):
            x0, x1 = x1, mul * x1 - sub * x0
            scale *= grow
            terms.append(_slot(x1, scale))
        return terms[i]


def term(params: HoradamParams, j: int) -> Fraction:
    """Exact term at index ``j`` (negative indices allowed)."""
    return HoradamSequence.of(params).term(j)


@lru_cache(maxsize=COMPANIONS_CAP)
def _lucas_terms(pq: tuple, j: int) -> Tuple[Fraction, Fraction]:
    """(U_j, V_j) of the (p, q) keyed by ``pq``, whose hash runs no Python
    code, off the ladder: U_j = U_j(P, Q)/m**(j-1), V_j = V_j(P, Q)/m**j, and
    U_{-k} = -U_k/q**k, V_{-k} = V_k/q**k with q**k = Q**k/m**(2k)."""
    m, big_p, big_q = _scaled_pq(pq)
    u, v, qk = _lucas_pair(big_p, big_q, abs(j))
    scale = m ** abs(j)
    if j < 0:
        return Fraction(-u * m * scale, qk), Fraction(v * scale, qk)
    return Fraction(u * m, scale), Fraction(v, scale)


def first_kind_term(params: HoradamParams, j: int) -> Fraction:
    """U[j] for the recurrence coefficients (p, q) of ``params``."""
    return _lucas_terms(params._key[2:], j)[0]


def second_kind_term(params: HoradamParams, j: int) -> Fraction:
    """V[j] for the recurrence coefficients (p, q) of ``params``."""
    return _lucas_terms(params._key[2:], j)[1]


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

    U and V come off the index-doubling ladder that every far term uses, so
    a zero residual checks that ladder against the root powers.
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
