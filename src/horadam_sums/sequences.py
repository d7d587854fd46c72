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
one :class:`HoradamSequence`; at most ``SHARED_CAP`` are kept, least
recently used first out. A term costs a bounded amount whatever the index,
by one of two routes:

* the window: consecutive terms, at most ``WINDOW_CAP`` of them, which a
  miss within ``WALK_GAP`` of its edge extends by walking the recurrence,
  upwards or downwards, on ints (:func:`_steps`);
* the ladder: any other index is computed, not stored, from the Lucas pair
  of (p, q) at half the index by index doubling (Joye & Quisquater,
  "Efficient computation of full Lucas sequences", Electronics Letters
  32(6), 1996), in O(log |j|) int products (:meth:`HoradamSequence._far`).

:meth:`HoradamSequence.exact` gives W[j] as its exact value, an int when it
is integral and else a normalised ``Fraction``, and
:meth:`HoradamSequence.exact_pair` gives (W[j], W[j+1]) so;
:meth:`HoradamSequence.term` and :func:`term` give a ``Fraction``. A
summand reads through ``exact`` with its line's :class:`Stride`, whose
cursor steps past reach the line's own recurrence, not the ladder. U and V
are values, not sequences: (U_j, V_j) comes off the same ladder as two int
pairs in lowest terms (:func:`first_kind_pair`, :func:`second_kind_pair`;
:func:`first_kind_term` and :func:`second_kind_term` give ``Fraction``), at
most ``COMPANIONS_CAP`` (p, q, j) cached, and builds no window.

:class:`BinetView` reads W off the root powers in the ring
Q[delta]/(delta**2 - D), D = p**2 - 4*q, where tau = (p + delta)/2 is a root
of ``x**2 - p*x + q``: W[j] is a linear map of tau**j, with no division by
delta, so it holds at every D, a repeated root (D = 0) included.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from threading import Lock
from typing import List, Optional, Tuple, Union

from .exactnum import QuadExt, RationalLike


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
        key = tuple((x.numerator, x.denominator) for x in values)
        object.__setattr__(self, "_key", key)
        # (p, q) alone, which the U/V values and every precondition look up
        object.__setattr__(self, "_pq", key[2:])
        # F6 reads D at every point, as a reduced int pair; not a field, so
        # equality, hash and repr ignore it
        object.__setattr__(self, "_discriminant",
                           (self.p * self.p - 4 * self.q).as_integer_ratio())

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    @property
    def discriminant(self) -> Fraction:
        """D = p**2 - 4*q, from its int pair, which is computed once."""
        return Fraction(*self._discriminant)


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


def _steps(pq: tuple) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
    """The recurrence of the (p, q) keyed by ``pq``, a params' ``_pq``,
    on ints, upwards and downwards, each as (A, B, g): ints X_i with
    W[i] = X_i/(L*g**i) upwards, or W[-i] = X_i/(L*g**i) downwards, for a
    fixed L, obey X_{i+1} = A*X_i - B*X_{i-1}.

    With m = lcm(den p, den q), P = m*p and Q = m*m*q, that is (P, Q, m)
    upwards and (P*m, m*m*Q, Q) downwards, the reversed recurrence
    W[k] = (p/q)*W[k+1] - (1/q)*W[k+2] scaled by Q per step.
    """
    (pn, pd), (qn, qd) = pq
    m = lcm(pd, qd)
    big_p, big_q = pn * (m // pd), qn * (m * m // qd)
    return (big_p, big_q, m), (big_p * m, m * m * big_q, big_q)


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
    # over 1 or -1 the term is num or -num, with no gcd and no division, which
    # on a 10**4-bit num cost several times a step of the walk: the walk's scale
    # is 1 upwards on an integral family, and -1 (as a far read's den) at q = -1
    if abs(den) == 1:
        return num if den == 1 else -num
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 else value


def _on_scale(w0, w1, grow: int) -> Tuple[int, int, int]:
    """Two exact terms W0, W1 on one int scale, for a recurrence that steps
    it by ``grow``: (X0, X1, S) with W0 = X0*grow/S and W1 = X1/S, S being
    ``grow`` times the lcm of their denominators."""
    scale = lcm(w0.denominator, w1.denominator)
    x0 = w0.numerator * (scale // w0.denominator)
    scale *= grow
    return x0, w1.numerator * (scale // w1.denominator), scale


class HoradamSequence:
    """Term evaluation at any integer index, in bounded memory.

    The window ``[lo, hi]`` of stored terms is two lists of exact terms
    that only grow, each the walk in one direction from the seeds:
    ``_up[i]`` is W[i] and ``_down[i]`` is W[1 - i], so both start with
    W[0] and W[1], which the window always holds. A stored term costs
    one list slot and no index key. ``lo`` and ``hi`` are read off the
    lists' lengths (``_memo``, the range of stored indices, from ``_memo[0]``
    to ``_memo[-1]``), so they cannot drift from what is stored. A miss within
    ``WALK_GAP`` of the window walks the recurrence (:meth:`_walk`, on the
    int recurrences of :func:`_steps`, made once per sequence) and appends
    what it passes, as long as the window stays within ``WINDOW_CAP`` terms;
    any other index comes off the ladder (:meth:`_far`), or a summand's
    cursor (:class:`Stride`), and is not stored. A term is held as an int
    when it is integral and as a normalised ``Fraction`` only when it is not.

    Instances are shared per parameter quadruple (see :meth:`of`), so aliases
    of the same underlying sequence hit one window. Concurrent readers
    get correct values. A read of a stored term takes no lock, and neither
    does a read that the policy sends past reach. A walk runs under the
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
        self._steps = _steps(params._pq)

    @property
    def _memo(self) -> range:
        """The stored indices, lo to hi, read off the lists' lengths; their
        number is the number of stored terms."""
        return range(2 - len(self._down), len(self._up))

    def term(self, j: int) -> Fraction:
        """W[j] as a ``Fraction``."""
        value = self.exact(j)
        return Fraction(value) if type(value) is int else value

    def exact(self, j: int, line: Optional[Stride] = None) -> Union[int, Fraction]:
        """W[j] as the window holds it, from the window, a walk, and past
        reach the cursor of ``line`` if given, else the ladder: an int when
        it is integral, else a normalised ``Fraction``."""
        try:
            return self._up[j] if j >= 0 else self._down[1 - j]
        except IndexError:
            pass
        if self._reaches(j):
            with self._lock:
                # another walker may have moved the edges since the check
                if self._reaches(j):
                    return self._walk(j)
        return _slot(*self._far(j)) if line is None else line.past(j)

    def exact_pair(self, j: int) -> Tuple[Union[int, Fraction], Union[int, Fraction]]:
        """(W[j], W[j+1]) as :meth:`exact` reads each. When W[j+1] is within
        reach of the window (:meth:`_reaches`), it is read first and then
        W[j], so an upward walk to the pair is one walk; otherwise neither
        is stored and both come off one ladder, not two."""
        if self._reaches(j + 1):
            after = self.exact(j + 1)
            return self.exact(j), after
        first, second = self._far(j, pair=True)
        return _slot(*first), _slot(*second)

    def _reaches(self, j: int) -> bool:
        """Whether ``j`` is within ``WALK_GAP`` of the window and a walk to it
        keeps the window within ``WINDOW_CAP`` terms."""
        # the bounds as _memo reads them, without its range on the miss path
        lo, hi = 2 - len(self._down), len(self._up) - 1
        return lo - WALK_GAP <= j <= hi + WALK_GAP and max(hi, j) - min(lo, j) < WINDOW_CAP

    def _walk(self, j: int) -> Union[int, Fraction]:
        """W[j], walked to from the window's edge on ``_up`` or ``_down``,
        which gain every term it passes; run under the lock. A ``j`` that
        another walker stored since the caller's check walks no step.

        The walk puts its list's last two terms on one int scale
        (:func:`_on_scale`) and steps the direction's ints (A, B, g) of
        :func:`_steps`, so the term t steps past the edge is X/(L*g**(t+1)),
        L the lcm of those two terms' denominators.
        """
        up, down = self._steps
        if j >= 0:
            terms, i, (mul, sub, grow) = self._up, j, up
        else:
            terms, i, (mul, sub, grow) = self._down, 1 - j, down
        x0, x1, scale = _on_scale(terms[-2], terms[-1], grow)
        for _ in range(len(terms), i + 1):
            x0, x1 = x1, mul * x1 - sub * x0
            scale *= grow
            terms.append(_slot(x1, scale))
        return terms[i]

    def _far(self, j: int, pair: bool = False) -> tuple:
        """W[j] as ints (num, den), den nonzero and not reduced, off the Lucas
        ladder at half the index, with no walk and nothing stored; with
        ``pair``, (W[j], W[j+1]) as two such int pairs off one ladder.

        With (A, B, g) of :func:`_steps` in j's direction, m the upward g
        and L = den a * den b, the ints Y_i = L*g**i*W[i] upwards, or
        L*g**i*W[-i] downwards, obey Y_{i+1} = A*Y_i - B*Y_{i-1} from
        Y_0 = L*a and Y_1 = L*m*b upwards, or A*Y_0 - m*L*m*b downwards. A
        negative j reads i = -j downwards, and a pair i = -j - 1 and -j,
        which are W[j+1] and W[j]. For i = 2k + o, o in {0, 1}, the seeds are
        first shifted by o, so that one formula serves both parities. With
        (U_k, V_k, B**k) from :func:`_lucas_pair`,
        Y_{k+o} = U_k*Y_{o+1} - B*U_{k-1}*Y_o and 2*B*U_{k-1} = A*U_k - V_k give
        2*Y_{k+o} = (2*Y_{o+1} - A*Y_o)*U_k + Y_o*V_k, and the index-addition
        identity Y_{t+n} = V_n*Y_t - B**n*Y_{t-n} at (t, n) = (k + o, k) gives
        Y_i = V_k*Y_{k+o} - B**k*Y_o. So the doubling stops at k, and its
        last, largest squarings are one product. Only a pair makes a second,
        Y_{i+1}, from 2*Y_{k+o+1} = (A*Y_{o+1} - 2*B*Y_o)*U_k + Y_{o+1}*V_k.
        """
        (an, ad), (bn, bd) = self.params._key[:2]
        up, down = self._steps
        m = up[2]
        y0, y1 = an * bd, bn * ad * m
        if j < 0:
            big_a, big_b, g = down
            y1, i = big_a * y0 - m * y1, -j - 1 if pair else -j
        else:
            (big_a, big_b, g), i = up, j
        k, odd = divmod(i, 2)
        if odd:
            y0, y1 = y1, big_a * y1 - big_b * y0
        u, v, bk = _lucas_pair(big_a, big_b, k)
        scale = ad * bd * g ** i
        first = v * (((2 * y1 - big_a * y0) * u + y0 * v) // 2) - bk * y0, scale
        if not pair:
            return first
        second = v * (((big_a * y1 - 2 * big_b * y0) * u + y1 * v) // 2) - bk * y1, scale * g
        return (second, first) if j < 0 else (first, second)


class Stride:
    """The cursor of a summand's line j = m*k + s, m = ``step``, that
    :meth:`HoradamSequence.exact` steps past the window's reach in place of
    the ladder (:meth:`past`).

    There the line's terms obey W[j + m] = V_m*W[j] - q**m*W[j - m]. With
    (A, B, g) the ints of :func:`_steps` in m's direction,
    (V, C) = (V_|m|, B**|m|) of :func:`_lucas_pair` and G = g**|m|, the ints
    Z_i = L*G**(i + 1)*W[j0 + i*m] obey Z_{i+1} = V*Z_i - C*Z_{i-1}, where
    j0 is the index the cursor was last reset at and L the lcm of the
    denominators of W[j0 - m] and W[j0]; so W[j0 + i*m] = Z_i/(L*G**(i + 1)),
    and each step multiplies that scale by G. The cursor is one tuple
    (j, Z at j, Z at j - m, the scale, (V, C, G)), replaced whole, so a
    reader racing another reads one consistent cursor and at worst resets
    it. A read anywhere but one step past the cursor resets it at j by two
    ``exact`` reads, of W[j - m] and W[j], which store what ``exact`` would;
    a step stores nothing.
    """

    __slots__ = ("sequence", "step", "_cursor")

    def __init__(self, sequence: HoradamSequence, step: int):
        self.sequence = sequence
        self.step = step
        self._cursor = (None,)

    def past(self, j: int) -> Union[int, Fraction]:
        """W[j], past the window's reach: one step of the cursor from j - m,
        else a reset at j."""
        m = self.step
        cursor = self._cursor
        if cursor[0] == j - m:
            _, z1, z0, scale, steps = cursor
            big_v, big_c, grow = steps
            z0, z1, scale = z1, big_v * z1 - big_c * z0, scale * grow
            value = _slot(z1, scale)
        else:
            sequence = self.sequence
            before, value = sequence.exact(j - m), sequence.exact(j)
            up, down = sequence._steps
            big_a, big_b, g = up if m >= 0 else down
            _, big_v, big_c = _lucas_pair(big_a, big_b, abs(m))
            steps = big_v, big_c, g ** abs(m)
            z0, z1, scale = _on_scale(before, value, steps[2])
        self._cursor = (j, z1, z0, scale, steps)
        return value


def term(params: HoradamParams, j: int) -> Fraction:
    """Exact term at index ``j`` (negative indices allowed)."""
    return HoradamSequence.of(params).term(j)


def _lowest(num: int, den: int) -> Tuple[int, int]:
    """num/den, den nonzero, as an int pair in lowest terms over a positive
    denominator: the pair a normalised ``Fraction`` holds."""
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


@lru_cache(maxsize=COMPANIONS_CAP)
def _lucas_terms(pq: tuple, j: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(U_j, V_j) of the (p, q) keyed by ``pq``, whose hash runs no Python
    code, off the ladder, each a reduced int pair (see :func:`_lowest`):
    U_j = U_j(P, Q)/m**(j-1), V_j = V_j(P, Q)/m**j, and U_{-k} = -U_k/q**k,
    V_{-k} = V_k/q**k with q**k = Q**k/m**(2k)."""
    (big_p, big_q, m), _ = _steps(pq)
    u, v, qk = _lucas_pair(big_p, big_q, abs(j))
    scale = m ** abs(j)
    if j < 0:
        return _lowest(-u * m * scale, qk), _lowest(v * scale, qk)
    return _lowest(u * m, scale), _lowest(v, scale)


def first_kind_pair(params: HoradamParams, j: int) -> Tuple[int, int]:
    """U[j] for the recurrence coefficients (p, q) of ``params``, as the int
    pair of its normalised ``Fraction``."""
    return _lucas_terms(params._pq, j)[0]


def second_kind_pair(params: HoradamParams, j: int) -> Tuple[int, int]:
    """V[j] for the recurrence coefficients (p, q) of ``params``, as the int
    pair of its normalised ``Fraction``."""
    return _lucas_terms(params._pq, j)[1]


def first_kind_term(params: HoradamParams, j: int) -> Fraction:
    """U[j] for the recurrence coefficients (p, q) of ``params``."""
    return Fraction(*first_kind_pair(params, j))


def second_kind_term(params: HoradamParams, j: int) -> Fraction:
    """V[j] for the recurrence coefficients (p, q) of ``params``."""
    return Fraction(*second_kind_pair(params, j))


class BinetView:
    """Root powers of a sequence, in Q[delta]/(delta**2 - D), at every D.

    ``tau = (p + delta)/2`` and its conjugate ``sigma`` are the roots of
    ``x**2 - p*x + q``, and ``delta = tau - sigma`` is the formal sqrt(D).
    With tau**j = X_j + Y_j*delta, V_j = 2*X_j and U_j = 2*Y_j, so
    W[j] = a*X_j + (2*b - a*p)*Y_j (Horadam, Fibonacci Quart. 3(3), 1965):
    :meth:`project` is that linear map, and ``term(j)`` is it at tau**j.
    """

    def __init__(self, params: HoradamParams):
        self.params = params
        disc = params.discriminant
        half = Fraction(1, 2)
        self.tau = QuadExt(params.p * half, half, disc)
        self.sigma = self.tau.conjugate()
        self.delta = QuadExt.sqrt(disc)

    def project(self, value: QuadExt) -> Fraction:
        """a*X + (2*b - a*p)*Y for ``value`` = X + Y*delta: W[j] at tau**j."""
        a, b, p = self.params.a, self.params.b, self.params.p
        return a * value.rat_part + (2 * b - a * p) * value.surd_part

    def term(self, j: int) -> Fraction:
        return self.project(self.tau ** j)


ROOT_SHIFT_IDENTITIES = ("L1", "L2", "L3", "L4")


def lemma3_residual(p: RationalLike, q: RationalLike, r: int, d: int, which: str) -> QuadExt:
    """LHS minus RHS of one of the four root-shift identities, in
    Q[delta]/(delta**2 - D), where they hold at every D.

    The identities relate index-shifted U/V terms to root powers:

    * L1:  U[r+d] - tau**r * U[d]  ==  sigma**d * U[r]
    * L2:  U[r+d] - sigma**r * U[d]  ==  tau**d * U[r]
    * L3:  V[r+d] - tau**r * V[d]  ==  -sigma**d * U[r] * delta
    * L4:  V[r+d] - sigma**r * V[d]  ==  tau**d * U[r] * delta

    U and V come off the index-doubling ladder that every far term uses, so
    a zero residual checks that ladder against the root powers.
    """
    view = BinetView(lucas_first_kind(p, q))
    tau, sigma, delta = view.tau, view.sigma, view.delta

    def u(j: int) -> Fraction:
        return first_kind_term(view.params, j)

    def v(j: int) -> Fraction:
        return second_kind_term(view.params, j)

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
    """Residual of the odd Binet combination for p = 1 sequences, times delta.

    Checks ``(b - a*sigma)*tau**j - (a*tau - b)*sigma**j == w[j+1] - q*w[j-1]``
    where w is the sequence itself; nothing divides by delta, so it holds at
    every D. Only defined for p = 1.
    """
    if params.p != 1:
        raise ValueError("identity requires the restricted family (p = 1)")
    view = BinetView(params)
    seq = HoradamSequence.of(params)
    a, b, tau, sigma = params.a, params.b, view.tau, view.sigma
    lhs = (b - a * sigma) * tau ** j - (a * tau - b) * sigma ** j
    return lhs - (seq.term(j + 1) - params.q * seq.term(j - 1))
