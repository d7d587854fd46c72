"""Exact scalar arithmetic: arbitrary-precision rationals and formal square roots.

Rational values are plain :class:`fractions.Fraction` objects, which already
guarantee canonical form (positive denominator, reduced to lowest terms) after
every operation. On top of that, :class:`QuadExt` represents an element
``u + v*sqrt(D)`` of the quadratic extension Q(sqrt(D)) with exact rational
components and a fixed nonzero rational discriminant ``D``.

``D`` may be negative (the arithmetic is formal and sign-agnostic) and may even
be a perfect square, in which case Q(sqrt(D)) is a ring with zero divisors
rather than a field: nonzero elements of zero norm cannot be inverted, and
attempting to divide by one raises :class:`DivisionByZeroError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DivisionByZeroError(ZeroDivisionError):
    """Division by zero, or by a non-invertible (zero-norm) extension element."""


class ZeroToNegativePowerError(ZeroDivisionError):
    """Zero raised to a negative exponent."""


class MismatchedDiscriminantError(ValueError):
    """Arithmetic between extension elements with different discriminants."""


class DegenerateDiscriminantError(ValueError):
    """An extension context with discriminant zero (nothing to adjoin)."""


class QuadExt:
    """Element ``u + v*sqrt(D)`` of Q(sqrt(D)), with exact rational u, v, D.

    Values are immutable. Two elements combine arithmetically only when their
    discriminants match; plain ints and Fractions coerce to the discriminant
    of the other operand. Equality is structural on the canonical components,
    except that purely rational elements (``surd_part == 0``) compare equal to
    the corresponding Fraction and to rational elements of any discriminant.
    """

    __slots__ = ("_u", "_v", "_d")

    def __init__(self, rat_part: RationalLike, surd_part: RationalLike = 0,
                 disc: RationalLike | None = None):
        if disc is None:
            raise TypeError("QuadExt requires an explicit discriminant")
        d = Fraction(disc)
        if d == 0:
            raise DegenerateDiscriminantError("discriminant must be nonzero")
        self._u = Fraction(rat_part)
        self._v = Fraction(surd_part)
        self._d = d

    @classmethod
    def _of(cls, u: Fraction, v: Fraction, d: Fraction) -> QuadExt:
        """An element built from components that are already Fractions and a
        discriminant taken from an existing element, so the coercion and
        checks of ``__init__`` are skipped."""
        self = object.__new__(cls)
        self._u = u
        self._v = v
        self._d = d
        return self

    @classmethod
    def from_rational(cls, value: RationalLike, disc: RationalLike) -> QuadExt:
        return cls(value, 0, disc)

    @classmethod
    def sqrt(cls, disc: RationalLike) -> QuadExt:
        """The formal square root of ``disc`` itself: 0 + 1*sqrt(disc)."""
        return cls(0, 1, disc)

    @property
    def rat_part(self) -> Fraction:
        return self._u

    @property
    def surd_part(self) -> Fraction:
        return self._v

    @property
    def disc(self) -> Fraction:
        return self._d

    def conjugate(self) -> QuadExt:
        return QuadExt._of(self._u, -self._v, self._d)

    def norm(self) -> Fraction:
        """Product with the conjugate: u**2 - D*v**2; zero iff not invertible."""
        return self._u * self._u - self._d * self._v * self._v

    def _coerce(self, other) -> QuadExt | None:
        if isinstance(other, QuadExt):
            if other._d != self._d:
                raise MismatchedDiscriminantError(
                    f"cannot combine sqrt({self._d}) with sqrt({other._d}) values")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(Fraction(other), _ZERO, self._d)
        return None

    def __bool__(self) -> bool:
        return self._u != 0 or self._v != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._v == 0 and self._u == other
        if isinstance(other, QuadExt):
            if self._v == 0 and other._v == 0:
                return self._u == other._u
            return (self._d == other._d and self._u == other._u
                    and self._v == other._v)
        return NotImplemented

    def __hash__(self) -> int:
        if self._v == 0:
            return hash(self._u)
        return hash((self._u, self._v, self._d))

    def __neg__(self) -> QuadExt:
        return QuadExt._of(-self._u, -self._v, self._d)

    def __add__(self, other) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadExt._of(self._u + rhs._u, self._v + rhs._v, self._d)

    __radd__ = __add__

    def __sub__(self, other) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadExt._of(self._u - rhs._u, self._v - rhs._v, self._d)

    def __rsub__(self, other) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadExt._of(self._u * rhs._u + self._v * rhs._v * self._d,
                           self._u * rhs._v + self._v * rhs._u,
                           self._d)

    __rmul__ = __mul__

    def _inverse(self) -> QuadExt:
        n = self.norm()
        if n == 0:
            if not self:
                raise DivisionByZeroError(f"division by zero in Q(sqrt({self._d}))")
            raise DivisionByZeroError(
                f"({self}) has zero norm and is not invertible in Q(sqrt({self._d}))")
        return QuadExt._of(self._u / n, -self._v / n, self._d)

    def __truediv__(self, other) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs._inverse()

    def __rtruediv__(self, other) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self._inverse()

    def __pow__(self, exponent: int) -> QuadExt:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return QuadExt._of(_ONE, _ZERO, self._d)
        base = self
        if exponent < 0:
            if not self:
                raise ZeroToNegativePowerError(
                    f"0 ** {exponent} is undefined in Q(sqrt({self._d}))")
            base = self._inverse()
            exponent = -exponent
        result = QuadExt._of(_ONE, _ZERO, self._d)
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __repr__(self) -> str:
        return f"QuadExt({self._u}, {self._v}, disc={self._d})"

    def __str__(self) -> str:
        if self._v == 0:
            return str(self._u)
        sign = "+" if self._v >= 0 else "-"
        return f"{self._u} {sign} {abs(self._v)}*sqrt({self._d})"

