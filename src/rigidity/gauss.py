"""Exact arithmetic in Q(i): complex numbers a + b*i with rational a, b.

Every coefficient in this package is a :class:`GaussianRational`.  The class
is immutable, hashable, and normalised by construction (``Fraction`` keeps
numerator/denominator in lowest terms with a positive denominator), so two
equal scalars always compare and hash equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- coercion -----------------------------------------------------

    @staticmethod
    def coerce(value: ScalarLike) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(_as_fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- ring operations ----------------------------------------------
    # Foreign operands return NotImplemented so that richer types (e.g.
    # polynomials) get a chance at the reflected operation.

    def __add__(self, other: ScalarLike) -> GaussianRational:
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: ScalarLike) -> GaussianRational:
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other: ScalarLike) -> GaussianRational:
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other: ScalarLike) -> GaussianRational:
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> GaussianRational:
        if self.is_zero:
            raise ZeroDivisionError("division by zero in Q(i)")
        n = self.norm()
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other: ScalarLike) -> GaussianRational:
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> GaussianRational:
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> GaussianRational:
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power_by_squaring(self, exponent, ONE)

    # -- display (debugging only; the parser module owns the grammar) --

    def __str__(self) -> str:
        if self.is_real:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


def power_by_squaring(base, exponent: int, one):
    """``base ** exponent`` for an integer ``exponent >= 0`` by square and
    multiply, starting from the identity ``one``; shared by the scalar,
    polynomial and quotient-ring powers."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def gq(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor used throughout the tests."""
    return GaussianRational(_as_fraction(re), _as_fraction(im))
