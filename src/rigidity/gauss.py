"""Exact arithmetic in Q(i): complex numbers a + b*i with rational a, b.

Every coefficient in this package is a :class:`GaussianRational`.  A value
``(re_num + im_num*i) / den`` is stored as one normalized int triple
``(re_num, im_num, den)`` with ``den > 0`` and ``gcd(re_num, im_num, den) ==
1``; zero is ``(0, 0, 1)``.  The triple is unique for each value, so two equal
scalars always compare and hash equal.  The class is immutable: every
operation reads its operands as triples (an int n is ``(n, 0, 1)``, a
Fraction ``p/q`` is ``(p, 0, q)``), computes on ints and builds a new
normalized triple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def decimal(value: RationalLike) -> str:
    """Decimal text of an int or Fraction, also past the interpreter's limit
    on int-to-str conversion: a longer int is printed in two halves."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{decimal(value.numerator)}/{decimal(value.denominator)}"
    n = int(value)
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half the digits: log10(2) ~ 3/10
        high, low = divmod(abs(n), 10**half)
        return ("-" if n < 0 else "") + decimal(high) + decimal(low).zfill(half)


class GaussianRational:
    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        re, im = _as_fraction(re), _as_fraction(im)
        # Over the lcm of two reduced denominators the triple is already
        # normalized: a prime dividing den divides one denominator to its
        # full power there, and that part's numerator is prime to it.
        den = lcm(re.denominator, im.denominator)
        _set_re(self, re.numerator * (den // re.denominator))
        _set_im(self, im.numerator * (den // im.denominator))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational instances are immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- parts ----------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re_num and not self.im_num

    @property
    def is_real(self) -> bool:
        return not self.im_num

    def __bool__(self) -> bool:
        return bool(self.re_num or self.im_num)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return (
            self.re_num == other.re_num
            and self.im_num == other.im_num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.re_num, self.im_num, self.den))

    # -- coercion -----------------------------------------------------

    @staticmethod
    def coerce(value: ScalarLike) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        triple = _triple(value)
        if triple is None:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return _make(*triple)

    # -- ring operations ----------------------------------------------
    # Foreign operands return NotImplemented so that richer types (e.g.
    # polynomials) get a chance at the reflected operation.

    def __add__(self, other: ScalarLike) -> GaussianRational:
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        a, b, d = self.re_num, self.im_num, self.den
        c, e, f = triple
        if d == f:
            return _normalized(a + c, b + e, d)
        return _normalized(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> GaussianRational:
        return _make(-self.re_num, -self.im_num, self.den)

    def __sub__(self, other: ScalarLike) -> GaussianRational:
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        c, e, f = triple
        return self + _make(-c, -e, f)

    def __mul__(self, other: ScalarLike) -> GaussianRational:
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        a, b, d = self.re_num, self.im_num, self.den
        c, e, f = triple
        return _normalized(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> GaussianRational:
        a, b, d = self.re_num, self.im_num, self.den
        if not a and not b:
            raise ZeroDivisionError("division by zero in Q(i)")
        # d / (a + b*i) = (a*d - b*d*i) / (a^2 + b^2)
        return _normalized(a * d, -b * d, a * a + b * b)

    def __truediv__(self, other: ScalarLike) -> GaussianRational:
        return self * GaussianRational.coerce(other).inverse()

    # -- display (debugging only; the parser module owns the grammar) --

    def __str__(self) -> str:
        if self.is_real:
            return decimal(self.re)
        if not self.re_num:
            return f"{decimal(self.im)}i"
        sign = "+" if self.im_num > 0 else "-"
        return f"({decimal(self.re)}{sign}{decimal(abs(self.im))}i)"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


# The slot descriptors write past the immutability guard.
_set_re = GaussianRational.re_num.__set__
_set_im = GaussianRational.im_num.__set__
_set_den = GaussianRational.den.__set__
_new = object.__new__


def _make(re_num: int, im_num: int, den: int) -> GaussianRational:
    """A scalar from a triple that is already normalized; no checks."""
    z = _new(GaussianRational)
    _set_re(z, re_num)
    _set_im(z, im_num)
    _set_den(z, den)
    return z


def _normalized(re_num: int, im_num: int, den: int) -> GaussianRational:
    """The scalar (re_num + im_num*i) / den for any den > 0."""
    g = gcd(re_num, im_num, den)
    if g != 1:
        return _make(re_num // g, im_num // g, den // g)
    return _make(re_num, im_num, den)


def _triple(value) -> tuple[int, int, int] | None:
    """The normalized triple of a scalar operand; None for a foreign type."""
    if isinstance(value, GaussianRational):
        return value.re_num, value.im_num, value.den
    if isinstance(value, int):
        return int(value), 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)


def gq(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor used throughout the tests."""
    return GaussianRational(re, im)
