"""Exact Gaussian-rational scalars and exact integer linear algebra.

Coefficients of multivectors live in Q(i).  A component is stored as an
``int`` exactly when it is integral and as a ``fractions.Fraction``
otherwise, so the common integral case never pays for a gcd.  Real algebras
simply keep the imaginary part at zero.  All arithmetic is exact; there is
no rounding anywhere in this module, and a float or complex operand raises
TypeError.

Exact determinants over Q(i) come from one integer routine, the
fraction-free elimination of Bareiss (Math. Comp. 22 (1968) 565): callers
clear denominators once and split a Gaussian matrix into its real and
imaginary halves (:func:`realify`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Number, Rational
from typing import List, Sequence, Union

RationalLike = Union[int, Fraction]


def _canon(x: Rational) -> RationalLike:
    """x as an int when integral, else as a Fraction; TypeError for a number
    that is not an exact rational (a float or a complex)."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if not isinstance(x, Rational):
            raise TypeError(f"{type(x).__name__} is not exact: "
                            "use int, Fraction or GaussianRational")
        # int(): a numpy integer would otherwise overflow in later products
        x = Fraction(int(x.numerator), int(x.denominator))
    return x.numerator if x.denominator == 1 else x


def _ratio(num: int, den: int) -> RationalLike:
    """num / den in canonical form (never a float)."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _make(re: RationalLike, im: RationalLike) -> "GaussianRational":
    z = object.__new__(GaussianRational)
    z.re = re
    z.im = im
    return z


def _operand(value):
    """``value`` as a GaussianRational for exact arithmetic, NotImplemented
    when it is not a number (so that the other operand's method runs), and
    TypeError when it is an inexact number."""
    if type(value) is GaussianRational:
        return value
    return GaussianRational(value) if isinstance(value, Number) else NotImplemented


class GaussianRational:
    """A number a + b*i with exact rational a, b (each an int when integral).

    The parts may be given as any ``numbers.Rational`` (int, Fraction, a
    numpy integer); a float or complex raises TypeError."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        self.re = _canon(re)
        self.im = _canon(im)

    # -- constructors -----------------------------------------------------

    @classmethod
    def over(cls, re: int, im: int, den: int) -> "GaussianRational":
        """(re + im*i) / den for integers re, im and a nonzero integer den."""
        return _make(_ratio(re, den), _ratio(im, den))

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        return value if type(value) is GaussianRational else cls(value)

    @classmethod
    def parse(cls, re_str: str, im_str: str = "0") -> "GaussianRational":
        """Parse fraction strings like ``"3/4"`` or ``"-2"``; ValueError names
        a string whose denominator is zero."""
        parts = []
        for text in (re_str, im_str):
            try:
                parts.append(Fraction(text))
            except ZeroDivisionError:
                raise ValueError(f"coefficient {text!r} has a zero denominator") from None
        return cls(*parts)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return _make(_canon(self.re + other.re), _canon(self.im + other.im))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return _make(_canon(self.re - other.re), _canon(self.im - other.im))

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.im and not other.im:
            return _make(_canon(self.re * other.re), 0)
        return _make(
            _canon(self.re * other.re - self.im * other.im),
            _canon(self.re * other.im + self.im * other.re),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # Fraction(a, n), not a / n: two ints would divide to a float
        return _make(
            _canon(Fraction(self.re * other.re + self.im * other.im, n)),
            _canon(Fraction(self.im * other.re - self.re * other.im, n)),
        )

    def __rtruediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other / self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return _make(self.re, -self.im)

    # -- predicates & conversions -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other) -> bool:
        if type(other) is GaussianRational:
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # a real value equals its rational part, so it must hash like it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def bareiss(a: List[List[int]]) -> int:
    """Fraction-free elimination of an integer matrix with n rows and at
    least n columns, in place (Bareiss, Math. Comp. 22 (1968) 565).

    Returns the determinant of the leading n x n block.  Every division is
    exact, so entries stay integers bounded by minors of the input.  When
    the determinant is nonzero, ``a`` ends upper triangular in its first n
    columns with ``a[n-1][n-1] == ±det``.
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k = a[k]
        p = row_k[k]
        tail = row_k[k + 1:]
        for r in range(k + 1, n):
            row = a[r]
            f = row[k]
            row[k] = 0
            row[k + 1:] = [(p * x - f * y) // prev
                           for x, y in zip(row[k + 1:], tail)]
        prev = p
    return sign * prev


def det(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant of a square rational matrix."""
    scale = 1
    ints = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return Fraction(bareiss(ints), scale)


def realify(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]]) -> List[List[int]]:
    """The real matrix [[re, -im], [im, re]] of the Gaussian integer matrix
    re + i*im: it maps (Re x, Im x) to (Re Ax, Im Ax), and its determinant
    is |det(re + i*im)|^2."""
    return ([list(r) + [-x for x in i] for r, i in zip(re, im)]
            + [list(i) + list(r) for r, i in zip(re, im)])
