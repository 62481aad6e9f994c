"""Exact arithmetic over the Gaussian rationals Q(i).

Matrix entries begin as fourth roots of unity, and ``congruence`` maps
them to Gaussian rationals; the exact inertia kernel scales such a matrix to
Gaussian integers and never leaves them, so inertia counts are exact rather
than floating-point estimates.  The rational components are
``fractions.Fraction`` values, which gives arbitrary-precision, eagerly
normalized arithmetic for free.

The fourth roots of unity themselves double as the edge-gain alphabet of the
graph layer.  They are encoded compactly as exponents of i (an int in 0..3),
with tiny helper functions for multiplication, conjugation and text tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# A unit is i**k, stored as the exponent k in 0..3.
Unit = int

UNIT_ONE: Unit = 0
UNIT_I: Unit = 1
UNIT_MINUS_ONE: Unit = 2
UNIT_MINUS_I: Unit = 3
UNITS: tuple[Unit, ...] = (UNIT_ONE, UNIT_I, UNIT_MINUS_ONE, UNIT_MINUS_I)

_UNIT_TOKENS = ("1", "i", "-1", "-i")
_TOKEN_TO_UNIT = {tok: k for k, tok in enumerate(_UNIT_TOKENS)}


def unit_mul(a: Unit, b: Unit) -> Unit:
    return (a + b) % 4


def unit_conj(a: Unit) -> Unit:
    return (-a) % 4


def unit_token(a: Unit) -> str:
    return _UNIT_TOKENS[a % 4]


def unit_from_token(token: str) -> Unit:
    """Parse one of the four gain tokens ``1, i, -1, -i``."""
    try:
        return _TOKEN_TO_UNIT[token]
    except KeyError:
        raise ValueError(f"unknown unit token {token!r}") from None


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An exact complex number with rational real and imaginary parts.

    Values are immutable and hashable; both components are kept in the
    canonical form that ``Fraction`` guarantees (coprime, positive
    denominator), so equal values always compare and hash equal.
    """

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2, always a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def sign_of_real(self) -> int:
        """Exact sign in {-1, 0, +1}; only defined for real values."""
        if self.im != 0:
            raise ValueError(f"sign_of_real on non-real value {self}")
        if self.re > 0:
            return 1
        if self.re < 0:
            return -1
        return 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"({self.re})+({self.im})i"


GR_ZERO = GaussianRational.of(0)

_UNIT_VALUES = (
    GaussianRational.of(1, 0),
    GaussianRational.of(0, 1),
    GaussianRational.of(-1, 0),
    GaussianRational.of(0, -1),
)


def unit_value(a: Unit) -> GaussianRational:
    """The unit i**a as an exact complex number."""
    return _UNIT_VALUES[a % 4]
