"""The ``Fraction`` midpoint-radius ball that the dyadic ``sereval.Ball``
replaced, kept as the tests' oracle, and the conversions between the two.

``FBall`` is exact rational ball arithmetic: a sum, product or quotient of
two balls holds every sum, product or quotient of their points.  ``fb``
reads a dyadic ball as the same interval in Fractions, and ``enclose``
gives the dyadic ball at 2^-bits, ends rounded outward, that holds a
rational or an ``FBall``.  ``sqrt_ball`` encloses the square root of a
rational in a dyadic ball, for the tests that need sqrt(d) beside a
certified value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from piseries.sereval import Ball, _bits


@dataclass(frozen=True)
class FBall:
    mid: Fraction
    rad: Fraction = Fraction(0)

    def __post_init__(self):
        if self.rad < 0:
            raise ValueError(f"negative ball radius {self.rad}")

    @staticmethod
    def exact(x) -> "FBall":
        return FBall(Fraction(x), Fraction(0))

    def __add__(self, other) -> "FBall":
        other = _as_fball(other)
        return FBall(self.mid + other.mid, self.rad + other.rad)

    __radd__ = __add__

    def __neg__(self) -> "FBall":
        return FBall(-self.mid, self.rad)

    def __sub__(self, other) -> "FBall":
        return self + (-_as_fball(other))

    def __rsub__(self, other) -> "FBall":
        return _as_fball(other) + (-self)

    def __mul__(self, other) -> "FBall":
        other = _as_fball(other)
        rad = (abs(self.mid) * other.rad + abs(other.mid) * self.rad
               + self.rad * other.rad)
        return FBall(self.mid * other.mid, rad)

    __rmul__ = __mul__

    def inverse(self) -> "FBall":
        lo, hi = self.mid - self.rad, self.mid + self.rad
        if lo <= 0 <= hi:
            raise ZeroDivisionError("ball contains zero")
        ilo, ihi = 1 / hi, 1 / lo
        return FBall((ilo + ihi) / 2, (ihi - ilo) / 2)

    def __truediv__(self, other) -> "FBall":
        return self * _as_fball(other).inverse()

    def __rtruediv__(self, other) -> "FBall":
        return _as_fball(other) * self.inverse()

    def abs_upper(self) -> Fraction:
        return abs(self.mid) + self.rad

    def contains_zero(self) -> bool:
        return abs(self.mid) <= self.rad

    def contains(self, x) -> bool:
        return abs(self.mid - Fraction(x)) <= self.rad

    def shrink(self, digits: int) -> "FBall":
        """Round the midpoint to ~digits decimal places, keeping soundness."""
        scale = 10 ** (digits + 2)
        rounded = Fraction(round(self.mid * scale), scale)
        return FBall(rounded, self.rad + abs(rounded - self.mid))

    def decimal(self, digits: int = 30) -> str:
        scale = 10 ** digits
        q = round(self.mid * scale)
        sign = "-" if q < 0 else ""
        ip, fp = divmod(abs(q), scale)
        return f"{sign}{ip}.{str(fp).zfill(digits)}"


def _as_fball(x) -> FBall:
    if isinstance(x, FBall):
        return x
    if isinstance(x, Ball):
        return fb(x)
    return FBall.exact(x)


def fb(ball: Ball) -> FBall:
    """The dyadic ball as the same interval in Fractions."""
    return FBall(Fraction(ball.mid, 1 << ball.exp),
                 Fraction(ball.rad, 1 << ball.exp))


def enclose(x, bits: int) -> Ball:
    """The dyadic ball at exponent bits + 1 whose ends are those of the
    rational or FBall x at 2^-bits, rounded outward; exact when they are
    multiples of 2^-bits."""
    x = _as_fball(x)
    lo, hi = (x.mid - x.rad) * 2 ** bits, (x.mid + x.rad) * 2 ** bits
    lo, hi = lo.numerator // lo.denominator, -(-hi.numerator // hi.denominator)
    return Ball(lo + hi, hi - lo, bits + 1)


def sqrt_ball(d, digits: int = 50) -> Ball:
    """Certified enclosure of sqrt(d) for a nonnegative rational d (an int
    or a ``Fraction``), with radius below 10^-digits; the radius is 0
    when sqrt(d) 2^t is an integer, t = ``_bits(digits)`` + 1."""
    a, b = d.as_integer_ratio()
    if a < 0:
        raise ValueError("negative radicand")
    t = _bits(digits) + 1
    n = a * b << 2 * t           # sqrt(d) 2^t = sqrt(n) / b
    r = isqrt(n)
    lo, hi = r // b, -(-(r + (r * r != n)) // b)
    return Ball(lo + hi, hi - lo, t + 1)
