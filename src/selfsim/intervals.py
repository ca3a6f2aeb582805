"""Exact interval arithmetic with rational endpoints.

All geometric inequality tests in this package are decided on intervals
whose endpoints are ``Fraction``s, so the only source of uncertainty is
the width of the interval itself, never rounding.  Square roots are the
one operation that leaves the rationals; they are bracketed outward with
integer square roots at a configurable number of extra bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RatInterval:
    """Closed interval [lo, hi] with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = _as_fraction(lo)
        hi = lo if hi is None else _as_fraction(hi)
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------
    @staticmethod
    def point(x) -> "RatInterval":
        return RatInterval(x, x)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        c = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(c), max(c))

    __rmul__ = __mul__

    def inverse(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def square(self) -> "RatInterval":
        if self.lo >= 0:
            return RatInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RatInterval(self.hi * self.hi, self.lo * self.lo)
        m = max(-self.lo, self.hi)
        return RatInterval(0, m * m)

    # -- queries -------------------------------------------------------
    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        x = _as_fraction(x)
        return self.lo <= x <= self.hi

    def strictly_less(self, other) -> bool:
        """Certified self < other (every point of self below every point of other)."""
        return self.hi < _coerce(other).lo

    def strictly_greater(self, other) -> bool:
        return self.lo > _coerce(other).hi

    def sign(self):
        """-1, 0-straddling (None) or +1, certified."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None

    def __float__(self):
        return float(self.mid)

    def __eq__(self, other):
        if not isinstance(other, RatInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"


def _coerce(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(x)


def sqrt_interval(x: RatInterval, bits: int = 64) -> RatInterval:
    """Outward enclosure of sqrt on a nonnegative interval."""
    if x.lo < 0:
        raise ValueError("sqrt of an interval with negative part")
    scale = 1 << bits
    lo = _sqrt_lower(x.lo, scale)
    hi = _sqrt_upper(x.hi, scale)
    return RatInterval(lo, hi)


def _sqrt_lower(q: Fraction, scale: int) -> Fraction:
    # floor(sqrt(p/d)) on a 2^bits grid: isqrt(p*d*scale^2) // (d*scale)
    p, d = q.numerator, q.denominator
    return Fraction(isqrt(p * d * scale * scale), d * scale)


def _sqrt_upper(q: Fraction, scale: int) -> Fraction:
    p, d = q.numerator, q.denominator
    r = isqrt(p * d * scale * scale)
    if r * r < p * d * scale * scale:
        r += 1
    return Fraction(r, d * scale)


class RectInterval:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatInterval, im: RatInterval):
        self.re = re
        self.im = im

    @staticmethod
    def point(re, im=0) -> "RectInterval":
        return RectInterval(RatInterval.point(re), RatInterval.point(im))

    def __add__(self, other):
        other = _coerce_rect(other)
        return RectInterval(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RectInterval(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce_rect(other))

    def __rsub__(self, other):
        return _coerce_rect(other) + (-self)

    def __mul__(self, other):
        other = _coerce_rect(other)
        return RectInterval(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self) -> "RectInterval":
        return RectInterval(self.re, -self.im)

    def modulus_sq(self) -> RatInterval:
        return self.re.square() + self.im.square()

    def inverse(self) -> "RectInterval":
        m = self.modulus_sq()
        return self.conj() * RectInterval(m.inverse(), RatInterval.point(0))

    def __truediv__(self, other):
        return self * _coerce_rect(other).inverse()

    def contains_zero(self) -> bool:
        return self.re.contains(0) and self.im.contains(0)

    def contained_in(self, other: "RectInterval") -> bool:
        return (other.re.lo <= self.re.lo and self.re.hi <= other.re.hi
                and other.im.lo <= self.im.lo and self.im.hi <= other.im.hi)

    def intersect(self, other: "RectInterval"):
        re_lo, re_hi = max(self.re.lo, other.re.lo), min(self.re.hi, other.re.hi)
        im_lo, im_hi = max(self.im.lo, other.im.lo), min(self.im.hi, other.im.hi)
        if re_hi < re_lo or im_hi < im_lo:
            return None
        return RectInterval(RatInterval(re_lo, re_hi), RatInterval(im_lo, im_hi))

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    @property
    def mid(self):
        return (self.re.mid, self.im.mid)

    def __complex__(self):
        return complex(float(self.re.mid), float(self.im.mid))

    def __eq__(self, other):
        if not isinstance(other, RectInterval):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"RectInterval({self.re!r}, {self.im!r})"


def _coerce_rect(x) -> RectInterval:
    if isinstance(x, RectInterval):
        return x
    if isinstance(x, RatInterval):
        return RectInterval(x, RatInterval.point(0))
    return RectInterval.point(x)
