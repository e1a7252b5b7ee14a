"""Certified interval arithmetic over exact rational endpoints.

Irrational quantities (norms, incenters, tube apex heights, deformation
coefficients) are carried as enclosures [lo, hi] with Fraction endpoints.
Precision is a bit count: sqrt enclosures have width <= 2**-bits, and all
other operations are outward-exact, so widths only grow through honest
arithmetic.  Refinement means recomputing at a higher bit count.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable

from .rationals import Vec, rat, rational_sqrt

DEFAULT_BITS = 60


class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = rat(lo)
        hi = lo if hi is None else rat(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def of(x) -> "Interval":
        return x if isinstance(x, Interval) else Interval(x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, x) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        o = Interval.of(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-Interval.of(other))

    def __rsub__(self, other):
        return Interval.of(other) + (-self)

    def __mul__(self, other):
        o = Interval.of(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Interval.of(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval division by interval containing zero")
        candidates = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(min(candidates), max(candidates))

    def __rtruediv__(self, other):
        return Interval.of(other) / self

    def square(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(0, max(self.lo * self.lo, self.hi * self.hi))

    # Certified strict comparisons: True only when provable from the bounds.
    def certainly_lt(self, other) -> bool:
        return self.hi < Interval.of(other).lo

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


def sqrt_enclosure(x, bits: int = DEFAULT_BITS) -> Interval:
    """Enclosure of sqrt(x) for rational x >= 0, width <= 2**-bits.

    Exact (point) interval when x is a perfect rational square.
    """
    x = rat(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    root = rational_sqrt(x)
    if root is not None:
        return Interval(root)
    scale = 1 << bits
    n = (x.numerator * scale * scale) // x.denominator
    r = isqrt(n)
    # r <= sqrt(n) <= sqrt(x)*scale and (r+1)**2 >= n+1 > x*scale**2
    return Interval(Fraction(r, scale), Fraction(r + 1, scale))


def interval_sqrt(x: Interval, bits: int = DEFAULT_BITS) -> Interval:
    lo = sqrt_enclosure(x.lo, bits).lo if x.lo > 0 else Fraction(0)
    hi = sqrt_enclosure(x.hi, bits).hi
    return Interval(lo, hi)


class IntervalPoint:
    """A box enclosure of a point: one Interval per coordinate."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        self.coords = tuple(Interval.of(c) for c in coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i) -> Interval:
        return self.coords[i]

    @property
    def width(self) -> Fraction:
        return max((c.width for c in self.coords), default=Fraction(0))

    def contains(self, p: Vec) -> bool:
        return all(c.contains(x) for c, x in zip(self.coords, p, strict=True))

    def mid(self) -> Vec:
        return tuple(c.mid for c in self.coords)

    def corners(self):
        """All 2^n corner points of the box (exact rational points)."""
        pts = [()]
        for c in self.coords:
            ends = (c.lo,) if c.is_exact() else (c.lo, c.hi)
            pts = [p + (e,) for p in pts for e in ends]
        return pts

    def __add__(self, other: "IntervalPoint") -> "IntervalPoint":
        return IntervalPoint(a + b for a, b in zip(self.coords, other.coords, strict=True))

    def __sub__(self, other: "IntervalPoint") -> "IntervalPoint":
        return IntervalPoint(a - b for a, b in zip(self.coords, other.coords, strict=True))

    def scale(self, k) -> "IntervalPoint":
        k = Interval.of(k)
        return IntervalPoint(k * c for c in self.coords)

    def dist_sq(self, other) -> Interval:
        other = IntervalPoint.of(other)
        acc = Interval(0)
        for a, b in zip(self.coords, other.coords, strict=True):
            acc = acc + (a - b).square()
        return acc

    @staticmethod
    def of(p) -> "IntervalPoint":
        return p if isinstance(p, IntervalPoint) else IntervalPoint(p)

    def __repr__(self):
        return f"IntervalPoint({list(self.coords)!r})"


def combination(weights: Iterable[Interval], points: Iterable[Vec]) -> IntervalPoint:
    """Sum of w_i * p_i with interval weights and rational points."""
    terms = [(w, p) for w, p in zip(weights, points, strict=True)]
    n = len(terms[0][1])
    coords = []
    for k in range(n):
        acc = Interval(0)
        for w, p in terms:
            acc = acc + w * p[k]
        coords.append(acc)
    return IntervalPoint(coords)
