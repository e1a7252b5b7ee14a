"""Certified interval arithmetic over exact rational endpoints.

Irrational quantities (norms, incenters, deformation coefficients) are
carried as enclosures [lo, hi] with Fraction endpoints.  Precision is a bit
count: sqrt enclosures have width <= 2**-bits, and all other operations are
outward-exact, so widths only grow through honest arithmetic.  Refinement
means recomputing at a higher bit count.

The same operations also run on integer numerators.  ``BoxNumerators``
writes a box once over one common denominator.  It is the package's one
box type, with the box of points (``of_points``), the box of boxes
(``hull``) and the test of two boxes (``separating_axis``) each written
once.  ``square_bounds``, ``product_bounds``, ``quotient_bounds`` and
``sqrt_bounds`` give the ends that ``Interval.square``, ``*``, ``/`` and
``interval_sqrt`` give, as integers over a denominator the caller tracks.
The levels of the deformation maps decide on these integers; ``Interval``
and ``IntervalPoint`` are the types they return.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, NamedTuple, Sequence

from .rationals import Vec, homogeneous, rat, rational_sqrt

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

    def contains(self, x) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

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

    def numerators(self) -> "BoxNumerators":
        """The box written once over the common denominator of its ends
        (``rationals.homogeneous``)."""
        q, *ends = homogeneous([end for c in self.coords for end in (c.lo, c.hi)])
        return BoxNumerators(q, tuple(ends[::2]), tuple(ends[1::2]))

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


# ---------------------------------------------------------------------------
# the same operations on integer numerators


class BoxNumerators(NamedTuple):
    """A closed box over the integers: axis k spans [lo[k], hi[k]] / q, q > 0."""

    q: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @staticmethod
    def of_points(rows: Sequence[Sequence[int]]) -> "BoxNumerators":
        """The closed box of the integer points (q, p_1, ..., p_n), over the
        least common multiple of their q; there must be at least one."""
        q_col, *axes = zip(*rows)
        q = lcm(*q_col)
        if q_col.count(q) != len(q_col):  # rows over one q skip the rescaling
            scales = [q // r for r in q_col]
            axes = [[c * s for c, s in zip(axis, scales)] for axis in axes]
        return BoxNumerators(q, tuple(map(min, axes)), tuple(map(max, axes)))

    @staticmethod
    def hull(boxes: Sequence["BoxNumerators"]) -> "BoxNumerators":
        """The smallest box holding every one of ``boxes``: the box of their
        corners."""
        return BoxNumerators.of_points([(b.q, *end) for b in boxes for end in (b.lo, b.hi)])

    def separating_axis(self, other: "BoxNumerators") -> int | None:
        """The first axis on which the two closed boxes miss each other,
        cross-multiplied; None when they meet."""
        q, r = self.q, other.q
        axis = 0  # counted by hand: enumerate made the test 15% slower
        for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi):
            if b * r < c * q or d * q < a * r:
                return axis
            axis += 1
        return None

    def interval_point(self) -> IntervalPoint:
        q = self.q
        return IntervalPoint([Interval(Fraction(a, q), Fraction(b, q))
                              for a, b in zip(self.lo, self.hi)])


def square_bounds(lo: int, hi: int) -> tuple[int, int]:
    """The ends of ``Interval.square`` of [lo, hi], over the square of its
    denominator."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


def product_bounds(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[int, int]:
    """The ends of [a_lo, a_hi] * [b_lo, b_hi], over the product of their
    denominators."""
    products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(products), max(products)


def quotient_bounds(lo: int, hi: int, den: int,
                    t_lo: int, t_hi: int, t_den: int) -> tuple[int, int, int]:
    """[lo, hi] / den divided by [t_lo, t_hi] / t_den: (a, b, d) with the
    quotient [a, b] / d.  ZeroDivisionError when the divisor holds 0."""
    if t_lo <= 0 <= t_hi:
        raise ZeroDivisionError("interval division by interval containing zero")
    # over the common denominator t_lo t_hi > 0, x / t_lo is x t_hi and x / t_hi is x t_lo
    ends = (lo * t_hi, lo * t_lo, hi * t_hi, hi * t_lo)
    return min(ends) * t_den, max(ends) * t_den, den * t_lo * t_hi


def sqrt_bounds(lo: int, hi: int, k: int, m: int, bits: int) -> tuple[int, int, int]:
    """``interval_sqrt`` of [lo, hi] / (k m^2), 0 <= lo <= hi: (a, b, d)
    with the enclosure [a, b] / d.

    x / (k m^2) is a rational square exactly when x k is an integer square,
    with root isqrt(x k) / (k m).  Any other root lies in [r, r + 1] / 2^bits
    for r = isqrt(floor(x 4^bits / (k m^2))); the floor does not depend on
    how the fraction is written, so these are ``sqrt_enclosure``'s ends."""
    def end(x: int, upper: int) -> tuple[int, int]:
        r = isqrt(x * k)
        if r * r == x * k:
            return r, k * m
        return isqrt((x << 2 * bits) // (k * m * m)) + upper, 1 << bits

    a, a_den = end(lo, 0) if lo > 0 else (0, 1)
    b, b_den = end(hi, 1)
    if a_den == b_den:
        return a, b, a_den
    return a * b_den, b * a_den, a_den * b_den
