"""Exact rational scalars, vectors and small dense linear algebra.

Everything in this module is exact: inputs and outputs are
``fractions.Fraction`` and no operation ever rounds.  It holds the one
elimination step ``pivot`` of the package, which works on rows of Python
ints: each row stands for a positive multiple of a rational row, and the
step clears a column by integer cross-multiplication and a gcd, with no
division of values (fraction-free Gauss–Jordan).  ``solve``, ``invert`` and
``rank`` scale each row by the least common multiple of its denominators
(``homogeneous``), reduce through ``_rref`` and read Fractions off the
reduced rows; the simplex tableau of ``lp`` pivots through the same step,
and ``geometry.barycentric_table`` solves for a simplex's barycentric
forms with one ``_rref`` on integer rows.  ``invert`` is a public function
that no module of the package calls.
``rational_sqrt`` is the exact square root on perfect rational squares.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact Fraction.

    bool is refused although it is an int: a coordinate ``true`` is a type
    error, not the number 1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"booleans are not accepted as rationals: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass Fractions, ints or 'p/q' strings")
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(x: Fraction) -> str:
    """Serialize a Fraction as "p/q" in lowest terms ("p" when integral)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(coords: Iterable) -> Vec:
    return tuple(rat(c) for c in coords)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def norm_sq(a: Vec) -> Fraction:
    return dot(a, a)


def dist_sq(a: Vec, b: Vec) -> Fraction:
    return norm_sq(vsub(a, b))


def homogeneous(x: Sequence[Fraction]) -> tuple[int, ...]:
    """(q, p_1, ..., p_n) with x = p/q and q the least common denominator."""
    q = lcm(*(c.denominator for c in x))
    return (q, *(c.numerator * (q // c.denominator) for c in x))


def pivot(rows: list[list[int]], r: int, c: int) -> None:
    """One fraction-free Gauss–Jordan step on integer rows, in place.

    Each row is a positive multiple of the rational row it stands for.  Row
    r is made positive at column c; every other row with a nonzero entry f
    in column c becomes p*row - f*rows[r] (p = rows[r][c]), which is 0 in
    column c.  Each touched row is divided by the gcd of its entries, so
    every row stays a positive multiple of the Fraction Gauss–Jordan row
    (pivot row scaled to 1 at c) and entries stay small.
    """
    prow = rows[r]
    g = gcd(*prow) if prow[c] > 0 else -gcd(*prow)
    if g != 1:
        prow = rows[r] = [x // g for x in prow]
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            row = [p * x - f * y for x, y in zip(row, prow)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row


def _rref(rows: list[list[int]], ncols: int) -> int:
    """Reduce integer rows in place to reduced row echelon form over their
    first ncols columns (up to a positive factor per row), pivoting on the
    first nonzero entry; return the rank."""
    rk = 0
    for c in range(ncols):
        if rk == len(rows):
            break
        p = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[rk], rows[p] = rows[p], rows[rk]
        pivot(rows, rk, c)
        rk += 1
    return rk


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row coerced by ``rat`` and scaled by the lcm of its denominators.

    Raises ValueError when the rows differ in length."""
    out = [list(homogeneous([rat(x) for x in row])[1:]) for row in rows]
    if any(len(row) != len(out[0]) for row in out):
        raise ValueError("rows of different lengths")
    return out


def _order(matrix: Sequence[Sequence]) -> int:
    """The order n of a square matrix; ValueError when it is not square."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"expected a square matrix of {n} rows")
    return n


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square nonsingular system exactly."""
    n = _order(matrix)
    if len(rhs) != n:
        raise ValueError(f"right-hand side of length {len(rhs)} for {n} equations")
    a = _integer_rows([list(row) + [r] for row, r in zip(matrix, rhs)])
    if _rref(a, n) < n:
        raise ZeroDivisionError("singular matrix")
    return [Fraction(row[n], row[i]) for i, row in enumerate(a)]


def invert(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square nonsingular matrix."""
    n = _order(matrix)
    a = _integer_rows([list(row) + [int(i == j) for j in range(n)]
                       for i, row in enumerate(matrix)])
    if _rref(a, n) < n:
        raise ZeroDivisionError("singular matrix")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(a)]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a list of row vectors."""
    a = _integer_rows(rows)
    return _rref(a, len(a[0])) if a else 0


def rational_sqrt(x: Fraction) -> Fraction | None:
    """The exact square root of x when it is rational, else None."""
    num, den = x.numerator, x.denominator
    if num < 0:
        return None
    pn = isqrt(num)
    if pn * pn != num:
        return None
    pd = isqrt(den)
    return Fraction(pn, pd) if pd * pd == den else None


def affinely_independent(points: Sequence[Vec]) -> bool:
    if len(points) <= 1:
        return True
    edges = [vsub(p, points[0]) for p in points[1:]]
    return rank(edges) == len(edges)


class AffineForm:
    """An affine function c0 + <c, x> on Q^n with exact coefficients.

    ``row`` is the same form over the integers, (D, r0, r1, ..., rn) with
    form = (r0 + <r, x>) / D and D > 0 the least common denominator, built
    on first use.  At a point written by ``homogeneous`` as h = (q, p), the
    value is (r0 q + <r, p>) / (D q), so its numerator is the dot product of
    ``row[1:]`` with h.
    """

    __slots__ = ("c0", "c", "_row")

    def __init__(self, c0, c: Iterable):
        self.c0 = rat(c0)
        self.c = vec(c)
        self._row = None

    def __call__(self, x: Vec) -> Fraction:
        return self.c0 + dot(self.c, x)

    @property
    def row(self) -> tuple[int, ...]:
        if self._row is None:
            self._row = homogeneous((self.c0, *self.c))
        return self._row

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineForm) and self.c0 == other.c0 and self.c == other.c

    def __hash__(self):
        return hash((self.c0, self.c))

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(self.c0 + other.c0, vadd(self.c, other.c))

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(self.c0 - other.c0, vsub(self.c, other.c))

    def scale(self, k) -> "AffineForm":
        k = rat(k)
        return AffineForm(k * self.c0, vscale(k, self.c))

    def is_zero(self) -> bool:
        return self.c0 == 0 and all(x == 0 for x in self.c)

    def is_constant(self) -> bool:
        return all(x == 0 for x in self.c)

    def __repr__(self):
        terms = [rat_str(self.c0)]
        terms += [f"{rat_str(ci)}*x{i}" for i, ci in enumerate(self.c) if ci != 0]
        return "AffineForm(" + " + ".join(terms) + ")"

    @staticmethod
    def constant(value, n: int) -> "AffineForm":
        return AffineForm(value, [0] * n)

    @staticmethod
    def coordinate(i: int, n: int) -> "AffineForm":
        return AffineForm(0, [int(j == i) for j in range(n)])
