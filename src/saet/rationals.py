"""Exact rational scalars, vectors and small dense linear algebra.

Everything in this module is exact: inputs and outputs are
``fractions.Fraction`` and no operation ever rounds.  It holds the one
Gauss–Jordan step ``pivot`` of the package: ``solve``, ``invert`` and
``rank`` reduce through it, and so does the simplex tableau of ``lp``.
``rational_sqrt`` is the exact square root on perfect rational squares.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
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


def pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss–Jordan step, in place: scale row r so that rows[r][c] == 1,
    then clear column c from every other row."""
    inv = 1 / rows[r][c]
    prow = rows[r] = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [x - f * y for x, y in zip(row, prow)]


def _rref(rows: list[list[Fraction]], ncols: int) -> int:
    """Reduce rows in place to reduced row echelon form over their first
    ncols columns, pivoting on the first nonzero entry; return the rank."""
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


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square nonsingular system exactly by Gauss–Jordan elimination."""
    n = len(matrix)
    a = [list(row) + [r] for row, r in zip(matrix, rhs, strict=True)]
    if _rref(a, n) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n] for row in a]


def invert(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square nonsingular matrix."""
    n = len(matrix)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    if _rref(a, n) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a list of row vectors."""
    a = [list(r) for r in rows]
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


def gram(vectors: Sequence[Vec]) -> list[list[Fraction]]:
    return [[dot(u, v) for v in vectors] for u in vectors]


def affinely_independent(points: Sequence[Vec]) -> bool:
    if len(points) <= 1:
        return True
    edges = [vsub(p, points[0]) for p in points[1:]]
    return rank(edges) == len(edges)


class AffineForm:
    """An affine function c0 + <c, x> on Q^n with exact coefficients."""

    __slots__ = ("c0", "c")

    def __init__(self, c0, c: Iterable):
        self.c0 = rat(c0)
        self.c = vec(c)

    def __call__(self, x: Vec) -> Fraction:
        return self.c0 + dot(self.c, x)

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

    def gradient(self) -> Vec:
        return self.c

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
