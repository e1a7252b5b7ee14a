"""Exact per-simplex geometry: barycentric coordinates and their affine
forms, orthogonal projection onto the affine hull, squared distances to
faces, and the common-face test of two simplices.

A ``SimplexGeometry`` builds its barycentric forms over the integers, with
one fraction-free solve (``barycentric_table``): the vertices are written
once as integer points over one common denominator, and one reduction of
the integer block [E E^T | E] of their edges E gives each form as an
integer row over one common denominator (``SimplexGeometry.integral``).
Point queries run on the same integers: a query point is written once as
homogeneous integers (``rationals.homogeneous``), and ``numerators``
returns the barycentric numerators and the height numerator of the point
from a few integer dot products.  Every sign and equality test reads those
integers; Fractions are formed only where a caller needs the values, as in
``forms``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul, sub
from typing import NamedTuple, Sequence

from .errors import DegenerateSimplex
from .lp import intersection_excess
from .rationals import AffineForm, Vec, _rref, homogeneous, vec, vsub


class IntegerTable(NamedTuple):
    """A simplex's forms and vertices over the integers (``SimplexGeometry.integral``).

    Form i is ``rows[i] / D`` for one common D > 0, with the constant term
    first, and vertex j is W_j / V for one common V > 0; ``points[j]`` is
    (V, W_j).  The sign of form i at vertex j, or at any point (q, p)
    written by ``homogeneous``, is that of the integer dot product of the
    two rows.
    """

    rows: tuple[tuple[int, ...], ...]  # form i times d_scale: (c0, c_1, ..., c_n)
    points: tuple[tuple[int, ...], ...]  # vertex j as (v_scale, v_scale * v_j)
    d_scale: int
    v_scale: int
    columns: tuple[tuple[int, ...], ...]  # columns[k][j] = points[j][k + 1]


def barycentric_table(vertices: Sequence[Vec]) -> IntegerTable:
    """The barycentric forms and the vertices of a simplex as integer rows,
    from one fraction-free solve (Bareiss, Math. Comp. 22, 1968).

    The vertices are written once over one common V > 0, W_j = V v_j, with
    edges E_k = W_k - W_d (k < d).  ``_rref`` reduces the integer block
    [E E^T | E]; row i then has the positive entry p_i in column i and the
    integer row R_i after the block, and R_i / p_i is row i of
    (E E^T)^-1 E.  So form i (i < d) is (V R_i . x - R_i . W_d) / p_i,
    which is 1 at vertex i and 0 at the others.  Over L = lcm(p_i) each of
    these forms is an integer row and the last is L minus their sum;
    dividing every row and L by the gcd of all entries leaves the least
    common denominator D.  Raises DegenerateSimplex when the edges are
    linearly dependent.
    """
    n, d = len(vertices[0]), len(vertices) - 1
    v_scale, *ints = homogeneous([c for v in vertices for c in v])
    points = tuple((v_scale, *ints[j * n:(j + 1) * n]) for j in range(d + 1))
    base = points[-1][1:]
    edges = [list(map(sub, p[1:], base)) for p in points[:-1]]
    block = [[sum(map(mul, e, f)) for f in edges] + e for e in edges]
    if _rref(block, d) < d:
        raise DegenerateSimplex(f"affinely dependent vertices {tuple(vertices)}")
    lead = lcm(*(row[i] for i, row in enumerate(block)))
    rows = []
    for i, row in enumerate(block):
        s, r = lead // row[i], row[d:]
        rows.append([-s * sum(map(mul, r, base)), *(s * v_scale * c for c in r)])
    totals = [sum(col) for col in zip(*rows)] if rows else [0] * (n + 1)
    rows.append([lead - totals[0], *(-t for t in totals[1:])])
    g = gcd(*(c for row in rows for c in row))
    return IntegerTable(tuple(tuple(c // g for c in row) for row in rows), points,
                        lead // g, v_scale, tuple(zip(*(p[1:] for p in points))))


class SimplexGeometry:
    """Geometry of the simplex spanned by ``vertices`` (affinely independent).

    The coordinates are coerced by ``rationals.vec``, so floats and
    booleans raise TypeError; vertices of different lengths raise
    ValueError and affinely dependent ones DegenerateSimplex.
    """

    def __init__(self, vertices: Sequence[Vec]):
        self.vertices = tuple(vec(v) for v in vertices)
        self.d = len(self.vertices) - 1
        self.n = len(self.vertices[0])
        if any(len(v) != self.n for v in self.vertices):
            raise ValueError(f"vertices of different dimensions: {self.vertices}")
        self.integral = barycentric_table(self.vertices)
        self._face_geom: dict[tuple[int, ...], SimplexGeometry] = {}

    @cached_property
    def edges(self) -> list[Vec]:
        """The edge vectors v_k - v_d, k < d."""
        return [vsub(v, self.vertices[-1]) for v in self.vertices[:-1]]

    @cached_property
    def forms(self) -> tuple[AffineForm, ...]:
        """The barycentric coordinates as affine forms on all of Q^n.

        ``forms[i]`` is 1 at vertex i and 0 at the other vertices, so it
        vanishes on the facet opposite vertex i and is nonnegative on the
        simplex.  Its gradient lies in the hull's direction space, and the
        forms sum to 1.  They are row i of ``integral`` over its D.
        """
        d_scale = self.integral.d_scale
        return tuple(AffineForm(Fraction(row[0], d_scale), [Fraction(c, d_scale) for c in row[1:]])
                     for row in self.integral.rows)

    def numerators(self, h: Sequence[int]) -> tuple[list[int], int]:
        """Integer numerators of the point x = p/q given as h = (q, p_1, ..., p_n).

        Returns N with N_i = rows_i . h = D q lambda_i(x), the barycentric
        coordinates of the projection pi(x) onto the affine hull, and
        H = ||p D V - sum_i N_i W_i||^2 = (D q V)^2 ||x - pi(x)||^2.  The N_i
        have the signs of the coordinates and sum to D q, and H is 0 exactly
        when x lies in the hull; a full-dimensional simplex (d = n) has
        H = 0 without work.
        """
        table = self.integral
        nums = [sum(map(mul, row, h)) for row in table.rows]
        if self.d == self.n:
            return nums, 0
        dv = table.d_scale * table.v_scale
        return nums, sum((dv * p - sum(map(mul, nums, col))) ** 2
                         for p, col in zip(h[1:], table.columns))

    def offset(self, h: Sequence[int]) -> list[int]:
        """The integer vector p D V - sum_i N_i W_i = D q V (x - pi(x)) of
        ``numerators`` at the point x = p/q given as h = (q, p_1, ..., p_n):
        a positive multiple of x minus its projection onto the affine hull."""
        table = self.integral
        nums = [sum(map(mul, row, h)) for row in table.rows]
        dv = table.d_scale * table.v_scale
        return [dv * p - sum(map(mul, nums, col)) for p, col in zip(h[1:], table.columns)]

    def coords_and_height_sq(self, x: Vec) -> tuple[list[Fraction], Fraction]:
        """Barycentric coords of pi(x) and ||x - pi(x)||^2, from ``numerators``."""
        h = homogeneous(x)
        nums, height = self.numerators(h)
        table = self.integral
        dq = table.d_scale * h[0]
        return [Fraction(v, dq) for v in nums], Fraction(height, (dq * table.v_scale) ** 2)

    def project(self, x: Vec) -> tuple[Vec, list[Fraction], Fraction]:
        """Orthogonal projection onto the affine hull.

        Returns (pi(x), barycentric coords of pi(x), ||x - pi(x)||^2).
        """
        bary, height_sq = self.coords_and_height_sq(x)
        pi = self.point_at(bary)
        return pi, bary, height_sq

    def barycentric(self, x: Vec) -> list[Fraction] | None:
        """Barycentric coordinates when x lies in the affine hull, else None."""
        bary, h2 = self.coords_and_height_sq(x)
        return bary if h2 == 0 else None

    def point_at(self, bary: Sequence[Fraction]) -> Vec:
        return tuple(
            sum(b * v[k] for b, v in zip(bary, self.vertices, strict=True))
            for k in range(self.n)
        )

    def contains(self, x: Vec) -> bool:
        """Exact membership in the closed simplex."""
        nums, height = self.numerators(homogeneous(x))
        return not height and all(v >= 0 for v in nums)

    def contains_open(self, x: Vec) -> bool:
        nums, height = self.numerators(homogeneous(x))
        return not height and all(v > 0 for v in nums)

    def face_geometry(self, idxs: tuple[int, ...]) -> "SimplexGeometry":
        geo = self._face_geom.get(idxs)
        if geo is None:
            geo = SimplexGeometry([self.vertices[i] for i in idxs])
            self._face_geom[idxs] = geo
        return geo

    def dist_sq(self, x: Vec) -> Fraction:
        """Exact squared distance from x to the closed simplex."""
        best = None
        for size in range(self.d + 1, 0, -1):
            for idxs in combinations(range(self.d + 1), size):
                geo = self.face_geometry(idxs)
                _, bary, h2 = geo.project(x)
                if all(b >= 0 for b in bary):
                    if best is None or h2 < best:
                        best = h2
        assert best is not None  # the nearest point lies in some face
        return best

    def boundary_dist_sq(self, x: Vec) -> Fraction:
        """Exact squared distance from x to the boundary (union of facets)."""
        assert self.d >= 1, "a point has empty boundary"
        best = None
        for idxs in combinations(range(self.d + 1), self.d):
            h2 = self.face_geometry(idxs).dist_sq(x)
            if best is None or h2 < best:
                best = h2
        return best


def common_face(geo1: SimplexGeometry, geo2: SimplexGeometry,
                shared1: Sequence[int], shared2: Sequence[int]) -> bool:
    """Whether two closed simplices meet exactly in the face spanned by
    their shared vertices, the empty set when none is shared.

    ``shared1[k]`` and ``shared2[k]`` are the positions of one shared vertex
    in each.  True is first proved by a plane, without an LP: an affine h
    that is >= 0 at the vertices of one simplex, <= 0 at those of the other
    and 0 at the shared ones, and that vanishes at no unshared vertex of one
    of the two, say the second.  On the intersection h is then 0, so the
    intersection lies in the face of the second spanned by its zero
    vertices, which are the shared ones; and their span lies in both.  The
    planes tried are the barycentric forms of either simplex that vanish at
    every shared vertex, then ``_shared_face_plane``, then
    ``_hull_normal_plane``, which is 0 on all of the first simplex; every
    sign is decided exactly over the integers.  When no plane separates,
    the exact LP ``intersection_excess`` decides, and it is the only way to
    answer False.
    """
    table1, table2 = geo1.integral, geo2.integral
    near = [p for i, p in enumerate(table1.points) if i not in shared1]
    far = [p for j, p in enumerate(table2.points) if j not in shared2]
    for rows, shared, a, b in ((table1.rows, shared1, near, far),
                               (table2.rows, shared2, far, near)):
        for i, row in enumerate(rows):
            if i not in shared and _separates(row, a, b):
                return True
    row = _shared_face_plane(geo1, geo2, shared1)
    if row is not None and _separates(row, near, far):
        return True
    row = _hull_normal_plane(geo1, geo2, shared2)
    if row is not None and _separates(row, far, near):
        return True
    excess = intersection_excess(geo1.vertices, geo2.vertices, shared1, shared2)
    return excess is None or excess == 0


def _separates(row: tuple[int, ...], near: Sequence[tuple[int, ...]],
               far: Sequence[tuple[int, ...]]) -> bool:
    """h >= 0 on near and h <= 0 on far, with no zero on one of the two;
    h and the points as the integer rows of ``SimplexGeometry.integral``,
    or any positive multiples of them."""
    a = [sum(map(mul, row, p)) for p in near]
    b = [sum(map(mul, row, p)) for p in far]
    return (all(x >= 0 for x in a) and all(y <= 0 for y in b)
            and (all(x > 0 for x in a) or all(y < 0 for y in b)))


def _centroid(points: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The centroid of integer points (V, W_j) of one V, as an integer point."""
    return (len(points) * points[0][0], *map(sum, zip(*(p[1:] for p in points))))


def _plane_row(normal: Sequence[int], anchor: Sequence[int]) -> tuple[int, ...]:
    """The integer row of x -> normal . (x - a), for a written as (q, p):
    q times the form, (-normal . p, q normal)."""
    q, *p = anchor
    return (-sum(map(mul, normal, p)), *(q * c for c in normal))


def _shared_face_plane(geo1: SimplexGeometry, geo2: SimplexGeometry,
                       shared1: Sequence[int]) -> tuple[int, ...] | None:
    """The plane through the shared face whose normal is the difference of
    the two centroids with its component along the face removed; with no
    shared vertex, the plane through the midpoint of the centroids normal
    to their difference.  Returns a positive multiple of the integer row of
    the form, which is positive toward the first centroid; None when the
    normal is zero.

    It separates pairs that every barycentric form misses, such as two
    triangles meeting at a vertex with collinear edges through it.  With
    the centroids c_k written as (q_k, A_k), the normal is q_2 a_1 - q_1 a_2,
    where a_k = A_k, or the face's ``offset`` at c_k, a positive multiple
    s q_k (c_k - pi(c_k)) of c_k minus its projection onto the face.
    """
    points1 = geo1.integral.points
    h1, h2 = _centroid(points1), _centroid(geo2.integral.points)
    if len(shared1) > 1:
        face = SimplexGeometry([geo1.vertices[i] for i in shared1])
        a1, a2 = face.offset(h1), face.offset(h2)
    else:
        a1, a2 = h1[1:], h2[1:]
    normal = [h2[0] * x - h1[0] * y for x, y in zip(a1, a2)]
    if not any(normal):
        return None
    if shared1:
        anchor = points1[shared1[0]]
    else:
        anchor = (2 * h1[0] * h2[0], *(h2[0] * x + h1[0] * y for x, y in zip(h1[1:], h2[1:])))
    return _plane_row(normal, anchor)


def _hull_normal_plane(geo1: SimplexGeometry, geo2: SimplexGeometry,
                       shared2: Sequence[int]) -> tuple[int, ...] | None:
    """The plane through the affine hull of the first simplex with normal
    w - pi(w), where w is the centroid of the second simplex's unshared
    vertices and pi the projection onto that hull.  Returns a positive
    multiple of the integer row of the form, which is 0 on the first simplex
    and positive at w; None when w lies in the hull, or when every vertex of
    the second simplex is shared.

    When it is positive at every unshared vertex of the second simplex, the
    two meet only in the shared face.  It separates pairs that the other
    planes miss, such as two triangles of R^3 folded at an acute angle
    along a common edge.
    """
    rest = [p for j, p in enumerate(geo2.integral.points) if j not in shared2]
    if not rest:
        return None
    normal = geo1.offset(_centroid(rest))
    if not any(normal):
        return None
    return _plane_row(normal, geo1.integral.points[-1])
