"""Exact per-simplex geometry: barycentric coordinates and their affine
forms, orthogonal projection onto the affine hull, squared distances to
faces, and the common-face test of two simplices.

A ``SimplexGeometry`` inverts the Gram matrix of its edge vectors once, to
build the barycentric forms.  Point queries then run over the integers: the
forms become integer rows over one common denominator and the vertices
integer rows over another (``SimplexGeometry.integral``), a query point is
written once as homogeneous integers (``rationals.homogeneous``), and
``numerators`` returns the barycentric numerators and the height numerator
of the point from a few integer dot products.  Every sign and equality test reads those
integers; Fractions are formed only where a caller needs the values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DegenerateSimplex
from .lp import intersection_excess
from .rationals import AffineForm, Vec, dot, gram, homogeneous, invert, vsub


class IntegerTable(NamedTuple):
    """A simplex's forms and vertices over the integers (``SimplexGeometry.integral``)."""

    rows: tuple[tuple[int, ...], ...]  # form i times d_scale: (c0, c_1, ..., c_n)
    points: tuple[tuple[int, ...], ...]  # vertex j as (v_scale, v_scale * v_j)
    d_scale: int
    v_scale: int
    columns: tuple[tuple[int, ...], ...]  # columns[k][j] = points[j][k + 1]


class SimplexGeometry:
    """Geometry of the simplex spanned by ``vertices`` (affinely independent)."""

    def __init__(self, vertices: Sequence[Vec]):
        self.vertices = tuple(vertices)
        self.d = len(self.vertices) - 1
        self.n = len(self.vertices[0])
        self.base = self.vertices[-1]
        self.edges = [vsub(v, self.base) for v in self.vertices[:-1]]
        if self.d > 0:
            g = gram(self.edges)
            try:
                self.gram_inv = invert(g)
            except ZeroDivisionError:
                raise DegenerateSimplex(f"affinely dependent vertices {self.vertices}")
        else:
            self.gram_inv = []
        self._face_geom: dict[tuple[int, ...], SimplexGeometry] = {}

    @cached_property
    def forms(self) -> tuple[AffineForm, ...]:
        """The barycentric coordinates as affine forms on all of Q^n.

        ``forms[i]`` is 1 at vertex i and 0 at the other vertices, so it
        vanishes on the facet opposite vertex i and is nonnegative on the
        simplex.  The gradient u_i of forms[i] (i < d) is row i of the
        inverse Gram matrix applied to the edges, so it lies in the hull's
        direction space; the last form is 1 minus the sum of the others.
        """
        ginv, edges = self.gram_inv, self.edges
        forms = []
        for i in range(self.d):
            u = tuple(sum(ginv[k][i] * edges[k][c] for k in range(self.d)) for c in range(self.n))
            forms.append(AffineForm(-dot(u, self.base), u))
        last = AffineForm(1 - sum(f.c0 for f in forms),
                          [-sum(f.c[c] for f in forms) for c in range(self.n)])
        return tuple(forms) + (last,)

    @cached_property
    def integral(self) -> IntegerTable:
        """The forms and the vertices as integer rows, built once.

        Form i is ``rows[i] / D`` for one common D > 0, with the constant
        term first, and vertex j is W_j / V for one common V > 0; ``points[j]``
        is (V, W_j).  The sign of form i at vertex j, or at any point (q, p)
        written by ``homogeneous``, is that of the integer dot product of the
        two rows.
        """
        n, size = self.n, self.d + 1
        d_scale, *form_ints = homogeneous([c for f in self.forms for c in (f.c0, *f.c)])
        v_scale, *vertex_ints = homogeneous([c for v in self.vertices for c in v])
        rows = tuple(tuple(form_ints[i * (n + 1):(i + 1) * (n + 1)]) for i in range(size))
        points = tuple((v_scale, *vertex_ints[j * n:(j + 1) * n]) for j in range(size))
        columns = tuple(zip(*(p[1:] for p in points)))
        return IntegerTable(rows, points, d_scale, v_scale, columns)

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
    h = _shared_face_plane(geo1, geo2, shared1)
    if h is not None and _separates(_integer_row(h), near, far):
        return True
    h = _hull_normal_plane(geo1, geo2, shared2)
    if h is not None and _separates(_integer_row(h), far, near):
        return True
    excess = intersection_excess(geo1.vertices, geo2.vertices, shared1, shared2)
    return excess is None or excess == 0


def _separates(row: tuple[int, ...], near: Sequence[tuple[int, ...]],
               far: Sequence[tuple[int, ...]]) -> bool:
    """h >= 0 on near and h <= 0 on far, with no zero on one of the two;
    h and the points as the integer rows of ``SimplexGeometry.integral``."""
    a = [sum(map(mul, row, p)) for p in near]
    b = [sum(map(mul, row, p)) for p in far]
    return (all(x >= 0 for x in a) and all(y <= 0 for y in b)
            and (all(x > 0 for x in a) or all(y < 0 for y in b)))


def _integer_row(form: AffineForm) -> tuple[int, ...]:
    """(c0, c_1, ..., c_n) times the least common multiple of their denominators."""
    return form.row[1:]


def _shared_face_plane(geo1: SimplexGeometry, geo2: SimplexGeometry,
                       shared1: Sequence[int]) -> AffineForm | None:
    """The plane through the shared face whose normal is the difference of
    the two centroids with its component along the face removed; with no
    shared vertex, the plane through the midpoint of the centroids normal
    to their difference.  The form is positive toward the first centroid;
    None when the normal is zero.

    It separates pairs that every barycentric form misses, such as two
    triangles meeting at a vertex with collinear edges through it.
    """
    c1, c2 = (tuple(Fraction(sum(axis), len(g.vertices)) for axis in zip(*g.vertices))
              for g in (geo1, geo2))
    normal = vsub(c1, c2)
    if len(shared1) > 1:
        face = SimplexGeometry([geo1.vertices[i] for i in shared1])
        normal = vsub(normal, vsub(face.project(c1)[0], face.project(c2)[0]))
    if shared1:
        anchor = geo1.vertices[shared1[0]]
    else:
        anchor = tuple((x + y) / 2 for x, y in zip(c1, c2))
    if not any(normal):
        return None
    return AffineForm(-dot(normal, anchor), normal)


def _hull_normal_plane(geo1: SimplexGeometry, geo2: SimplexGeometry,
                       shared2: Sequence[int]) -> AffineForm | None:
    """The plane through the affine hull of the first simplex with normal
    w - pi(w), where w is the centroid of the second simplex's unshared
    vertices and pi the projection onto that hull.  The form is 0 on the
    first simplex and positive at w; None when w lies in the hull, or when
    every vertex of the second simplex is shared.

    When it is positive at every unshared vertex of the second simplex, the
    two meet only in the shared face.  It separates pairs that the other
    planes miss, such as two triangles of R^3 folded at an acute angle
    along a common edge.
    """
    rest = [v for j, v in enumerate(geo2.vertices) if j not in shared2]
    if not rest:
        return None
    w = tuple(Fraction(sum(axis), len(rest)) for axis in zip(*rest))
    normal = vsub(w, geo1.project(w)[0])
    if not any(normal):
        return None
    return AffineForm(-dot(normal, geo1.base), normal)
