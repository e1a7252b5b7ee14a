"""Exact per-simplex geometry: barycentric coordinates and their affine
forms, orthogonal projection onto the affine hull, squared distances to
faces, and the common-face test of two simplices.

A ``SimplexGeometry`` caches the Gram matrix of the edge vectors and its
inverse, which makes every query a couple of exact matrix-vector products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DegenerateSimplex
from .lp import intersection_excess
from .rationals import AffineForm, Vec, dot, gram, invert, norm_sq, vsub

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    def integral(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The forms and the vertices over the integers, for sign tests.

        Form i becomes ``_integer_row(forms[i])`` and vertex j, as p/q with
        one denominator q > 0, becomes (q, p_1, ..., p_n); the sign of form
        i at vertex j, or at any point so written, is that of the integer
        dot product of the two rows.
        """
        return (tuple(_integer_row(f) for f in self.forms),
                tuple(_homogeneous(v) for v in self.vertices))

    def coords_and_height_sq(self, x: Vec) -> tuple[list[Fraction], Fraction]:
        """Barycentric coords of pi(x) and ||x - pi(x)||^2, without pi itself.

        Uses ||x - pi(x)||^2 = ||x - base||^2 - t.r where G t = r.
        """
        diff = vsub(x, self.base)
        if self.d == 0:
            return [_ONE], norm_sq(diff)
        r = [dot(diff, e) for e in self.edges]
        t = [sum(self.gram_inv[j][k] * r[k] for k in range(self.d)) for j in range(self.d)]
        height_sq = norm_sq(diff) - sum(tj * rj for tj, rj in zip(t, r))
        return t + [_ONE - sum(t)], height_sq

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
        bary, h2 = self.coords_and_height_sq(x)
        return h2 == 0 and all(b >= 0 for b in bary)

    def contains_open(self, x: Vec) -> bool:
        bary, h2 = self.coords_and_height_sq(x)
        return h2 == 0 and all(b > 0 for b in bary)

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
    every shared vertex, then ``_shared_face_plane``; every sign is decided
    exactly over the integers.  When no plane separates, the exact LP
    ``intersection_excess`` decides, and it is the only way to answer False.
    """
    (rows1, pts1), (rows2, pts2) = geo1.integral, geo2.integral
    near = [p for i, p in enumerate(pts1) if i not in shared1]
    far = [p for j, p in enumerate(pts2) if j not in shared2]
    for rows, shared, a, b in ((rows1, shared1, near, far), (rows2, shared2, far, near)):
        for i, row in enumerate(rows):
            if i not in shared and _separates(row, a, b):
                return True
    h = _shared_face_plane(geo1, geo2, shared1)
    if h is not None and _separates(_integer_row(h), near, far):
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


def _homogeneous(x: Sequence[Fraction]) -> tuple[int, ...]:
    """(q, p_1, ..., p_n) with x = p/q and q the least common denominator."""
    q = lcm(*(c.denominator for c in x))
    return (q, *(c.numerator * (q // c.denominator) for c in x))


def _integer_row(form: AffineForm) -> tuple[int, ...]:
    """(c0, c_1, ..., c_n) times the least common multiple of their denominators."""
    return _homogeneous((form.c0, *form.c))[1:]


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
