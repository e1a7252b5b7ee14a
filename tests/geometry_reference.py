"""The Fraction Gram-inverse route to the barycentric forms, kept verbatim as
the reference for the fraction-free solve of ``saet.geometry``: the Gram
matrix of the edge vectors is inverted in Fractions, form i (i < d) is
row i of the inverse applied to the edges, the last form is 1 minus the
sum of the others, and the integer table is read off the Fraction forms
by ``homogeneous``.  ``ReferenceGeometry`` gives ``forms``, ``integral``
and ``norm_sq``; the package must give equal ones on every simplex.
``shared_face_plane`` and ``hull_normal_plane`` are the glue planes of
``geometry.common_face`` built in Fractions; the package's integer rows
must be positive multiples of theirs.  ``dist_sq``, ``boundary_dist_sq``
and ``hat_lift_membership`` are the projection route to the face
distances and the tube's hat lift: each face projects x to a Fraction
point, and the hat lift measures the boundary distance from the projected
point; the package's integer route must give equal answers."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

from saet.errors import DegenerateSimplex
from saet.geometry import IntegerTable
from saet.rationals import AffineForm, Vec, dot, homogeneous, invert, vec, vsub


def gram(vectors: Sequence[Vec]) -> list[list[Fraction]]:
    return [[dot(u, v) for v in vectors] for u in vectors]


class ReferenceGeometry:
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

    @cached_property
    def forms(self) -> tuple[AffineForm, ...]:
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
        n, size = self.n, self.d + 1
        d_scale, *form_ints = homogeneous([c for f in self.forms for c in (f.c0, *f.c)])
        v_scale, *vertex_ints = homogeneous([c for v in self.vertices for c in v])
        rows = tuple(tuple(form_ints[i * (n + 1):(i + 1) * (n + 1)]) for i in range(size))
        points = tuple((v_scale, *vertex_ints[j * n:(j + 1) * n]) for j in range(size))
        columns = tuple(zip(*(p[1:] for p in points)))
        return IntegerTable(rows, points, d_scale, v_scale, columns)

    @cached_property
    def norm_sq(self) -> tuple[Fraction, ...]:
        """``FaceFunctionals.norm_sq``: the squared norms of the forms' gradients."""
        d, ginv = self.d, self.gram_inv
        ns = [Fraction(ginv[i][i]) for i in range(d)]
        ns.append(sum(ginv[i][j] for i in range(d) for j in range(d)))
        return tuple(ns)


def shared_face_plane(geo1, geo2, shared1: Sequence[int]) -> AffineForm | None:
    """``geometry._shared_face_plane`` on two ``SimplexGeometry`` objects, in Fractions."""
    c1, c2 = (tuple(Fraction(sum(axis), len(g.vertices)) for axis in zip(*g.vertices))
              for g in (geo1, geo2))
    normal = vsub(c1, c2)
    if len(shared1) > 1:
        face = type(geo1)([geo1.vertices[i] for i in shared1])
        normal = vsub(normal, vsub(face.project(c1)[0], face.project(c2)[0]))
    if shared1:
        anchor = geo1.vertices[shared1[0]]
    else:
        anchor = tuple((x + y) / 2 for x, y in zip(c1, c2))
    if not any(normal):
        return None
    return AffineForm(-dot(normal, anchor), normal)


def hull_normal_plane(geo1, geo2, shared2: Sequence[int]) -> AffineForm | None:
    """``geometry._hull_normal_plane`` on two ``SimplexGeometry`` objects, in Fractions."""
    rest = [v for j, v in enumerate(geo2.vertices) if j not in shared2]
    if not rest:
        return None
    w = tuple(Fraction(sum(axis), len(rest)) for axis in zip(*rest))
    normal = vsub(w, geo1.project(w)[0])
    if not any(normal):
        return None
    return AffineForm(-dot(normal, geo1.vertices[-1]), normal)


def dist_sq(geo, x: Vec) -> Fraction:
    """``SimplexGeometry.dist_sq`` by projection: the least squared height
    over the faces whose projection of x has no negative coordinate."""
    best = None
    for size in range(geo.d + 1, 0, -1):
        for idxs in combinations(range(geo.d + 1), size):
            _, bary, h2 = geo.face_geometry(idxs).project(x)
            if all(b >= 0 for b in bary):
                if best is None or h2 < best:
                    best = h2
    return best


def boundary_dist_sq(geo, x: Vec) -> Fraction:
    """``SimplexGeometry.boundary_dist_sq`` by projection: the least
    ``dist_sq`` to a facet."""
    best = None
    for idxs in combinations(range(geo.d + 1), geo.d):
        h2 = dist_sq(geo.face_geometry(idxs), x)
        if best is None or h2 < best:
            best = h2
    return best


def hat_lift_membership(tube, x: Vec) -> bool:
    """``tubes.hat_lift_membership`` by projection: x = pi(x) + t u lies in
    the closed tube when pi(x) lies in the base and
    t^2 <= eps*^2 dist(pi(x), boundary)^2, all in Fractions."""
    pi, bary, height_sq = tube.geometry.project(vec(x))
    if any(b < 0 for b in bary):
        return False
    return height_sq <= tube.eps_star_sq * boundary_dist_sq(tube.geometry, pi)
