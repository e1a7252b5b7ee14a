"""The Fraction Gram-inverse route to the barycentric forms, kept verbatim as
the reference for the fraction-free solve of ``saet.geometry``: the Gram
matrix of the edge vectors is inverted in Fractions, form i (i < d) is
row i of the inverse applied to the edges, the last form is 1 minus the
sum of the others, and the integer table is read off the Fraction forms
by ``homogeneous``.  ``ReferenceGeometry`` gives ``forms``, ``integral``
and ``norm_sq``; the package must give equal ones on every simplex.
``shared_face_plane`` and ``hull_normal_plane`` are the glue planes of
``geometry.common_face`` built in Fractions; the package's integer rows
must be positive multiples of theirs."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from saet.errors import DegenerateSimplex
from saet.geometry import IntegerTable
from saet.rationals import AffineForm, Vec, dot, homogeneous, invert, vsub


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
