"""Exact per-simplex geometry: barycentric coordinates, orthogonal
projection onto the affine hull, and squared distances to faces.

A ``SimplexGeometry`` caches the Gram matrix of the edge vectors and its
inverse, which makes every query a couple of exact matrix-vector products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import DegenerateSimplex
from .rationals import Vec, dot, gram, invert, norm_sq, vsub

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
