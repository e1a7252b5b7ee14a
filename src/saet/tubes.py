"""Tubular neighborhoods of open simplices with exact rational membership.

A tube around a base simplex tau with parameter eps consists of the points
whose distance to tau is at most eps times their distance to the boundary
of tau.  With s := eps^2 rational all membership decisions reduce to exact
comparisons: the ratio condition is equivalent (inside the orthogonal
cylinder over tau) to  ||x - pi(x)||^2 * ||u_i||^2 <= eps*^2 * f_i(pi(x))^2
for every facet functional, where eps*^2 = eps^2/(1 - eps^2).
``membership`` decides it over the integers: with the barycentric
numerators N_i and the height numerator H of ``SimplexGeometry.numerators``
it reads H a_i <= c_i N_i^2, for integers a_i and c_i fixed once per tube.

Two independent evaluation routes are provided on purpose:

* ``membership`` goes through the projection and facet functionals;
* ``hat_lift_membership`` evaluates the hat-simplex predicate
  0 <= t <= eps* dist(pi(x), boundary) with the boundary distance computed
  as an exact minimum of squared distances to the facet polytopes.

Their agreement on every rational point is the content of the lifting
lemma for tubes and is tested exhaustively on samples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import metric
from .geometry import SimplexGeometry
from .intervals import BoxNumerators
from .metric import FaceFunctionals
from .rationals import Vec, homogeneous, vec

INSIDE_OPEN = "InsideOpen"
ON_BOUNDARY = "OnBoundary"
OUTSIDE = "Outside"


class Tube:
    """Closed/open tubular neighborhood of the open cell of a simplex.

    ``vertices`` spans the base (dimension >= 1); ``eps_sq`` is the exact
    rational square of the width parameter, 0 < eps_sq < 1.
    """

    def __init__(self, vertices: Sequence[Vec], eps_sq):
        self.vertices = tuple(vec(v) for v in vertices)
        if len(self.vertices) < 2:
            raise ValueError("tube bases must have dimension >= 1; use VertexBall")
        self.eps_sq = Fraction(eps_sq)
        if not 0 < self.eps_sq < 1:
            raise ValueError("eps^2 must lie in (0, 1)")
        self.eps_star_sq = self.eps_sq / (1 - self.eps_sq)
        self.ff = FaceFunctionals(self.vertices)
        self.geometry = self.ff.geometry
        self.dim = self.geometry.d

    @cached_property
    def weights(self) -> tuple[tuple[int, int], ...]:
        """(a_i, c_i) with H a_i <= c_i N_i^2 the facet-i inequality on the
        numerators of ``SimplexGeometry.numerators``.

        With height^2 = H / (D q V)^2 and f_i(pi(x)) = N_i / (D q), the
        inequality height^2 ||u_i||^2 <= eps*^2 f_i^2 reads
        H ||u_i||^2 <= eps*^2 V^2 N_i^2; both sides are cleared of the
        denominators of ||u_i||^2 and eps*^2.
        """
        e = self.eps_star_sq
        v_sq = self.geometry.integral.v_scale ** 2
        return tuple((nsq.numerator * e.denominator, e.numerator * v_sq * nsq.denominator)
                     for nsq in self.ff.norm_sq)

    def shrink_half(self) -> "Tube":
        """The tube at half the width parameter (eps/2, exact)."""
        return Tube(self.vertices, self.eps_sq / 4)

    def project(self, x: Vec):
        return self.geometry.project(vec(x))

    def __repr__(self):
        return f"Tube(dim={self.dim}, eps_sq={self.eps_sq})"


def tube_status(tube: Tube, nums: Sequence[int], height: int) -> str:
    """A tube's ``membership`` at a point given by its numerators N and H under
    ``SimplexGeometry.numerators``: outside when some N_i < 0 or some
    H a_i > c_i N_i^2, on the boundary when some H a_i = c_i N_i^2."""
    if any(v < 0 for v in nums):
        return OUTSIDE
    boundary = False
    for v, (a, c) in zip(nums, tube.weights, strict=True):
        lhs = height * a
        rhs = c * v * v
        if lhs > rhs:
            return OUTSIDE
        if lhs == rhs:
            boundary = True
    return ON_BOUNDARY if boundary else INSIDE_OPEN


def hat_lift_membership(tube: Tube, x: Vec) -> bool:
    """Closed-tube membership through the hat-simplex predicate.

    Evaluates 0 <= t <= eps* dist(pi(x), boundary(tau)) in squared form,
    with dist computed by exact projection onto the facet polytopes (not
    via the facet functionals).  Must agree with membership != Outside
    on every rational point.
    """
    x = vec(x)
    pi, bary, height_sq = tube.project(x)
    if any(b < 0 for b in bary):
        return False
    bdist_sq = tube.geometry.boundary_dist_sq(pi)
    return height_sq <= tube.eps_star_sq * bdist_sq


class VertexBall:
    """Closed ball around a complex vertex, the dimension-0 tube analog."""

    def __init__(self, center: Vec, radius_sq):
        self.center = vec(center)
        self.radius_sq = Fraction(radius_sq)
        if self.radius_sq <= 0:
            raise ValueError("radius^2 must be positive")
        self.vertices = (self.center,)
        self.dim = 0
        self.geometry = SimplexGeometry(self.vertices)

    def shrink_half(self) -> "VertexBall":
        return VertexBall(self.center, self.radius_sq / 4)

    def __repr__(self):
        return f"VertexBall(center={self.center}, radius_sq={self.radius_sq})"


def membership(tube_or_ball, x: Vec) -> str:
    """Exact trichotomy for the closed/open tube or ball at the rational
    point x: INSIDE_OPEN, ON_BOUNDARY or OUTSIDE."""
    return membership_h(tube_or_ball, homogeneous(vec(x)))


def membership_h(tube_or_ball, h: Sequence[int]) -> str:
    """``membership`` at the point h = (q, p_1, ..., p_n), x = p / q with
    q > 0, over the integers.  A tube reads ``tube_status``; for a ball the
    height numerator of the center's kernel is (D q V)^2 ||x - center||^2.
    Every test is homogeneous in (q, p), so h need not be in lowest terms."""
    if not isinstance(tube_or_ball, VertexBall):
        return tube_status(tube_or_ball, *tube_or_ball.geometry.numerators(h))
    _, height = tube_or_ball.geometry.numerators(h)
    table, r_sq = tube_or_ball.geometry.integral, tube_or_ball.radius_sq
    lhs = height * r_sq.denominator
    rhs = r_sq.numerator * (table.d_scale * h[0] * table.v_scale) ** 2
    if lhs > rhs:
        return OUTSIDE
    return ON_BOUNDARY if lhs == rhs else INSIDE_OPEN


def reach_bounds(tube_or_ball) -> BoxNumerators:
    """A box that holds the closed tube or ball: ``metric.reach_bounds`` of
    its vertices at its eps^2, a ball's radius^2 standing for eps^2."""
    ball = isinstance(tube_or_ball, VertexBall)
    eps_sq = tube_or_ball.radius_sq if ball else tube_or_ball.eps_sq
    return metric.reach_bounds([homogeneous(v) for v in tube_or_ball.vertices], eps_sq)
