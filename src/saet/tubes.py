"""Tubular neighborhoods of open simplices with exact rational membership.

A tube around a base simplex tau with parameter eps consists of the points
whose distance to tau is at most eps times their distance to the boundary
of tau.  With s := eps^2 rational all membership decisions reduce to exact
comparisons: the ratio condition is equivalent (inside the orthogonal
cylinder over tau) to  ||x - pi(x)||^2 * ||u_i||^2 <= eps*^2 * f_i(pi(x))^2
for every facet functional, where eps*^2 = eps^2/(1 - eps^2).
``tube_membership`` decides it over the integers: with the barycentric
numerators N_i and the height numerator H of ``SimplexGeometry.numerators``
it reads H a_i <= c_i N_i^2, for integers a_i and c_i fixed once per tube.

Two independent evaluation routes are provided on purpose:

* ``tube_membership`` goes through the projection and facet functionals;
* ``hat_lift_membership`` evaluates the hat-simplex predicate
  0 <= t <= eps* dist(pi(x), boundary) with the boundary distance computed
  as an exact minimum of squared distances to the facet polytopes.

Their agreement on every rational point is the content of the lifting
lemma for tubes and is tested exhaustively on samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InPlane, NotAFace
from .geometry import SimplexGeometry, homogeneous
from .intervals import Interval, IntervalPoint, interval_sqrt, sqrt_enclosure
from .metric import FaceFunctionals, incenter
from .rationals import Vec, vec, vsub

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

    def on_base_boundary(self, x: Vec) -> bool:
        """Exact test for x in the boundary of the base simplex."""
        nums, height = self.geometry.numerators(homogeneous(vec(x)))
        return not height and all(v >= 0 for v in nums) and 0 in nums

    def incenter(self, target_width=Fraction(1, 2**60)):
        return incenter(self.vertices, target_width)

    def __repr__(self):
        return f"Tube(dim={self.dim}, eps_sq={self.eps_sq})"


def tube_membership(tube: Tube, x: Vec) -> str:
    """Exact trichotomy for the closed/open tube via facet functionals."""
    nums, height = tube.geometry.numerators(homogeneous(vec(x)))
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
    via the facet functionals).  Must agree with tube_membership != Outside
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


def ball_membership(ball: VertexBall, x: Vec) -> str:
    """Exact trichotomy for the closed/open ball over the integers: the
    height numerator of the center's kernel is (D q V)^2 ||x - center||^2."""
    h = homogeneous(vec(x))
    _, height = ball.geometry.numerators(h)
    table, r_sq = ball.geometry.integral, ball.radius_sq
    lhs = height * r_sq.denominator
    rhs = r_sq.numerator * (table.d_scale * h[0] * table.v_scale) ** 2
    if lhs > rhs:
        return OUTSIDE
    return ON_BOUNDARY if lhs == rhs else INSIDE_OPEN


def membership(tube_or_ball, x: Vec) -> str:
    if isinstance(tube_or_ball, VertexBall):
        return ball_membership(tube_or_ball, x)
    return tube_membership(tube_or_ball, x)


@dataclass
class HatSimplex:
    """The lifted simplex over the base: cone to (p_tau, eps* inradius)."""

    base_vertices: tuple[Vec, ...]
    apex_base: IntervalPoint  # enclosure of the incenter
    apex_height: Interval  # enclosure of eps* * inradius


def hat_simplex(tube: Tube, target_width=Fraction(1, 2**60)) -> HatSimplex:
    p, r = tube.incenter(target_width)
    eps_star = interval_sqrt(Interval(tube.eps_star_sq, tube.eps_star_sq), bits=80)
    return HatSimplex(tube.vertices, p, eps_star * r)


@dataclass
class CrossSection:
    """Closed tube sliced by the half-plane through the base and a point.

    The slice is the simplex spanned by the base and the apex; the apex is
    returned as a certified enclosure (its height above the base hull is
    eps* times the inradius, an irrational quantity in general).
    """

    base_vertices: tuple[Vec, ...]
    apex: IntervalPoint
    apex_height: Interval


def cross_section(tube: Tube, p: Vec, target_width=Fraction(1, 2**40)) -> CrossSection:
    """Slice of the closed tube by the half-plane of aff(tau) and p."""
    p = vec(p)
    pi, _, height_sq = tube.project(p)
    if height_sq == 0:
        raise InPlane("point lies in the affine hull of the base")
    normal = vsub(p, pi)
    bits = 64
    while True:
        inc, r = tube.incenter(Fraction(1, 1 << bits))
        eps_star = interval_sqrt(Interval(tube.eps_star_sq), bits=bits)
        inv_len = 1 / interval_sqrt(Interval(height_sq), bits=bits)
        scale = eps_star * r * inv_len
        apex = inc + IntervalPoint([scale * c for c in normal])
        height = eps_star * r
        if apex.width <= target_width and height.width <= target_width:
            return CrossSection(tube.vertices, apex, height)
        bits *= 2


def _random_bary(rng: random.Random, k: int, denom: int = 64) -> list[Fraction]:
    weights = [Fraction(rng.randint(1, denom)) for _ in range(k)]
    total = sum(weights)
    return [w / total for w in weights]


def _box_misses(sigma_geo: SimplexGeometry, corners: Sequence[Vec]) -> bool:
    """Exact proof that the box with these corners misses sigma, for a box
    around a point of aff(sigma): one barycentric coordinate is negative at
    every corner.

    The coordinate (of the orthogonal projection onto aff(sigma), which is
    the point itself on the hull) is affine, so its maximum over the box is
    at a corner; negative there, it is negative on the whole box.  Corners
    that are merely all outside sigma prove nothing: the box may straddle it.
    """
    coords = [sigma_geo.coords_and_height_sq(c)[0] for c in corners]
    return any(all(b[k] < 0 for b in coords) for k in range(len(coords[0])))


def slice_containment_check(
    tube: Tube,
    sigma_vertices: Sequence[Vec],
    samples: int = 100,
    seed: int = 0,
    max_bits: int = 512,
) -> dict:
    """Sampling check that tube slices through a cofacet stay inside it.

    The base must be a face of sigma.  For each random rational p in the
    open cofacet, the slice simplex is conv(base ∪ {apex}); by convexity it
    lies in sigma iff the apex does, so the check certifies apex-in-sigma
    by exact tests on the corners of a refined apex enclosure.  It reports
    a counterexample (a falsifier for uncertified eps) only when the whole
    enclosure provably misses sigma (see ``_box_misses``); an enclosure
    that neither proof settles by ``max_bits`` counts as unresolved.
    """
    sigma_vertices = [vec(v) for v in sigma_vertices]
    base = set(tube.vertices)
    if not base <= set(sigma_vertices):
        raise NotAFace("tube base is not a face of the given simplex")
    sigma_geo = SimplexGeometry(sigma_vertices)
    rng = random.Random(seed)
    counterexamples = []
    unresolved = 0
    checked = 0
    for _ in range(samples):
        bary = _random_bary(rng, len(sigma_vertices))
        p = sigma_geo.point_at(bary)
        _, _, h2 = tube.project(p)
        if h2 == 0:
            continue  # p in aff(base): no slice
        checked += 1
        bits = 64
        while True:
            cs = cross_section(tube, p, target_width=Fraction(1, 1 << bits))
            corners = cs.apex.corners()
            if all(sigma_geo.contains(c) for c in corners):
                break
            if _box_misses(sigma_geo, corners):
                counterexamples.append({"p": p, "apex_box": cs.apex})
                break
            bits *= 2
            if bits > max_bits:
                unresolved += 1
                break
    return {
        "samples": checked,
        "counterexamples": counterexamples,
        "unresolved": unresolved,
        "ok": not counterexamples and unresolved == 0,
    }


def carved_difference_eta(
    sigma_vertices: Sequence[Vec],
    tube: Tube,
    probes: int = 50,
    shell_samples: int = 64,
    seed: int = 0,
) -> dict:
    """Probe that carving a tube out of a cofacet creates no obstruction.

    Samples probe centers on the tube wall inside the open cofacet, away
    from the base boundary, and classifies a rational shell around each by
    exact membership in sigma_open \\ closed-tube.  Reports disconnected or
    dimension-defective germs; expected empty away from the base boundary.

    Exact rational points on the wall quadric only exist for special eps,
    so centers are taken as rational points within a small gap of the wall
    with shell radius several times that gap; the germ classification is
    unchanged by this offset.
    """
    from .probe import probe_shell  # local import to avoid a cycle

    sigma_vertices = [vec(v) for v in sigma_vertices]
    base = set(tube.vertices)
    if not base <= set(sigma_vertices):
        raise NotAFace("tube base is not a face of the given simplex")
    sigma_geo = SimplexGeometry(sigma_vertices)
    rng = random.Random(seed)

    def member(x: Vec) -> bool:
        return sigma_geo.contains_open(x) and tube_membership(tube, x) == OUTSIDE

    tau_geo = tube.geometry
    scale = max(
        abs(a - b)
        for v in sigma_vertices
        for w in sigma_vertices
        for a, b in zip(v, w)
    )
    obstructions = []
    inconclusive = 0
    used = 0
    for _ in range(probes * 4):
        if used >= probes:
            break
        # ray from a point over the open base toward a random interior point
        foot = tau_geo.point_at(_random_bary(rng, len(tube.vertices)))
        target = sigma_geo.point_at(_random_bary(rng, len(sigma_vertices)))
        if tube_membership(tube, target) != OUTSIDE:
            continue
        direction = vsub(target, foot)
        # binary search for the wall crossing; stop just outside
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(40):
            mid = (lo + hi) / 2
            q = tuple(f + mid * d for f, d in zip(foot, direction))
            if tube_membership(tube, q) == OUTSIDE:
                hi = mid
            else:
                lo = mid
        center = tuple(f + hi * d for f, d in zip(foot, direction))
        if not member(center):
            continue
        radius = scale / 128
        report = probe_shell(member, None, center, radius, shell_samples, rng)
        used += 1
        if report.status == "Disconnected":
            # confirm at triple density before reporting: sparse shells can
            # miss the path around the lens apex
            confirm = probe_shell(member, None, center, radius, 3 * shell_samples, rng)
            if confirm.status == "Disconnected":
                obstructions.append(
                    {"center": center, "components": confirm.components}
                )
        elif report.status == "Inconclusive":
            inconclusive += 1
    return {
        "probes": used,
        "obstructions": obstructions,
        "inconclusive": inconclusive,
        "ok": not obstructions,
    }
