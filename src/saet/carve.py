"""The appropriate-embedding engine.

Carves certified half-open tubes around the top-dimensional obstruction
cells, applies the explicit radial push/pull deformations with their exact
coefficient systems, glues the per-tube maps, and recurses on the residual
obstruction of strictly smaller dimension down to the radial-collar vertex
base case.  Membership in the carved set stays exact on rational points;
map evaluation returns certified interval enclosures.

Levels at depth >= 2 carve around original-skeleton cells of the residual
obstruction (no re-triangulation); certificates against the previously
carved tubes keep the composed maps inside their domains, and shell probes
verify the absence of new obstructions empirically.

Each unit is certified apart from its peers: a tube from its siblings at
the candidate eps and from the earlier tubes at theirs, a collar from the
earlier tubes its vertex avoids.  A pair whose reach boxes miss each other
is proved by the boxes alone (a ``reach_disjoint`` record); only a pair
whose boxes meet solves a separating-plane LP (``metric._Separation``).
The boxes are built once per (cell, eps^2) and shared by every condition
of a carving.  Every box here, a unit's reach (``CarveUnit.reach``), a
top's box and a map level's enclosure, is a ``BoxNumerators``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from operator import mul
from typing import Sequence

from .complexes import Complex, PLSet, closure, eta
from .errors import BadOrder, OutOfDomain, PreconditionViolated
from .intervals import (BoxNumerators, Interval, IntervalPoint, interval_sqrt, product_bounds,
                        quotient_bounds, sqrt_bounds, square_bounds)
from .metric import FaceFunctionals, _Conditions, _first_certified, _proper_peers
from .probe import ProbeReport, probe_shell
from .rationals import (AffineForm, Vec, dot, homogeneous, rat, rat_str, rational_sqrt,
                        solve, vec)
from .tubes import INSIDE_OPEN, OUTSIDE, Tube, VertexBall, membership_h, reach_bounds, tube_status

PUSH = "push"
PULL = "pull"


def snap_eps_sq(eps_sq: Fraction) -> Fraction:
    """Largest value 4/(q^2+1) <= eps_sq (integer q >= 2).

    At such eps the half-width parameter satisfies ((eps/2)*)^2 = 1/q^2, so
    the carved wall of a codimension-1 tube carries exact rational points;
    conditions certified at eps_sq stay certified at the smaller value.
    For eps_sq = a/b the bound reads q^2 >= c with c = ceil((4b - a)/a),
    so q is the least integer >= 2 whose square reaches c.
    """
    eps_sq = Fraction(eps_sq)
    a, b = eps_sq.numerator, eps_sq.denominator
    c = -((a - 4 * b) // a)
    q = max(2, isqrt(max(c - 1, 0)) + 1)
    return Fraction(4, q * q + 1)


@dataclass
class DeformCoeffs:
    """Solution of the push/pull coefficient systems for scales 0 < s < s'.

    Push uses a1 = s, a1 + s' a2 = s'; pull uses s b1 + b2 = 0,
    s' b1 + b2 = s'.  The derived identities a1 + a2 b2 = 0 and a2 b1 = 1
    hold exactly in rational form and within enclosures in interval form.
    """

    s: Fraction | Interval
    s_prime: Fraction | Interval
    a1: Fraction | Interval
    a2: Fraction | Interval
    b1: Fraction | Interval
    b2: Fraction | Interval


def deformation_coeffs(s, s_prime) -> DeformCoeffs:
    exact = not (isinstance(s, Interval) or isinstance(s_prime, Interval))
    if exact:
        s, s_prime = Fraction(s), Fraction(s_prime)
        if not 0 < s < s_prime:
            raise BadOrder("need 0 < s < s'")
        gap = s_prime - s
    else:
        s, s_prime = Interval.of(s), Interval.of(s_prime)
        gap = s_prime - s
        if not (s.lo > 0 and gap.lo > 0):
            raise BadOrder("need 0 < s < s' (certified)")
    a1 = s
    a2 = gap / s_prime
    b1 = s_prime / gap
    b2 = -(s * s_prime) / gap
    return DeformCoeffs(s, s_prime, a1, a2, b1, b2)


def _signed_rows(rows) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """Each integer row (c0, c_1, ..., c_n) as (c0, positive parts, negative
    parts), for ``_form_bounds``."""
    return tuple((row[0], tuple(max(c, 0) for c in row[1:]), tuple(min(c, 0) for c in row[1:]))
                 for row in rows)


def _form_bounds(row, q: int, lo: Sequence[int], hi: Sequence[int]) -> tuple[int, int]:
    """The ends of an affine form, a signed row over some D, on the box
    [lo, hi] / q, over D q: what summing ``coord * c`` intervals gives."""
    c0, pos, neg = row
    return (c0 * q + sum(map(mul, pos, lo)) + sum(map(mul, neg, hi)),
            c0 * q + sum(map(mul, pos, hi)) + sum(map(mul, neg, lo)))


class CarveUnit:
    """One carved neighborhood: a tube around a cell or a vertex ball.

    The full object (parameter eps) is the map region; the carving removes
    the half-open inner object at parameter eps/2.

    The deformation maps read a unit through integers built once here.  A
    tube has its barycentric rows (``SimplexGeometry.integral``, over D),
    the rows of its height forms x_k - pi_k(x) and of its projection pi_k
    (over one E), the weights of its facet inequalities and the inverse
    facet norms; a ball has its center over one denominator.
    """

    def __init__(self, outer: Tube | VertexBall, certificate: list[dict]):
        self.outer = outer
        self.inner = outer.shrink_half()
        self.certificate = certificate
        self.is_ball = isinstance(outer, VertexBall)
        self._coeff_cache: dict[int, dict[str, tuple[int, ...]]] = {}
        if self.is_ball:
            self._center = homogeneous(outer.center)
            return
        ff: FaceFunctionals = outer.ff
        n = ff.n
        self.diff_forms = []
        for k in range(n):
            pi_k = AffineForm(0, [0] * n)
            for f, v in zip(ff.forms, ff.vertices, strict=True):
                pi_k = pi_k + f.scale(v[k])
            self.diff_forms.append(AffineForm.coordinate(k, n) - pi_k)
        table = ff.geometry.integral
        e, *flat = homogeneous([c for f in self.diff_forms for c in (f.c0, *f.c)])
        diff_rows = [flat[k * (n + 1):(k + 1) * (n + 1)] for k in range(n)]
        pi_rows = [[-row[0]] + [e * (j == k) - c for j, c in enumerate(row[1:])]
                   for k, row in enumerate(diff_rows)]
        self._bary_rows = _signed_rows(table.rows)
        self._d_scale = table.d_scale
        self._diff_rows = _signed_rows(diff_rows)
        self._pi_rows = _signed_rows(pi_rows)
        self._e_scale = e
        # height^2 ||u_i||^2 > eps*^2 f_i^2 over H / (E q)^2 and B_i / (D q):
        # H D^2 n_i g > B_i^2 E^2 f m_i with ||u_i||^2 = n_i / m_i, eps*^2 = f / g
        ess, d_sq, e_sq = outer.eps_star_sq, table.d_scale ** 2, e * e
        self._weights = tuple((d_sq * nsq.numerator * ess.denominator,
                               e_sq * ess.numerator * nsq.denominator) for nsq in ff.norm_sq)
        # 1 / ||u_i||^2 = w_i / N over one N
        n_den = lcm(*(nsq.numerator for nsq in ff.norm_sq))
        self._inv_norms = tuple(nsq.denominator * (n_den // nsq.numerator) for nsq in ff.norm_sq)
        self._inv_norm_scale = n_den

    # --- integer box evaluation --------------------------------------------

    def _box_data(self, box: BoxNumerators):
        """What the map tests read at a level's box, on numerators:
        (bary, lo, hi, root).  The squared quantity, a ball's squared
        distance to its center or a tube's squared height over its base,
        lies in [lo, hi] / root^2; bary is None for a ball, and for a tube
        its barycentric bounds (lo_i, hi_i), each over D q.  Every bound is
        the one the Fraction interval operations give."""
        q, lo, hi = box
        if self.is_ball:
            vq, *center = self._center
            s_lo = s_hi = 0
            for a, b, c in zip(lo, hi, center, strict=True):
                a, b = square_bounds(a * vq - c * q, b * vq - c * q)
                s_lo, s_hi = s_lo + a, s_hi + b
            return None, s_lo, s_hi, q * vq
        bary = [_form_bounds(row, q, lo, hi) for row in self._bary_rows]
        s_lo = s_hi = 0
        for row in self._diff_rows:
            a, b = square_bounds(*_form_bounds(row, q, lo, hi))
            s_lo, s_hi = s_lo + a, s_hi + b
        return bary, s_lo, s_hi, self._e_scale * q

    def certainly_outside_outer(self, data) -> bool:
        """The box of ``data`` (from ``_box_data``) misses the closed outer
        neighborhood, as far as its enclosures prove."""
        bary, s_lo, _, root = data
        if bary is None:
            r_sq = self.outer.radius_sq
            return s_lo * r_sq.denominator > r_sq.numerator * root * root
        if any(b_hi < 0 for _, b_hi in bary):
            return True
        for (b_lo, b_hi), (a, c) in zip(bary, self._weights, strict=True):
            if s_lo * a > c * square_bounds(b_lo, b_hi)[1]:
                return True
        return False

    def certainly_inside_outer_open(self, data) -> bool:
        """The box of ``data`` lies in the open outer neighborhood, as far as
        its enclosures prove."""
        bary, _, s_hi, root = data
        if bary is None:
            r_sq = self.outer.radius_sq
            return s_hi * r_sq.denominator < r_sq.numerator * root * root
        if not all(b_lo >= 0 for b_lo, _ in bary):
            return False
        return all(s_hi * a < c * b_lo * b_lo
                   for (b_lo, _), (a, c) in zip(bary, self._weights, strict=True))

    def _point_status(self, h: tuple[int, ...]) -> str | None:
        """For the point h = (q, p_1, ..., p_n): "fixed" on the boundary of a
        tube's base, where the maps fix it, "undefined" on the carved cell
        (a tube's open base or a ball's center), else None."""
        if self.is_ball:
            vq, *center = self._center
            return "undefined" if all(c * h[0] == p * vq for c, p in zip(center, h[1:])) else None
        nums, height = self.outer.geometry.numerators(h)
        if height or any(v < 0 for v in nums):
            return None
        return "fixed" if 0 in nums else "undefined"

    @cached_property
    def reach(self) -> BoxNumerators:
        """The reach box of the outer neighborhood (``tubes.reach_bounds``).
        A point or box outside it is outside the unit's inner and outer
        neighborhoods, so member tests and the deformation maps skip the
        unit there; the tests cross-multiply integers, so the skip is
        exact."""
        return reach_bounds(self.outer)

    def reaches_h(self, h: Sequence[int]) -> bool:
        """The point h = (q, p_1, ..., p_n) lies in the reach box,
        cross-multiplied; when it does not, it is outside the outer
        neighborhood and so outside the inner one too."""
        s, lo, hi = self.reach
        q = h[0]
        # an inline loop, as in Complex.locate_top: every member test runs it
        for c, a, b in zip(h[1:], lo, hi):
            if not a * q <= c * s <= b * q:
                return False
        return True

    def meets(self, box: BoxNumerators) -> bool:
        """The box meets the reach box; when it does not, this unit's maps
        act as the identity on all of it (exact, cross-multiplied)."""
        return self.reach.separating_axis(box) is None

    @cached_property
    def wall_forms(self) -> list[AffineForm]:
        """Rational wall forms of the carved inner tube, built once."""
        return _wall_forms(self)

    # --- member predicate (exact, integer points) ----------------------------

    def removal(self, h: Sequence[int]) -> str:
        """The inner neighborhood's trichotomy (``tubes.membership_h``) at
        the point h = (q, p_1, ..., p_n), with the boundary of a tube's
        base, which the carving keeps, counted OUTSIDE.  A tube reads its
        numerators once for both tests."""
        if self.is_ball:
            return membership_h(self.inner, h)
        nums, height = self.inner.geometry.numerators(h)
        status = tube_status(self.inner, nums, height)
        # inside the closed tube every N_i >= 0: on the base's boundary
        # exactly when H = 0 and some N_i = 0
        if status != OUTSIDE and not height and 0 in nums:
            return OUTSIDE
        return status

    # --- map evaluation -----------------------------------------------------

    def _coeffs(self, bits: int) -> dict[str, tuple[int, ...]]:
        """A tube's push and pull coefficients at a precision, solved once
        per bits, as (den, a1_lo, a1_hi, a2_lo, a2_hi) for push and the
        same for (b1, b2) for pull."""
        if self.is_ball:
            raise TypeError("ball units use closed-form radial scales")
        co = self._coeff_cache.get(bits)
        if co is None:
            s = interval_sqrt(Interval(self.inner.eps_star_sq), bits)
            sp = interval_sqrt(Interval(self.outer.eps_star_sq), bits)
            c = deformation_coeffs(s, sp)
            co = self._coeff_cache[bits] = {
                PUSH: homogeneous((c.a1.lo, c.a1.hi, c.a2.lo, c.a2.hi)),
                PULL: homogeneous((c.b1.lo, c.b1.hi, c.b2.lo, c.b2.hi)),
            }
        return co

    def map_box(self, box: BoxNumerators, data, direction: str, bits: int) -> BoxNumerators:
        """This unit's push or pull formula on a box, with ``data`` its
        ``_box_data``: c + (x - c) * scale, where c is a ball's center or
        the tube's projection pi(x), and the scale is a quotient by rho,
        |x - c| or the height t.  Each step is the Fraction interval
        operation of the formula, on numerators."""
        q, lo, hi = box
        bary, s_lo, s_hi, root = data
        rho = sqrt_bounds(s_lo, s_hi, 1, root, bits)
        if bary is None:
            # push (r/2 + rho/2) / rho, pull (2 rho - r) / rho, r the radius
            r_sq = self.outer.radius_sq
            r_lo, r_hi, r_den = sqrt_bounds(r_sq.numerator, r_sq.numerator, r_sq.denominator, 1,
                                            bits)
            rho_lo, rho_hi, rho_den = rho
            if direction == PUSH:
                num = (r_lo * rho_den + rho_lo * r_den, r_hi * rho_den + rho_hi * r_den,
                       2 * r_den * rho_den)
            else:
                num = (2 * rho_lo * r_den - r_hi * rho_den, 2 * rho_hi * r_den - r_lo * rho_den,
                       r_den * rho_den)
            vq, *center = self._center
            c_lo = c_hi = [c * q for c in center]
            lo, hi = [a * vq for a in lo], [b * vq for b in hi]
        else:
            num = self._tube_scale(bary, q, rho, direction, bits)
            c_lo, c_hi = zip(*(_form_bounds(row, q, lo, hi) for row in self._pi_rows))
            lo, hi = [a * self._e_scale for a in lo], [b * self._e_scale for b in hi]
        m_lo, m_hi, m_den = quotient_bounds(*num, *rho)
        out_lo, out_hi = [], []
        for a, b, c, d in zip(lo, hi, c_lo, c_hi):
            a, b = product_bounds(m_lo, m_hi, a - d, b - c)
            out_lo.append(c * m_den + a)
            out_hi.append(d * m_den + b)
        return BoxNumerators(root * m_den, tuple(out_lo), tuple(out_hi))

    def _tube_scale(self, bary, q: int, t: tuple[int, int, int], direction: str,
                    bits: int) -> tuple[int, int, int]:
        """The numerator of a tube's scale, (a1 d + a2 t) for push and
        (b1 t + b2 d) for pull, with d = dist(pi, base boundary) =
        min_i f_i / ||u_i||, each f_i clamped at 0: (lo, hi, den)."""
        w = self._inv_norms
        d_lo = min(max(b_lo, 0) ** 2 * w_i for (b_lo, _), w_i in zip(bary, w, strict=True))
        d_hi = min(max(b_hi, 0) ** 2 * w_i for (_, b_hi), w_i in zip(bary, w, strict=True))
        d = sqrt_bounds(d_lo, d_hi, self._inv_norm_scale, self._d_scale * q, bits)
        den, x_lo, x_hi, y_lo, y_hi = self._coeffs(bits)[direction]
        u, v = (d, t) if direction == PUSH else (t, d)
        p_lo, p_hi = product_bounds(x_lo, x_hi, u[0], u[1])
        s_lo, s_hi = product_bounds(y_lo, y_hi, v[0], v[1])
        return p_lo * v[2] + s_lo * u[2], p_hi * v[2] + s_hi * u[2], den * u[2] * v[2]


@dataclass
class CarvedSet:
    """A marked set minus a family of half-open certified neighborhoods.

    Member tests locate the point in a closed top of the base complex and
    test only the units listed for that top: those whose reach box
    (``CarveUnit.reach``) meets the top's closed box, both integer
    ``BoxNumerators``, listed once per top on its first query
    (``_list_units``).  A unit whose reach box holds a point of the top is
    always listed, so the lists skip only units that ``reaches_h`` rejects.
    ``units`` is read when a top is first listed; it is not meant to change
    after the first query."""

    base: PLSet
    units: list[CarveUnit] = field(default_factory=list)
    _facet_forms: list[AffineForm] | None = field(default=None, init=False, repr=False,
                                                   compare=False)
    _crossing_rows: list[tuple[int, ...]] | None = field(default=None, init=False, repr=False,
                                                         compare=False)
    _last_top: int | None = field(default=None, init=False, repr=False, compare=False)
    _top_units: dict[int, tuple[CarveUnit, ...]] = field(default_factory=dict, init=False,
                                                         repr=False, compare=False)

    def _top(self, h: Sequence[int]) -> tuple[int, list[int]] | None:
        """A closed top of the base complex that holds the point h, with its
        barycentric numerators at h (``Complex.locate_top``); None outside
        |K|.  The location starts from the top that held the last point,
        and the top found is remembered for the next one.  Every hint gives
        the same open cell (``Complex.open_face``), so the cell never
        depends on the queries before it; the top may, but any closed top
        that holds h serves ``_list_units``."""
        found = self.base.complex.locate_top(h, self._last_top)
        if found is not None:
            self._last_top = found[0]
        return found

    def _list_units(self, top: int) -> tuple[CarveUnit, ...]:
        """The units whose reach box meets the closed box of the top cell,
        in ``units`` order, found from its integer vertex rows
        (``BoxNumerators.of_points``, ``CarveUnit.meets``) and kept in
        ``_top_units``.  A reach box that holds a point of the closed top
        meets its box, so every unit that ``reaches_h`` accepts at such a
        point is listed."""
        listed = ()
        if self.units:
            k = self.base.complex
            box = BoxNumerators.of_points([k.vertex_rows[v] for v in k.simplices[top].vertex_ids])
            listed = tuple(u for u in self.units if u.meets(box))
        self._top_units[top] = listed
        return listed

    def member(self, x: Vec) -> bool:
        """Exact membership of the rational point x in the carved set."""
        return self.member_h(homogeneous(vec(x)))

    def member_h(self, h: Sequence[int]) -> bool:
        """``member`` at the point h = (q, p_1, ..., p_n), x = p / q with
        q > 0, in lowest terms or not: x lies in the base and in no removed
        neighborhood of a unit whose reach box holds it (``reaches_h``,
        ``removal``).  A closed top holding x, and with it the base cell, is
        located from the top that held the last point asked of this set
        (``_top``), so a stream of nearby points, such as a probe's, mostly
        skips the bucket search; only the units listed for that top are
        tested (``_list_units``).  Every test reads integers and is
        homogeneous in (q, p); no Fraction is formed."""
        found = self._top(h)
        if found is None or self.base.complex.open_face(*found) not in self.base.members:
            return False
        units = self._top_units.get(found[0])
        if units is None:
            units = self._list_units(found[0])
        return not any(u.removal(h) != OUTSIDE for u in units if u.reaches_h(h))

    def closure_member(self, x: Vec) -> bool:
        """Exact predicate for the realized closure under the certificates."""
        return self.closure_member_h(homogeneous(vec(x)))

    def closure_member_h(self, h: Sequence[int]) -> bool:
        """``closure_member`` at the point h = (q, p_1, ..., p_n), as
        ``member_h``, located from the same remembered top and testing the
        same listed units: x lies in the closure of the base and in no open
        inner neighborhood."""
        found = self._top(h)
        if found is None or self.base.complex.open_face(*found) not in closure(self.base).members:
            return False
        units = self._top_units.get(found[0])
        if units is None:
            units = self._list_units(found[0])
        return not any(u.removal(h) == INSIDE_OPEN for u in units if u.reaches_h(h))

    def units_near(self, center: Vec, radius: Fraction) -> list[CarveUnit]:
        """Units whose outer neighborhood can meet the given ball: those
        whose reach box meets the box [center - radius, center + radius]
        (``CarveUnit.meets``)."""
        box = IntervalPoint([Interval(c - radius, c + radius) for c in vec(center)]).numerators()
        return [u for u in self.units if u.meets(box)]

    def crossing_forms(self) -> list[AffineForm]:
        """Affine forms whose zero sets carry the PL part of the boundary:
        facet functionals of all top cells (built once per carved set)
        plus rational wall forms of codimension-1 carved tubes (present
        thanks to the eps snapping)."""
        if self._facet_forms is None:
            k = self.base.complex
            tops = [FaceFunctionals(k.geometry(sid)) for sid in k.top_ids if k.dim_of(sid) >= 1]
            self._facet_forms = list(dict.fromkeys(f for ff in tops for f in ff.forms))
        forms = list(self._facet_forms)
        for u in self.units:
            forms.extend(u.wall_forms)
        return forms

    def crossing_rows(self) -> list[tuple[int, ...]]:
        """The crossing forms as integer rows (c_0, c_1, ..., c_n), each a
        positive multiple of its form, without repeats; built once per
        carved set.  A row's dot product with a point (q, p_1, ..., p_n)
        has the sign of the form at p / q."""
        if self._crossing_rows is None:
            rows = (homogeneous((f.c0, *f.c))[1:] for f in self.crossing_forms())
            self._crossing_rows = list(dict.fromkeys(rows))
        return self._crossing_rows


def _wall_forms(unit: CarveUnit) -> list[AffineForm]:
    if unit.is_ball:
        return []
    tube = unit.inner
    delta_star = rational_sqrt(tube.eps_star_sq)
    found = _rational_normal(tube) if delta_star is not None else None
    if found is None:
        return []
    normal, length = found
    forms = []
    height = AffineForm(0, [0] * tube.ff.n)
    for c, f in zip(normal, unit.diff_forms, strict=True):
        height = height + f.scale(c)
    for f_i, nsq in zip(tube.ff.forms, tube.ff.norm_sq, strict=True):
        u_norm = rational_sqrt(nsq)
        if u_norm is None:
            continue
        coef = delta_star * length / u_norm
        forms.append(height - f_i.scale(coef))
        forms.append(height + f_i.scale(coef))
    return forms


def _rational_normal(tube: Tube) -> tuple[Vec, Fraction] | None:
    """A normal of a codimension-1 base and its length, when both are rational.

    The normal solves edge . y = 0 for every base edge together with
    y_k = 1, for the first k where this square system is nonsingular (it is
    singular exactly when the normal has y_k = 0).  None for other
    codimensions and for normals of irrational length.
    """
    n = tube.ff.n
    if tube.dim != n - 1:
        return None
    edges = [list(e) for e in tube.geometry.edges]
    rhs = [Fraction(0)] * len(edges) + [Fraction(1)]
    for k in range(n):
        pin = [Fraction(int(j == k)) for j in range(n)]
        try:
            normal = tuple(solve(edges + [pin], rhs))
        except ZeroDivisionError:
            continue
        length = rational_sqrt(dot(normal, normal))
        return None if length is None else (normal, length)
    return None


class DeformationMap:
    """Glued push (into the carved set) or pull (back onto the closure).

    ``levels`` lists the carve units level by level; push applies levels in
    carve order, pull in reverse.  Evaluation is exact in its branch
    decisions on rational inputs and returns interval enclosures; where a
    propagated enclosure straddles a branch interface the hull of the
    applicable formulas is returned (valid since the maps agree there).

    The input is written once as integers over one common denominator
    (``BoxNumerators``), and each level takes and returns such a box,
    deciding on its integers: the reach test, each unit's barycentric and
    height bounds, its outside and inside tests, its formula and the hull.
    Every step is exact and homogeneous in the denominator, so the box need
    not be in lowest terms.  The ``IntervalPoint`` is built once, on
    return: the rational box that the Fraction interval operations of
    Moore's interval analysis give, bound for bound.

    A level touches only the units whose reach box meets the enclosure.
    The reach box holds the unit's closed outer neighborhood, outside of
    which its map is the identity, so a unit it misses would add nothing
    to the hull; the test compares integers, so skipping is exact.  The
    units met are evaluated once per enclosure, and that data serves the
    outside test, the inside test and the formula alike.
    """

    def __init__(self, direction: str, levels: Sequence[Sequence[CarveUnit]], base: PLSet):
        assert direction in (PUSH, PULL)
        self.direction = direction
        self.levels = [list(lv) for lv in levels]
        self.base = base

    def _apply_level(self, units, box: BoxNumerators, bits: int) -> BoxNumerators:
        """The level's image of the box: the hull of the formulas of the
        units that may hold it, and of the box itself unless one unit
        certainly holds it in its open outer neighborhood."""
        candidates = []
        identity_possible = True
        for u in units:
            data = u._box_data(box)
            if u.certainly_outside_outer(data):
                continue
            candidates.append(u.map_box(box, data, self.direction, bits))
            if u.certainly_inside_outer_open(data):
                identity_possible = False
        if identity_possible:
            candidates.append(box)
        return candidates[0] if len(candidates) == 1 else BoxNumerators.hull(candidates)

    def evaluate(self, x, bits: int = 64) -> IntervalPoint:
        start = x if isinstance(x, IntervalPoint) else IntervalPoint(vec(x))
        n = self.base.complex.n
        if len(start) != n:
            raise ValueError(f"a {len(start)}-dimensional point or box cannot be mapped "
                             f"in {n}-dimensional space")
        if not self.levels:
            return start
        order = self.levels if self.direction == PUSH else list(reversed(self.levels))
        box = first = start.numerators()
        for units in order:
            near = [u for u in units if u.meets(box)]
            # points exactly on a carved base boundary are fixed by the level
            if near and box.lo == box.hi:
                h = (box.q, *box.lo)
                status = {u._point_status(h) for u in near}
                if "fixed" in status:
                    continue
                if "undefined" in status:
                    raise OutOfDomain("map is undefined on the carved cell itself")
            box = self._apply_level(near, box, bits)
        return start if box is first else box.interval_point()

    def __call__(self, x, bits: int = 64) -> IntervalPoint:
        return self.evaluate(x, bits)


# ---------------------------------------------------------------------------
# carve levels


def _carve_tubes(
    k: Complex,
    top_ids: Sequence[int],
    prev_units: Sequence[CarveUnit],
    prev_ids: Sequence[int],
    boxes: dict,
) -> list[CarveUnit]:
    """Tubes at one common eps around cells of one dimension >= 1.  Each
    cell's conditions (peers: the sibling cells at the candidate eps, the
    previous tubes at theirs) give its eps and then its certificate; they
    share the reach boxes ``boxes``."""
    conditions = [
        _Conditions(k, t, [o for o in top_ids if o != t]
                    + [(pid, pu.outer.eps_sq) for pid, pu in zip(prev_ids, prev_units, strict=True)
                       if not pu.is_ball and _proper_peers(k, t, pid)], boxes)
        for t in top_ids
    ]
    eps_sq = snap_eps_sq(min(c.first_certified() for c in conditions))
    return [CarveUnit(Tube(k.coords(c.tau_id), eps_sq), c.certificate(eps_sq)) for c in conditions]


def _carve_units(
    k: Complex, cells: Sequence[int],
    prev_units: Sequence[CarveUnit], prev_ids: Sequence[int], boxes: dict,
) -> list[CarveUnit]:
    """The certified units of one level of cells of one dimension: tubes,
    or radial collars around vertices, each after the collars before it.
    ``boxes`` is the reach-box cache of ``metric._Conditions``, one entry
    per (cell, eps^2), shared by every condition it is passed to."""
    if cells and k.dim_of(cells[0]) > 0:
        return _carve_tubes(k, cells, prev_units, prev_ids, boxes)
    units = []
    for v in cells:
        balls = [(w, u.outer.radius_sq) for w, u in zip(cells, units)]
        collar = _Collar(k, v, balls, prev_units, prev_ids, boxes)
        r_sq = _first_certified(collar, f"no collar radius certified for vertex {v}")
        units.append(CarveUnit(VertexBall(k.coords(v)[0], r_sq), collar.records(r_sq)))
    return units


def carve_level(s: PLSet, cells: Sequence) -> tuple[CarvedSet, DeformationMap, DeformationMap]:
    """Carve certified neighborhoods around obstruction cells of one
    dimension: tubes around cells of dimension >= 1, radial collars around
    vertices.

    A collar removes the closed ball of radius r/2 around its vertex; the
    radial maps rescale [0, r] onto [r/2, r] (push) and back (pull), fixing
    the r-sphere.  Radii are certified so each ball sits inside the open
    star of its vertex and peer balls are disjoint; ``appropriate_embed``
    also certifies that the tubes carved before a collar look conical from
    its vertex, so the radial maps preserve them.

    Returns the carved set (the level's units, removed at parameter eps/2)
    together with the level's glued push map (onto the carved set) and pull
    map (from the closure of the carved set onto the closure of the input).
    """
    k = s.complex
    ids = [k.id_of(t) for t in cells]
    if len({k.dim_of(t) for t in ids}) > 1:
        raise PreconditionViolated("carve_level expects cells of equal dimension")
    obstruction = eta(s).members
    for t in ids:
        if t not in obstruction:
            raise PreconditionViolated(f"simplex {t} is not an obstruction cell")
    units = _carve_units(k, ids, (), (), {})
    return CarvedSet(s, units), DeformationMap(PUSH, [units], s), DeformationMap(PULL, [units], s)


class _Collar:
    """The conditions on a collar around vertex vid, built once.

    They are the star clearance (exact), the disjointness from the earlier
    balls ``peer_balls`` ((vertex id, r^2) pairs), and for each earlier tube
    its cone compatibility when its base has vertex vid, or else the
    separation from it.  ``refusal(r_sq)`` names the first of them that
    fails at r_sq, or is None; ``records(r_sq)`` builds the certificate.
    """

    def __init__(self, k: Complex, vid: int, peer_balls: Sequence[tuple[int, Fraction]],
                 prev_units: Sequence[CarveUnit], prev_ids: Sequence[int], boxes: dict):
        self.star = _Conditions(k, vid, boxes=boxes)
        v = self.star.base
        # every candidate r^2 is a power of 1/4, so the radii are rational
        self.balls = [(wid, rational_sqrt(w_rsq),
                       sum((a - b) ** 2 for a, b in zip(v, k.coords(wid)[0])))
                      for wid, w_rsq in peer_balls]
        self.tubes = [
            _ConeCompatibility(k, vid, pid, pu.outer) if vid in k.simplex(pid).vertex_ids
            else self.star.separation(pid, pu.outer.eps_sq)
            for pid, pu in zip(prev_ids, prev_units, strict=True) if not pu.is_ball
        ]

    def _disjoint(self, r_sq: Fraction):
        """(vertex id, whether the balls are disjoint) per earlier ball, lazily."""
        r = rational_sqrt(r_sq)
        return ((wid, (r + rw) ** 2 < gap_sq) for wid, rw, gap_sq in self.balls)

    def refusal(self, r_sq: Fraction) -> str | None:
        refused = self.star.refusal(r_sq)
        if refused is not None:
            return refused
        for wid, disjoint in self._disjoint(r_sq):
            if not disjoint:
                return f"ball_disjointness against vertex {wid}"
        for tube in self.tubes:
            refused = tube.refusal(r_sq)
            if refused is not None:
                return refused
        return None

    def records(self, r_sq: Fraction) -> list[dict]:
        records = self.star.records(r_sq)
        records += [{"kind": "ball_disjointness", "peer": wid, "ok": disjoint}
                    for wid, disjoint in self._disjoint(r_sq)]
        for tube in self.tubes:
            records += tube.records(r_sq)
        return records


class _ConeCompatibility:
    """Within the ball the tube is a cone from v, so the radial collar maps
    preserve its membership (every face of its base that avoids v lies in
    the facet opposite v), and the base's facets away from v stay inactive
    inside the ball."""

    def __init__(self, k: Complex, vid: int, pid: int, tube: Tube):
        v = k.coords(vid)[0]
        opposite = tuple(i for i, w in enumerate(k.simplex(pid).vertex_ids) if w != vid)
        self.pid, self.tube = pid, tube
        self.d_sq = k.geometry(pid).face_geometry(opposite).dist_sq(v)
        self.facets = [(fv, nsq) for f, nsq in zip(tube.ff.forms, tube.ff.norm_sq, strict=True)
                       if (fv := f(v)) != 0]

    def _dominated(self, r_sq: Fraction):
        """Whether each facet away from v stays inactive in the ball, lazily:
        eps* (f(v) - ||u|| r) > ||u|| r, decided on rationals.  With f = f(v),
        w = ||u||^2 r^2 and e = eps*^2 it holds exactly when f > 0, f^2 > w,
        and A = e (f^2 + w) - w satisfies A > 0 and A^2 > 4 e^2 f^2 w."""
        e = self.tube.eps_star_sq
        for fv, nsq in self.facets:
            w = nsq * r_sq
            a = e * (fv * fv + w) - w
            yield fv > 0 and fv * fv > w and a > 0 and a * a > 4 * e * e * fv * fv * w

    def refusal(self, r_sq: Fraction) -> str | None:
        if not 4 * r_sq < self.d_sq:
            return f"cone_compatibility of tube {self.pid}"
        if not all(self._dominated(r_sq)):
            return f"facet_domination of tube {self.pid}"
        return None

    def records(self, r_sq: Fraction) -> list[dict]:
        return [{"kind": "cone_compatibility", "tube": self.pid,
                 "lhs": rat_str(4 * r_sq), "rhs": rat_str(self.d_sq)}] + [
            {"kind": "facet_domination", "tube": self.pid, "ok": ok}
            for ok in self._dominated(r_sq)]


@dataclass
class EmbedResult:
    carved: CarvedSet
    pull: DeformationMap
    push: DeformationMap
    levels: list[dict]
    certificates: list[dict]


def appropriate_embed(s: PLSet) -> EmbedResult:
    """Carve until no obstruction cell of the original skeleton remains.

    Inducts on the dimension of the obstruction set: each level carves the
    obstruction cells of one dimension, from the highest down, certified
    against the tubes carved before it, and the vertices get radial
    collars.  The pull map is the composition of the level pulls; all eps
    certificates are returned.
    """
    k = s.complex
    obstruction = eta(s).members
    levels: list[list[CarveUnit]] = []
    info: list[dict] = []
    units, ids, boxes = [], [], {}
    for d in sorted({k.dim_of(t) for t in obstruction}, reverse=True):
        cells = sorted(t for t in obstruction if k.dim_of(t) == d)
        level = _carve_units(k, cells, units, ids, boxes)
        outer = level[0].outer
        info.append({"dim": d, "cells": cells,
                     "eps_sq": rat_str(outer.radius_sq if d == 0 else outer.eps_sq)})
        levels.append(level)
        units, ids = units + level, ids + cells
    certificates = [rec for u in units for rec in u.certificate]
    return EmbedResult(CarvedSet(s, units), DeformationMap(PULL, levels, s),
                       DeformationMap(PUSH, levels, s), info, certificates)


def probe_germ(
    n: CarvedSet, q: Vec, radius: Fraction, samples: int, seed: int = 0
) -> ProbeReport:
    """Shell probe of the carved set around a boundary point.

    Pre: q lies exactly in the realized closure minus the set, the radius
    is a positive rational (a float or bool raises TypeError) and samples
    is at least 1.  Reports the connectivity verdict and dimension
    estimates for the germ.  The probe reads the integer bodies
    ``member_h`` and ``closure_member_h`` of a carved set of the units
    near q (``units_near``), and the crossing rows of the whole set.  The
    preconditions are checked on that set too: a unit outside it has a
    reach box that misses q, so it could not remove q.  Checking them
    there also locates q first, so the samples and checkpoints, which lie
    in the ball around q, walk from its top to the tops near it.
    """
    radius = rat(radius)
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise TypeError(f"the sample count must be an int, got {samples!r}")
    if radius <= 0:
        raise PreconditionViolated(f"probe radius must be positive, got {rat_str(radius)}")
    if samples < 1:
        raise PreconditionViolated(f"probe needs at least 1 sample, got {samples}")
    q = vec(q)
    h = homogeneous(q)
    near = CarvedSet(n.base, n.units_near(q, radius))
    if near.member_h(h):
        raise PreconditionViolated("probe center lies in the carved set")
    if not near.closure_member_h(h):
        raise PreconditionViolated("probe center is outside the closure")
    return probe_shell(near.member_h, near.closure_member_h, q, radius, samples,
                       random.Random(seed), crossing_rows=n.crossing_rows())
