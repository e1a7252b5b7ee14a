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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Sequence

from .complexes import Complex, PLSet, bounding_box, closure, eta
from .errors import BadOrder, OutOfDomain, PreconditionViolated
from .intervals import Interval, IntervalPoint, interval_sqrt
from .metric import FaceFunctionals, _Conditions, _first_certified, _proper_peers
from .probe import ProbeReport, probe_shell
from .rationals import (AffineForm, Vec, dot, homogeneous, rat_str, rational_sqrt, solve,
                        vec)
from .tubes import INSIDE_OPEN, OUTSIDE, Tube, VertexBall, membership

PUSH = "push"
PULL = "pull"


def snap_eps_sq(eps_sq: Fraction) -> Fraction:
    """Largest value 4/(q^2+1) <= eps_sq (integer q >= 2).

    At such eps the half-width parameter satisfies ((eps/2)*)^2 = 1/q^2, so
    the carved wall of a codimension-1 tube carries exact rational points;
    conditions certified at eps_sq stay certified at the smaller value.
    """
    eps_sq = Fraction(eps_sq)
    q = 2
    while Fraction(4, q * q + 1) > eps_sq:
        q += 1
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
        if not (Interval.of(0).certainly_lt(s) and gap.lo > 0):
            raise BadOrder("need 0 < s < s' (certified)")
    a1 = s
    a2 = gap / s_prime
    b1 = s_prime / gap
    b2 = -(s * s_prime) / gap
    return DeformCoeffs(s, s_prime, a1, a2, b1, b2)


class CarveUnit:
    """One carved neighborhood: a tube around a cell or a vertex ball.

    The full object (parameter eps) is the map region; the carving removes
    the half-open inner object at parameter eps/2.
    """

    def __init__(self, outer: Tube | VertexBall, certificate: list[dict]):
        self.outer = outer
        self.inner = outer.shrink_half()
        self.certificate = certificate
        self.is_ball = isinstance(outer, VertexBall)
        self._coeff_cache: dict[int, DeformCoeffs] = {}
        if not self.is_ball:
            ff: FaceFunctionals = outer.ff
            n = ff.n
            pi_forms = []
            for k in range(n):
                acc = AffineForm(0, [0] * n)
                for f, v in zip(ff.forms, ff.vertices, strict=True):
                    acc = acc + f.scale(v[k])
                pi_forms.append(acc)
            self.pi_forms = pi_forms
            self.diff_forms = [
                AffineForm.coordinate(k, n) - pi_forms[k] for k in range(n)
            ]

    # --- interval-box evaluation -------------------------------------------

    def _box_data(self, box: IntervalPoint):
        """Enclosures of what the map tests read at a box: a ball's squared
        distance to its center, or a tube's barycentric coordinates and
        squared height over its base.  ``map_box`` forms the projection."""
        if self.is_ball:
            return None, box.dist_sq(IntervalPoint(self.outer.center))
        bary = [_eval_affine(f, box) for f in self.outer.ff.forms]
        hsq = Interval(0)
        for f in self.diff_forms:
            hsq = hsq + _eval_affine(f, box).square()
        return bary, hsq

    def certainly_outside_outer(self, data) -> bool:
        """The box of ``data`` (from ``_box_data``) misses the closed outer
        neighborhood, as far as its enclosures prove."""
        if self.is_ball:
            return data[1].lo > self.outer.radius_sq
        bary, hsq = data
        if any(b.hi < 0 for b in bary):
            return True
        ess = self.outer.eps_star_sq
        for b, nsq in zip(bary, self.outer.ff.norm_sq, strict=True):
            cond = hsq * nsq - (b.square() * ess)
            if cond.lo > 0:
                return True
        return False

    def certainly_inside_outer_open(self, data) -> bool:
        """The box of ``data`` lies in the open outer neighborhood, as far as
        its enclosures prove."""
        if self.is_ball:
            return data[1].hi < self.outer.radius_sq
        bary, hsq = data
        if not all(b.lo >= 0 for b in bary):
            return False
        ess = self.outer.eps_star_sq
        return all(
            (hsq * nsq - b.square() * ess).hi < 0
            for b, nsq in zip(bary, self.outer.ff.norm_sq, strict=True)
        )

    def on_boundary_base(self, x: Vec) -> bool:
        if self.is_ball:
            return False  # a vertex has empty base boundary
        return self.outer.on_base_boundary(x)

    @cached_property
    def reach_box(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The box of the base inflated by reach, which holds the closed
        outer neighborhood: reach is a ball's radius, or a tube's maximal
        normal height eps* diam (both rounded up to a rational).

        A point or box outside it is outside the unit's inner and outer
        neighborhoods, so member tests and the deformation maps skip the
        unit there; the test compares rationals, so the skip is exact."""
        outer = self.outer
        if self.is_ball:
            reach = _sqrt_upper(outer.radius_sq)
        else:
            diam_sq = max(sum((a - b) ** 2 for a, b in zip(v, w))
                          for v in outer.vertices for w in outer.vertices)
            reach = _sqrt_upper(outer.eps_star_sq * diam_sq)
        return tuple((lo - reach, hi + reach) for lo, hi in bounding_box(outer.vertices))

    @cached_property
    def _reach_bounds(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The reach box over the integers: (scale, bounds), with axis a
        spanning bounds[a] / scale."""
        scale, *ends = homogeneous([c for axis in self.reach_box for c in axis])
        return scale, tuple(zip(ends[::2], ends[1::2]))

    def reaches(self, x: Vec) -> bool:
        """x lies in the reach box; when it does not, x is outside the outer
        neighborhood and so outside the inner one too (exact, compared on
        the numerators and denominators of x)."""
        scale, bounds = self._reach_bounds
        return all(lo * c.denominator <= c.numerator * scale <= hi * c.denominator
                   for c, (lo, hi) in zip(x, bounds))

    def meets(self, box: IntervalPoint) -> bool:
        """The box meets the reach box; when it does not, this unit's maps
        act as the identity on all of it (exact)."""
        return all(c.lo <= hi and lo <= c.hi for c, (lo, hi) in zip(box.coords, self.reach_box))

    @cached_property
    def wall_forms(self) -> list[AffineForm]:
        """Rational wall forms of the carved inner tube, built once."""
        return _wall_forms(self)

    # --- member predicates (exact, rational points) ------------------------

    def removes(self, x: Vec) -> bool:
        """x lies in the removed half-open inner neighborhood."""
        cls = membership(self.inner, x)
        if cls == OUTSIDE:
            return False
        return not self.on_boundary_base(x)

    def removes_from_closure(self, x: Vec) -> bool:
        cls = membership(self.inner, x)
        return cls == INSIDE_OPEN and not self.on_boundary_base(x)

    # --- map evaluation -----------------------------------------------------

    def _coeffs(self, bits: int) -> DeformCoeffs:
        """The tube's push/pull coefficients at a precision, solved once per bits."""
        if self.is_ball:
            raise TypeError("ball units use closed-form radial scales")
        co = self._coeff_cache.get(bits)
        if co is None:
            s = interval_sqrt(Interval(self.inner.eps_star_sq), bits)
            sp = interval_sqrt(Interval(self.outer.eps_star_sq), bits)
            co = self._coeff_cache[bits] = deformation_coeffs(s, sp)
        return co

    def map_box(self, box: IntervalPoint, data, direction: str, bits: int) -> IntervalPoint:
        """Apply this unit's push or pull formula to an enclosure, with
        ``data`` its ``_box_data``."""
        if self.is_ball:
            v = IntervalPoint(self.outer.center)
            rho = interval_sqrt(data[1], bits)
            r = rational_sqrt(self.outer.radius_sq)
            r = Interval(r) if r is not None else interval_sqrt(
                Interval(self.outer.radius_sq), bits
            )
            if direction == PUSH:
                scale = (r * Fraction(1, 2) + rho * Fraction(1, 2)) / rho
            else:
                scale = (rho * 2 - r) / rho
            return v + (box - v).scale(scale)
        bary, hsq = data
        pi = IntervalPoint([_eval_affine(f, box) for f in self.pi_forms])
        co = self._coeffs(bits)
        t = interval_sqrt(hsq, bits)
        bdist_sq = _boundary_dist_sq_box(self.outer, pi, bary)
        d = interval_sqrt(bdist_sq, bits)
        if direction == PUSH:
            scale = (co.a1 * d + co.a2 * t) / t
        else:
            scale = (co.b1 * t + co.b2 * d) / t
        return pi + (box - pi).scale(scale)


def _eval_affine(form: AffineForm, box: IntervalPoint) -> Interval:
    acc = Interval(form.c0)
    for c, coord in zip(form.c, box.coords, strict=True):
        if c != 0:
            acc = acc + coord * c
    return acc


def _boundary_dist_sq_box(tube: Tube, pi: IntervalPoint, bary) -> Interval:
    """Enclosure of dist(pi, boundary of base)^2 = min_i (f_i/||u_i||)^2.

    Valid when pi lies in (an enclosure of a point of) the base: there the
    facet-functional distances are exact.  bary entries may dip slightly
    negative for fat boxes; clamp at zero which only widens the enclosure.
    """
    best = None
    for b, nsq in zip(bary, tube.ff.norm_sq, strict=True):
        lo = max(Fraction(0), b.lo)
        hi = max(Fraction(0), b.hi)
        cand = Interval(lo * lo / nsq, hi * hi / nsq)
        if best is None:
            best = cand
        else:
            best = Interval(min(best.lo, cand.lo), min(best.hi, cand.hi))
    return best


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    return Fraction(isqrt(x.numerator * x.denominator) + 1, x.denominator)


@dataclass
class CarvedSet:
    """A marked set minus a family of half-open certified neighborhoods."""

    base: PLSet
    units: list[CarveUnit] = field(default_factory=list)
    _facet_forms: list[AffineForm] | None = field(default=None, init=False, repr=False,
                                                   compare=False)

    def member(self, x: Vec) -> bool:
        x = vec(x)
        if not self.base.contains_point(x):
            return False
        return not any(u.removes(x) for u in self.units if u.reaches(x))

    def closure_member(self, x: Vec) -> bool:
        """Exact predicate for the realized closure under the certificates."""
        x = vec(x)
        if not closure(self.base).contains_point(x):
            return False
        return not any(u.removes_from_closure(x) for u in self.units if u.reaches(x))

    def units_near(self, center: Vec, radius: Fraction) -> list[CarveUnit]:
        """Units whose outer neighborhood can meet the given ball: those
        whose reach box, grown by the radius, holds its center."""
        center = vec(center)
        return [u for u in self.units
                if all(lo - radius <= c <= hi + radius
                       for c, (lo, hi) in zip(center, u.reach_box))]

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

    A level touches only the units whose reach box meets the enclosure.
    The reach box holds the unit's closed outer neighborhood, outside of
    which its map is the identity, so a unit it misses would add nothing
    to the hull; the test compares rationals, so skipping is exact.  The
    units met are evaluated once per enclosure, and that data serves the
    outside test, the inside test and the formula alike.
    """

    def __init__(self, direction: str, levels: Sequence[Sequence[CarveUnit]], base: PLSet):
        assert direction in (PUSH, PULL)
        self.direction = direction
        self.levels = [list(lv) for lv in levels]
        self.base = base

    def _apply_level(self, units, box: IntervalPoint, bits: int) -> IntervalPoint:
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
        if len(candidates) == 1:
            return candidates[0]
        coords = []
        for k in range(len(box)):
            coords.append(
                Interval(
                    min(c[k].lo for c in candidates), max(c[k].hi for c in candidates)
                )
            )
        return IntervalPoint(coords)

    def evaluate(self, x, bits: int = 64) -> IntervalPoint:
        box = x if isinstance(x, IntervalPoint) else IntervalPoint(vec(x))
        order = self.levels if self.direction == PUSH else list(reversed(self.levels))
        for units in order:
            near = [u for u in units if u.meets(box)]
            # points exactly on a carved base boundary are fixed by the level
            if box.width == 0:
                p = box.mid()
                if any(u.on_boundary_base(p) for u in near):
                    continue
                if any(
                    (u.is_ball and p == u.outer.center)
                    or (not u.is_ball and u.outer.geometry.contains_open(p))
                    for u in near
                ):
                    raise OutOfDomain("map is undefined on the carved cell itself")
            box = self._apply_level(near, box, bits)
        return box

    def __call__(self, x, bits: int = 64) -> IntervalPoint:
        return self.evaluate(x, bits)


# ---------------------------------------------------------------------------
# carve levels


def _carve_tubes(
    k: Complex,
    top_ids: Sequence[int],
    prev_units: Sequence[CarveUnit],
    prev_ids: Sequence[int],
) -> list[CarveUnit]:
    """Tubes at one common eps around cells of one dimension >= 1.  Each
    cell's conditions (peers: the sibling cells at the candidate eps, the
    previous tubes at theirs) give its eps and then its certificate."""
    conditions = [
        _Conditions(k, t, [o for o in top_ids if o != t]
                    + [(pid, pu.outer.eps_sq) for pid, pu in zip(prev_ids, prev_units, strict=True)
                       if not pu.is_ball and _proper_peers(k, t, pid)])
        for t in top_ids
    ]
    eps_sq = snap_eps_sq(min(c.first_certified() for c in conditions))
    return [CarveUnit(Tube(k.coords(c.tau_id), eps_sq), c.certificate(eps_sq)) for c in conditions]


def _carve_units(
    k: Complex, cells: Sequence[int],
    prev_units: Sequence[CarveUnit], prev_ids: Sequence[int],
) -> list[CarveUnit]:
    """The certified units of one level of cells of one dimension: tubes,
    or radial collars around vertices, each after the collars before it."""
    if cells and k.dim_of(cells[0]) > 0:
        return _carve_tubes(k, cells, prev_units, prev_ids)
    units = []
    for v in cells:
        balls = [(w, u.outer.radius_sq) for w, u in zip(cells, units)]
        collar = _Collar(k, v, balls, prev_units, prev_ids)
        r_sq = _first_certified(collar, f"no collar radius certified for vertex {v}")
        units.append(CarveUnit(VertexBall(k.coords(v)[0], r_sq), collar.records(r_sq)))
    return units


def _level(s: PLSet, prev_units: Sequence[CarveUnit], units: list[CarveUnit]):
    """The set carved by the previous and the level's units, with the level's push and pull."""
    return (CarvedSet(s, list(prev_units) + units),
            DeformationMap(PUSH, [units], s), DeformationMap(PULL, [units], s))


def carve_level(
    s: PLSet, eta_top: Sequence,
    prev_units: Sequence[CarveUnit] = (), prev_ids: Sequence[int] = (),
) -> tuple[CarvedSet, DeformationMap, DeformationMap]:
    """Carve certified neighborhoods around obstruction cells of one
    dimension: tubes around cells of dimension >= 1, radial collars (see
    ``carve_base_vertices``) around vertices.

    Returns the carved set (the previous units and this level's, removed at
    parameter eps/2) together with the level's glued push map (onto the
    carved set) and pull map (from the closure of the carved set onto the
    closure of the input).
    """
    k = s.complex
    ids = [k.id_of(t) for t in eta_top]
    if len({k.dim_of(t) for t in ids}) > 1:
        raise PreconditionViolated("carve_level expects cells of equal dimension")
    if ids and k.dim_of(ids[0]) == 0:
        return carve_base_vertices(s, ids, prev_units=prev_units, prev_ids=prev_ids)
    obstruction = eta(s).members
    for t in ids:
        if t not in obstruction:
            raise PreconditionViolated(f"simplex {t} is not an obstruction cell")
    return _level(s, prev_units, _carve_units(k, ids, prev_units, prev_ids))


class _Collar:
    """The conditions on a collar around vertex vid, built once.

    They are the star clearance (exact), the disjointness from the earlier
    balls ``peer_balls`` ((vertex id, r^2) pairs), and for each earlier tube
    its cone compatibility when its base has vertex vid, or else the
    separation from it.  ``refusal(r_sq)`` names the first of them that
    fails at r_sq, or is None; ``records(r_sq)`` builds the certificate.
    """

    def __init__(self, k: Complex, vid: int, peer_balls: Sequence[tuple[int, Fraction]],
                 prev_units: Sequence[CarveUnit], prev_ids: Sequence[int]):
        self.star = _Conditions(k, vid)
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
        self.facets = [
            (fv, nsq, interval_sqrt(Interval(nsq), 64))
            for f, nsq in zip(tube.ff.forms, tube.ff.norm_sq, strict=True)
            if (fv := f(v)) != 0
        ]

    def _dominated(self, r_sq: Fraction):
        """Whether each facet away from v stays inactive in the ball, lazily."""
        rv = interval_sqrt(Interval(r_sq), 64)
        for fv, nsq, un in self.facets:
            # need eps* (f(v) - ||u|| r) > ||u|| r, squared conservatively
            margin = Interval(fv) - un * rv
            yield margin.lo > 0 and (margin.square() * self.tube.eps_star_sq).lo > r_sq * nsq

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


def carve_base_vertices(
    s: PLSet, eta0: Sequence,
    prev_units: Sequence[CarveUnit] = (), prev_ids: Sequence[int] = (),
) -> tuple[CarvedSet, DeformationMap, DeformationMap]:
    """Base case: radial collars around isolated obstruction vertices.

    Removes the closed ball of radius r/2 around each vertex; the radial
    maps rescale [0, r] onto [r/2, r] (push) and back (pull), fixing the
    r-sphere.  Radii are certified so each ball sits inside the open star
    of its vertex, peer balls are disjoint, and previously carved tubes
    look conical from the vertex (so the radial maps preserve them).
    """
    k = s.complex
    vids = [k.id_of(t) for t in eta0]
    obstruction = eta(s).members
    for v in vids:
        if k.dim_of(v) != 0:
            raise PreconditionViolated(f"simplex {v} is not a vertex")
        if v not in obstruction:
            raise PreconditionViolated(f"vertex {v} is not an obstruction cell")
    return _level(s, prev_units, _carve_units(k, vids, prev_units, prev_ids))


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
    units, ids = [], []
    for d in sorted({k.dim_of(t) for t in obstruction}, reverse=True):
        cells = sorted(t for t in obstruction if k.dim_of(t) == d)
        level = _carve_units(k, cells, units, ids)
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

    Pre: q lies exactly in the realized closure minus the set.  Reports the
    connectivity verdict and dimension estimates for the germ.
    """
    q = vec(q)
    if n.member(q):
        raise PreconditionViolated("probe center lies in the carved set")
    if not n.closure_member(q):
        raise PreconditionViolated("probe center is outside the closure")
    radius = Fraction(radius)
    near = CarvedSet(n.base, n.units_near(q, radius))
    return probe_shell(near.member, near.closure_member, q, radius, samples,
                       random.Random(seed), crossing_forms=n.crossing_forms())
