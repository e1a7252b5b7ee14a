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
from math import isqrt
from typing import Sequence

from .complexes import Complex, PLSet, closure, eta
from .errors import (
    BadOrder,
    OutOfDomain,
    PreconditionViolated,
    RecursionDepthExceeded,
)
from .intervals import Interval, IntervalPoint, interval_sqrt
from .metric import (
    FaceFunctionals,
    _Conditions,
    _first_certified,
    certificate_for,
    certify_epsilon,
    _proper_peers,
)
from .probe import ProbeReport, probe_shell
from .rationals import AffineForm, Vec, dot, rat_str, rational_sqrt, solve, vec
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
        if self.is_ball:
            rho_sq = box.dist_sq(IntervalPoint(self.outer.center))
            return None, None, rho_sq
        bary = [_eval_affine(f, box) for f in self.outer.ff.forms]
        pi = IntervalPoint([_eval_affine(f, box) for f in self.pi_forms])
        hsq = Interval(0)
        for f in self.diff_forms:
            hsq = hsq + _eval_affine(f, box).square()
        return bary, pi, hsq

    def certainly_outside_outer(self, box: IntervalPoint) -> bool:
        if self.is_ball:
            _, _, rho_sq = self._box_data(box)
            return rho_sq.lo > self.outer.radius_sq
        bary, _, hsq = self._box_data(box)
        if any(b.hi < 0 for b in bary):
            return True
        ess = self.outer.eps_star_sq
        for b, nsq in zip(bary, self.outer.ff.norm_sq, strict=True):
            cond = hsq * nsq - (b.square() * ess)
            if cond.lo > 0:
                return True
        return False

    def certainly_inside_outer_open(self, box: IntervalPoint) -> bool:
        if self.is_ball:
            _, _, rho_sq = self._box_data(box)
            return rho_sq.hi < self.outer.radius_sq
        bary, _, hsq = self._box_data(box)
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
        if self.is_ball:
            raise TypeError("ball units use closed-form radial scales")
        s_sq = self.inner.eps_star_sq
        sp_sq = self.outer.eps_star_sq
        s = interval_sqrt(Interval(s_sq), bits)
        sp = interval_sqrt(Interval(sp_sq), bits)
        return deformation_coeffs(s, sp)

    def map_box(self, box: IntervalPoint, direction: str, bits: int) -> IntervalPoint:
        """Apply this unit's push or pull formula to an enclosure."""
        if self.is_ball:
            v = IntervalPoint(self.outer.center)
            rho = interval_sqrt(box.dist_sq(v), bits)
            r = rational_sqrt(self.outer.radius_sq)
            r = Interval(r) if r is not None else interval_sqrt(
                Interval(self.outer.radius_sq), bits
            )
            if direction == PUSH:
                scale = (r * Fraction(1, 2) + rho * Fraction(1, 2)) / rho
            else:
                scale = (rho * 2 - r) / rho
            return v + (box - v).scale(scale)
        bary, pi, hsq = self._box_data(box)
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
        return not any(u.removes(x) for u in self.units)

    def closure_member(self, x: Vec) -> bool:
        """Exact predicate for the realized closure under the certificates."""
        x = vec(x)
        if not closure(self.base).contains_point(x):
            return False
        return not any(u.removes_from_closure(x) for u in self.units)

    def units_near(self, center: Vec, radius: Fraction) -> list[CarveUnit]:
        """Units whose outer neighborhood can meet the given ball.

        A tube stays within the bounding box of its base inflated by the
        maximal normal height eps* diam; a ball within center +- r.
        """
        center = vec(center)
        out = []
        for u in self.units:
            if u.is_ball:
                reach = _sqrt_upper(u.outer.radius_sq)
                pts = (u.outer.center,)
            else:
                diam_sq = max(
                    sum((a - b) ** 2 for a, b in zip(v, w))
                    for v in u.outer.vertices
                    for w in u.outer.vertices
                )
                reach = _sqrt_upper(u.outer.eps_star_sq * diam_sq)
                pts = u.outer.vertices
            pad = reach + radius
            miss = any(
                c < min(p[k] for p in pts) - pad or c > max(p[k] for p in pts) + pad
                for k, c in enumerate(center)
            )
            if not miss:
                out.append(u)
        return out

    def crossing_forms(self) -> list[AffineForm]:
        """Affine forms whose zero sets carry the PL part of the boundary:
        facet functionals of all top cells (built once per carved set)
        plus rational wall forms of codimension-1 carved tubes (present
        thanks to the eps snapping)."""
        if self._facet_forms is None:
            k = self.base.complex
            tops = [FaceFunctionals(k.coords(sid)) for sid in k.top_ids if k.dim_of(sid) >= 1]
            self._facet_forms = list(dict.fromkeys(f for ff in tops for f in ff.forms))
        forms = list(self._facet_forms)
        for u in self.units:
            forms.extend(_wall_forms(u))
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
            if u.certainly_outside_outer(box):
                continue
            candidates.append(u.map_box(box, self.direction, bits))
            if u.certainly_inside_outer_open(box):
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
            # points exactly on a carved base boundary are fixed by the level
            if box.width == 0:
                p = box.mid()
                if any(u.on_boundary_base(p) for u in units):
                    continue
                if any(
                    (u.is_ball and p == u.outer.center)
                    or (not u.is_ball and u.outer.geometry.contains_open(p))
                    for u in units
                ):
                    raise OutOfDomain("map is undefined on the carved cell itself")
            box = self._apply_level(units, box, bits)
        return box

    def __call__(self, x, bits: int = 64) -> IntervalPoint:
        return self.evaluate(x, bits)


def push_point(dmap: DeformationMap, x, bits: int = 64) -> IntervalPoint:
    """Evaluate a deformation map at a rational point with a domain check."""
    x = vec(x)
    if dmap.direction == PUSH and not dmap.base.contains_point(x):
        raise OutOfDomain(f"{x} is not in the map's domain set")
    return dmap.evaluate(x, bits)


# ---------------------------------------------------------------------------
# carve levels


def _carve_tubes(
    s: PLSet,
    top_ids: Sequence[int],
    prev_units: Sequence[CarveUnit],
    prev_ids: Sequence[int],
) -> list[CarveUnit]:
    k = s.complex
    obstruction = eta(s).members
    for t in top_ids:
        if t not in obstruction:
            raise PreconditionViolated(f"simplex {t} is not an obstruction cell")
    # peers: sibling cells at the candidate eps plus previous tubes at theirs
    peers = {
        t: [o for o in top_ids if o != t]
        + [(pid, pu.outer.eps_sq) for pid, pu in zip(prev_ids, prev_units, strict=True)
           if not pu.is_ball and _proper_peers(k, t, pid)]
        for t in top_ids
    }
    eps_sq = snap_eps_sq(min(certify_epsilon(k, t, peers[t]) for t in top_ids))
    return [
        CarveUnit(Tube(k.coords(t), eps_sq), certificate_for(k, t, eps_sq, peers[t]))
        for t in top_ids
    ]


def carve_level(
    s: PLSet, eta_top: Sequence,
    prev_units: Sequence[CarveUnit] = (), prev_ids: Sequence[int] = (),
) -> tuple[CarvedSet, DeformationMap, DeformationMap]:
    """Carve certified tubes around top-dimensional obstruction cells.

    Returns the carved set (removal at parameter eps/2) together with the
    glued push map (onto the carved set) and pull map (from the closure of
    the carved set onto the closure of the input).
    """
    k = s.complex
    top_ids = [k.id_of(t) for t in eta_top]
    if not top_ids:
        carved = CarvedSet(s, [])
        ident = DeformationMap(PUSH, [[]], s)
        return carved, ident, DeformationMap(PULL, [[]], s)
    dims = {k.dim_of(t) for t in top_ids}
    if len(dims) != 1:
        raise PreconditionViolated("carve_level expects cells of equal dimension")
    if dims == {0}:
        return carve_base_vertices(s, eta_top, prev_units=prev_units, prev_ids=prev_ids)
    units = _carve_tubes(s, top_ids, prev_units, prev_ids)
    carved = CarvedSet(s, list(prev_units) + units)
    push = DeformationMap(PUSH, [units], s)
    pull = DeformationMap(PULL, [units], s)
    return carved, push, pull


def _collar_conditions(
    k: Complex, vid: int, peer_balls: Sequence[tuple[int, Fraction]],
    prev_units: Sequence[CarveUnit], prev_ids: Sequence[int],
):
    """The conditions on a collar around vertex vid, built once.

    Returns check(r_sq) -> (ok, records): the star clearance (exact), the
    disjointness from the earlier balls ``peer_balls`` ((vertex id, r^2)
    pairs), and for each earlier tube its cone compatibility when its base
    has vertex vid, or else the separation from it.
    """
    star = _Conditions(k, vid)
    v = star.base
    # every candidate r^2 is a power of 1/4, so the radii are rational
    balls = [(wid, rational_sqrt(w_rsq), sum((a - b) ** 2 for a, b in zip(v, k.coords(wid)[0])))
             for wid, w_rsq in peer_balls]
    tubes = [
        _cone_compatibility(k, vid, pid, pu.outer) if vid in k.simplex(pid).vertex_ids
        else star.separation(pid, pu.outer.eps_sq)
        for pid, pu in zip(prev_ids, prev_units, strict=True) if not pu.is_ball
    ]

    def check(r_sq: Fraction) -> tuple[bool, list[dict]]:
        ok, records = star.check(r_sq)
        r = rational_sqrt(r_sq)
        for wid, rw, gap_sq in balls:
            cond = (r + rw) ** 2 < gap_sq
            records.append({"kind": "ball_disjointness", "peer": wid, "ok": cond})
            ok = ok and cond
        for tube_check in tubes:
            tube_ok, tube_records = tube_check(r_sq)
            ok = ok and tube_ok
            records.extend(tube_records)
        return ok, records

    return check


def _cone_compatibility(k: Complex, vid: int, pid: int, tube: Tube):
    """Within the ball the tube is a cone from v, so the radial collar maps
    preserve its membership (every face of its base that avoids v lies in
    the facet opposite v), and the base's facets away from v stay inactive
    inside the ball."""
    v = k.coords(vid)[0]
    opposite = tuple(i for i, w in enumerate(k.simplex(pid).vertex_ids) if w != vid)
    d_sq = k.geometry(pid).face_geometry(opposite).dist_sq(v)
    facets = [
        (fv, nsq, interval_sqrt(Interval(nsq), 64))
        for f, nsq in zip(tube.ff.forms, tube.ff.norm_sq, strict=True)
        if (fv := f(v)) != 0
    ]

    def check(r_sq: Fraction) -> tuple[bool, list[dict]]:
        ok = 4 * r_sq < d_sq
        records = [{"kind": "cone_compatibility", "tube": pid,
                    "lhs": rat_str(4 * r_sq), "rhs": rat_str(d_sq)}]
        rv = interval_sqrt(Interval(r_sq), 64)
        for fv, nsq, un in facets:
            # need eps* (f(v) - ||u|| r) > ||u|| r, squared conservatively
            margin = Interval(fv) - un * rv
            cond = margin.lo > 0 and (margin.square() * tube.eps_star_sq).lo > r_sq * nsq
            records.append({"kind": "facet_domination", "tube": pid, "ok": cond})
            ok = ok and cond
        return ok, records

    return check


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
    chosen: dict[int, Fraction] = {}
    certs: dict[int, list[dict]] = {}
    for v in vids:
        check = _collar_conditions(k, v, list(chosen.items()), prev_units, prev_ids)
        chosen[v], certs[v] = _first_certified(check, f"no collar radius certified for vertex {v}")
    units = [
        CarveUnit(VertexBall(k.coords(v)[0], chosen[v]), certs[v]) for v in vids
    ]
    carved = CarvedSet(s, list(prev_units) + units)
    push = DeformationMap(PUSH, [units], s)
    pull = DeformationMap(PULL, [units], s)
    return carved, push, pull


@dataclass
class EmbedResult:
    carved: CarvedSet
    pull: DeformationMap
    push: DeformationMap
    levels: list[dict]
    certificates: list[dict]


def appropriate_embed(s: PLSet) -> EmbedResult:
    """Carve until no obstruction cell of the original skeleton remains.

    Inducts on the dimension of the obstruction set: each level carves its
    top-dimensional cells, the residual obstruction loses a dimension, and
    isolated vertices get radial collars.  The pull map is the composition
    of the level pulls; all eps certificates are returned.
    """
    k = s.complex
    residual = set(eta(s).members)
    level_units: list[list[CarveUnit]] = []
    level_info: list[dict] = []
    all_units: list[CarveUnit] = []
    all_ids: list[int] = []
    certificates: list[dict] = []
    guard = k.dim + 2
    while residual:
        if len(level_info) > guard:  # pragma: no cover
            raise RecursionDepthExceeded("obstruction dimension failed to decrease")
        d = max(k.dim_of(t) for t in residual)
        tops = sorted(t for t in residual if k.dim_of(t) == d)
        carved, _, _ = carve_level(s, tops, prev_units=all_units, prev_ids=all_ids)
        new_units = carved.units[len(all_units):]
        level_units.append(new_units)
        for t, u in zip(tops, new_units, strict=True):
            all_units.append(u)
            all_ids.append(t)
            for rec in u.certificate:
                certificates.append(rec)
        level_info.append({"dim": d, "cells": tops,
                           "eps_sq": rat_str(new_units[0].outer.eps_sq if not new_units[0].is_ball
                                             else new_units[0].outer.radius_sq)})
        residual -= set(tops)
        if residual:
            d_next = max(k.dim_of(t) for t in residual)
            assert d_next < d  # monotone progress
    carved = CarvedSet(s, all_units)
    pull = DeformationMap(PULL, level_units, s)
    push = DeformationMap(PUSH, level_units, s)
    return EmbedResult(carved, pull, push, level_info, certificates)


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
