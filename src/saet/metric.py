"""Metric data of simplices: facet functionals and their normals, the
incenter with certified enclosures, strict separating hyperplanes, and the
certified choice of the tube half-width parameter.

Facet functionals are the barycentric coordinate forms: f_i vanishes on the
facet opposite vertex i, is nonnegative on the simplex, and the forms sum
to 1 identically.  Within the affine hull, dist(x, facet_i) equals
f_i(x)/||u_i|| where u_i is the in-hull gradient of f_i, so every distance
comparison can be cleared of square roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .complexes import Complex, Simplex
from .errors import CertificationFailure, DegenerateSimplex, NotCommonFace, PreconditionViolated
from .intervals import Interval, IntervalPoint, combination, sqrt_enclosure
from .lp import intersection_excess, linear_feasible
from .rationals import AffineForm, Vec, dot, rat_str, vec, vsub


class FaceFunctionals:
    """Barycentric facet forms of a d-simplex (d >= 1) with exact normals.

    ``forms[i]`` vanishes exactly on the facet opposite ``vertices[i]``;
    ``norm_sq[i]`` is the exact squared norm of the in-hull gradient u_i.
    The last form is 1 minus the sum of the others (gradient -u_last with
    u_last the sum of the other normals, as in the incenter construction).
    """

    def __init__(self, vertices: Sequence[Vec]):
        from .geometry import SimplexGeometry

        self.vertices = tuple(vec(v) for v in vertices)
        d = len(self.vertices) - 1
        if d < 1:
            raise DegenerateSimplex("facet functionals need dimension >= 1")
        self.d = d
        self.n = len(self.vertices[0])
        self.geometry = SimplexGeometry(self.vertices)
        ginv = self.geometry.gram_inv
        edges = self.geometry.edges
        base = self.geometry.base

        normals = []
        for i in range(d):
            u = tuple(
                sum(ginv[k][i] * edges[k][c] for k in range(d)) for c in range(self.n)
            )
            normals.append(u)
        u_last = tuple(sum(u[c] for u in normals) for c in range(self.n))
        self.normals = tuple(normals) + (u_last,)

        forms = [AffineForm(-dot(u, base), u) for u in normals]
        total = forms[0]
        for f in forms[1:]:
            total = total + f
        forms.append(AffineForm(1 - total.c0, [-c for c in total.c]))
        self.forms: tuple[AffineForm, ...] = tuple(forms)

        ns = [Fraction(ginv[i][i]) for i in range(d)]
        ns.append(sum(ginv[i][j] for i in range(d) for j in range(d)))
        self.norm_sq = tuple(ns)

    def facet(self, i: int) -> tuple[Vec, ...]:
        """Vertices of the facet opposite vertex i."""
        return tuple(v for j, v in enumerate(self.vertices) if j != i)

    def values_at_vertices(self, form: AffineForm) -> list[Fraction]:
        return [form(v) for v in self.vertices]


def face_functionals(vertices: Sequence[Vec]) -> FaceFunctionals:
    return FaceFunctionals(vertices)


def incenter(
    vertices: Sequence[Vec], target_width: Fraction | int = Fraction(1, 2**60)
) -> tuple[IntervalPoint, Interval]:
    """Enclosures of the incenter and the inradius dist(p, boundary).

    Solves the equidistance system: the incenter has barycentric weights
    ||u_i|| / sum_j ||u_j|| and inradius 1 / sum_j ||u_j||.  Refines the
    sqrt enclosures until both boxes are narrower than ``target_width``.
    """
    ff = FaceFunctionals(vertices)
    target = Fraction(target_width)
    if target <= 0:
        raise ValueError("target width must be positive")
    bits = 64
    while True:
        norms = [sqrt_enclosure(q, bits) for q in ff.norm_sq]
        total = Interval(0)
        for nrm in norms:
            total = total + nrm
        r = 1 / total
        weights = [nrm / total for nrm in norms]
        p = combination(weights, ff.vertices)
        if r.width <= target and p.width <= target:
            return p, r
        bits *= 2
        if bits > 1 << 22:  # pragma: no cover - norms are exact rationals
            raise CertificationFailure("incenter refinement did not converge")


class Hyperplane:
    """An affine form with nonzero linear part; the hyperplane is {h = 0}."""

    def __init__(self, form: AffineForm):
        if form.is_constant():
            raise ValueError("hyperplane needs a nonzero linear part")
        self.form = form

    def __call__(self, x: Vec) -> Fraction:
        return self.form(x)

    def gradient_norm_sq(self) -> Fraction:
        return dot(self.form.c, self.form.c)

    def __repr__(self):
        return f"Hyperplane({self.form!r})"


def _shared_vertex_positions(verts1, verts2):
    shared1 = [i for i, v in enumerate(verts1) if v in verts2]
    shared2 = [verts2.index(verts1[i]) for i in shared1]
    return shared1, shared2


def separating_hyperplane(verts1: Sequence[Vec], verts2: Sequence[Vec]) -> Hyperplane:
    """Strict separation of two simplices meeting in a common face.

    Returns h with h = 0 on the shared face, h <= -1 at the other vertices
    of the first simplex and h >= +1 at the other vertices of the second
    (so by convexity the open sides contain the simplices minus the face).
    Raises NotCommonFace when the intersection is not a common face.
    """
    verts1 = [vec(v) for v in verts1]
    verts2 = [vec(v) for v in verts2]
    shared1, shared2 = _shared_vertex_positions(verts1, verts2)
    excess = intersection_excess(verts1, verts2, shared1, shared2)
    if excess is not None and excess != 0:
        raise NotCommonFace("simplices meet outside their shared face")

    n = len(verts1[0])
    equalities = []
    bounds = []
    for i in shared1:
        equalities.append((list(verts1[i]) + [1], Fraction(0)))
    for i, v in enumerate(verts1):
        if i not in shared1:
            bounds.append(([-c for c in v] + [-1], Fraction(1)))  # h(v) <= -1
    for j, w in enumerate(verts2):
        if j not in shared2:
            bounds.append((list(w) + [1], Fraction(1)))  # h(w) >= +1
    sol = linear_feasible(n + 1, equalities, bounds)
    if sol is None:  # pragma: no cover - feasibility is guaranteed
        raise NotCommonFace("no separating hyperplane exists")
    return Hyperplane(AffineForm(sol[n], sol[:n]))


# ---------------------------------------------------------------------------
# certified epsilon selection

_DECISION_BITS = (64, 128, 256, 512)
# candidate eps^2 = 4^-1, ..., 4^-40 before certify_epsilon gives up
_MAX_EPS_ROUNDS = 40


def _decide_strict_less(lhs: Fraction, rhs_factory) -> bool | None:
    """Decide lhs < rhs where rhs_factory(bits) -> Interval enclosing rhs."""
    for bits in _DECISION_BITS:
        rhs = rhs_factory(bits)
        if lhs < rhs.lo:
            return True
        if rhs.hi <= lhs:
            return False
    return None


def _weighted_vertex_sum(ff: FaceFunctionals, form: AffineForm, bits: int) -> Interval:
    """Enclosure of sum_i ||u_i|| * form(v_i) over the simplex vertices."""
    acc = Interval(0)
    for q, v in zip(ff.norm_sq, ff.vertices, strict=True):
        acc = acc + sqrt_enclosure(q, bits) * form(v)
    return acc


def _apex_ball_clear_of_form(
    verts: Sequence[Vec], eps_sq: Fraction, form: AffineForm, side: int
) -> tuple[bool | None, dict]:
    """Certify that the apex ball of the eps-tube stays strictly on one side.

    ``side`` is +1 or -1: the sign the form must keep on the ball.  For a
    vertex simplex the ball is B(v, eps) directly and the test is exact.
    The tube condition with the inradius scale cancels: the requirement is
    (eps*)^2 ||grad form||^2 < (sum_i ||u_i|| form(v_i))^2 with the correct
    sign of the weighted sum.
    """
    grad_sq = dot(form.c, form.c)
    if len(verts) == 1:
        val = form(verts[0])
        ok = (val * side > 0) and (eps_sq * grad_sq < val * val)
        record = {
            "kind": "vertex_ball_clearance",
            "radius_sq": rat_str(eps_sq),
            "grad_sq": rat_str(grad_sq),
            "value": rat_str(val),
            "side": side,
        }
        return ok, record
    ff = FaceFunctionals(verts)
    eps_star_sq = eps_sq / (1 - eps_sq)
    lhs = eps_star_sq * grad_sq

    def rhs(bits):
        return _weighted_vertex_sum(ff, form, bits).square()

    def sign_ok(bits):
        s = _weighted_vertex_sum(ff, form, bits)
        if side > 0 and s.lo > 0:
            return True
        if side < 0 and s.hi < 0:
            return True
        if side > 0 and s.hi <= 0:
            return False
        if side < 0 and s.lo >= 0:
            return False
        return None

    sign_res = next((r for b in _DECISION_BITS if (r := sign_ok(b)) is not None), None)
    less_res = _decide_strict_less(lhs, rhs)
    record = {
        "kind": "apex_ball_clearance",
        "eps_sq": rat_str(eps_sq),
        "lhs_eps_star_sq_grad_sq": rat_str(lhs),
        "side": side,
    }
    if sign_res is None or less_res is None:
        return None, record
    return (sign_res and less_res), record


def _face_clearance_conditions(k: Complex, tau_id: int):
    """All (coface, opposite-vertex-form) pairs whose hyperplane the apex
    ball must avoid: facets of star simplices that do not contain tau."""
    tau = k.simplex(tau_id)
    out = []
    for sid in k.cofaces[tau_id]:
        sigma = k.simplex(sid)
        if sigma.dim < 1:
            continue
        ff = FaceFunctionals(k.coords(sid))
        for i, vid in enumerate(sigma.vertex_ids):
            # facet opposite vertex i contains tau iff tau avoids vertex i
            if vid in tau.vertex_ids:
                out.append((sid, i, ff))
    return out


def _check_epsilon(
    k: Complex,
    tau_id: int,
    eps_sq: Fraction,
    peers: Sequence[tuple[int, Fraction | None]],
) -> tuple[bool, list[dict]]:
    tau_verts = list(k.coords(tau_id))
    records: list[dict] = []
    ok_all = True

    face_conditions = _face_clearance_conditions(k, tau_id)
    if len(tau_verts) == 1:
        v = tau_verts[0]
        for sid, i, ff in face_conditions:
            val = ff.forms[i](v)
            lhs = eps_sq * ff.norm_sq[i]
            ok = lhs < val * val
            records.append(
                {
                    "kind": "face_clearance",
                    "sigma": sid,
                    "opposite_vertex": i,
                    "lhs": rat_str(lhs),
                    "rhs": rat_str(val * val),
                }
            )
            ok_all = ok_all and ok
    else:
        ff_tau = FaceFunctionals(tau_verts)
        eps_star_sq = eps_sq / (1 - eps_sq)
        for sid, i, ff in face_conditions:
            lhs = eps_star_sq * ff.norm_sq[i]
            form = ff.forms[i]

            def rhs(bits, _form=form):
                return _weighted_vertex_sum(ff_tau, _form, bits).square()

            res = _decide_strict_less(lhs, rhs)
            records.append(
                {
                    "kind": "face_clearance",
                    "sigma": sid,
                    "opposite_vertex": i,
                    "eps_star_sq_norm_sq": rat_str(lhs),
                }
            )
            ok_all = ok_all and (res is True)

    for peer_id, peer_eps in peers:
        peer_eps = eps_sq if peer_eps is None else peer_eps
        tau_ids = set(k.simplex(tau_id).vertex_ids)
        peer_ids = set(k.simplex(peer_id).vertex_ids)
        if tau_ids <= peer_ids or peer_ids <= tau_ids:
            raise PreconditionViolated(
                f"peer {peer_id} and tube base {tau_id} do not meet in a proper common face"
            )
        h = separating_hyperplane(k.coords(tau_id), k.coords(peer_id))
        ok1, rec1 = _apex_ball_clear_of_form(k.coords(tau_id), eps_sq, h.form, side=-1)
        ok2, rec2 = _apex_ball_clear_of_form(k.coords(peer_id), peer_eps, h.form, side=+1)
        rec1["peer"], rec2["peer"] = peer_id, tau_id
        records.extend((rec1, rec2))
        ok_all = ok_all and (ok1 is True) and (ok2 is True)
    return ok_all, records


def _normalize_peers(k: Complex, peers) -> list[tuple[int, Fraction | None]]:
    out = []
    for p in peers or ():
        if isinstance(p, tuple) and len(p) == 2 and not isinstance(p[0], int):
            out.append((k.id_of(p[0]), Fraction(p[1])))
        elif isinstance(p, tuple) and len(p) == 2:
            out.append((k.id_of(p[0]), None if p[1] is None else Fraction(p[1])))
        else:
            out.append((k.id_of(p), None))
    return out


def certify_epsilon(k: Complex, tau, peers=()) -> Fraction:
    """Certified eps^2 for the tube around tau inside its star.

    Guarantees (interval-certified strict inequalities): the closed tube
    minus the base boundary meets only star faces containing tau, and the
    tube stays strictly on its side of the separating hyperplane of every
    peer.  Deterministic policy: try eps^2 = 1/4, shrinking by 1/4 per
    failure.  Vertex bases use balls of radius eps.
    """
    tau_id = k.id_of(tau)
    norm_peers = _normalize_peers(k, peers)
    eps_sq = Fraction(1, 4)
    for _ in range(_MAX_EPS_ROUNDS):
        ok, _ = _check_epsilon(k, tau_id, eps_sq, norm_peers)
        if ok:
            return eps_sq
        eps_sq /= 4
    raise CertificationFailure(
        f"no eps certified for simplex {tau_id} after {_MAX_EPS_ROUNDS} rounds"
    )


def certificate_for(k: Complex, tau, eps_sq: Fraction, peers=()) -> list[dict]:
    """Re-check a given eps^2 and return the certificate records.

    Raises CertificationFailure when any inequality cannot be certified.
    """
    tau_id = k.id_of(tau)
    ok, records = _check_epsilon(k, tau_id, Fraction(eps_sq), _normalize_peers(k, peers))
    if not ok:
        raise CertificationFailure(f"eps^2 = {eps_sq} fails certification for {tau_id}")
    for r in records:
        r["tau"] = tau_id
        r["eps_sq"] = rat_str(Fraction(eps_sq))
    return records
