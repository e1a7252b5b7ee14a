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
from typing import Sequence

from .complexes import Complex
from .errors import CertificationFailure, DegenerateSimplex, NotCommonFace, PreconditionViolated
from .geometry import SimplexGeometry, common_face
from .intervals import Interval, IntervalPoint, combination, sqrt_enclosure
from .lp import linear_feasible
from .rationals import AffineForm, Vec, dot, rat_str, vec


class FaceFunctionals:
    """Barycentric facet forms of a d-simplex (d >= 1) with exact norms.

    ``forms[i]`` vanishes exactly on the facet opposite ``vertices[i]``
    (``SimplexGeometry.forms``); ``norm_sq[i]`` is the exact squared norm
    of its in-hull gradient u_i.  The last gradient is minus the sum of the
    others, as in the incenter construction.  The simplex is given by its
    vertices or by its ``SimplexGeometry``, which is then shared, as a
    complex's cached one is.
    """

    def __init__(self, simplex: Sequence[Vec] | SimplexGeometry):
        shared = simplex if isinstance(simplex, SimplexGeometry) else None
        self.vertices = shared.vertices if shared else tuple(vec(v) for v in simplex)
        d = len(self.vertices) - 1
        if d < 1:
            raise DegenerateSimplex("facet functionals need dimension >= 1")
        self.d = d
        self.n = len(self.vertices[0])
        self.geometry = shared or SimplexGeometry(self.vertices)
        self.forms: tuple[AffineForm, ...] = self.geometry.forms

        ginv = self.geometry.gram_inv
        ns = [Fraction(ginv[i][i]) for i in range(d)]
        ns.append(sum(ginv[i][j] for i in range(d) for j in range(d)))
        self.norm_sq = tuple(ns)


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


def separating_hyperplane(simplex1: Sequence[Vec] | SimplexGeometry,
                          simplex2: Sequence[Vec] | SimplexGeometry) -> Hyperplane:
    """Strict separation of two simplices meeting in a common face.

    Each simplex is given by its vertices or by its ``SimplexGeometry``
    (a complex's cached one spares the common-face test a Gram inversion).
    Returns h with h = 0 on the shared face, h <= -1 at the other vertices
    of the first simplex and h >= +1 at the other vertices of the second
    (so by convexity the open sides contain the simplices minus the face).
    Raises NotCommonFace when the intersection is not a common face.
    """
    geo1, geo2 = (s if isinstance(s, SimplexGeometry) else SimplexGeometry([vec(v) for v in s])
                  for s in (simplex1, simplex2))
    verts1, verts2 = list(geo1.vertices), list(geo2.vertices)
    shared1, shared2 = _shared_vertex_positions(verts1, verts2)
    if not common_face(geo1, geo2, shared1, shared2):
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
# a tube's eps^2, or a collar's r^2, is the first of these that is certified
_EPS_SQ_CANDIDATES = tuple(Fraction(1, 4**j) for j in range(1, 41))


def _decide_strict_less(lhs: Fraction, rhs_factory) -> bool | None:
    """Decide lhs < rhs where rhs_factory(bits) -> Interval enclosing rhs."""
    for bits in _DECISION_BITS:
        rhs = rhs_factory(bits)
        if lhs < rhs.lo:
            return True
        if rhs.hi <= lhs:
            return False
    return None


def _base(k: Complex, sid: int) -> Vec | FaceFunctionals:
    """A vertex as its point, a simplex of dimension >= 1 as its facet forms
    on the complex's cached geometry."""
    return k.coords(sid)[0] if k.dim_of(sid) == 0 else FaceFunctionals(k.geometry(sid))


class _Clearance:
    """The eps-neighbourhood of a base keeps ``form`` strictly nonzero.

    A vertex base v has the ball B(v, eps), and the test
    eps^2 q < form(v)^2 is exact.  A simplex base (its FaceFunctionals) has
    the tube's apex balls; the inradius scale cancels, and the test reads
    (eps*)^2 q < (sum_i ||u_i|| form(v_i))^2.  ``q`` is the squared
    gradient norm that goes with the form.  With ``side`` +1 or -1 the form
    must also keep that sign.  Only eps varies between tests: the sign is
    decided here, and the weighted sum is enclosed once per precision.
    """

    def __init__(self, base: Vec | FaceFunctionals, form: AffineForm, q: Fraction, side: int = 0):
        self.form, self.q, self.side = form, q, side
        self.ff = base if isinstance(base, FaceFunctionals) else None
        if self.ff is None:
            self.value = form(base)
            self.sign_ok = not side or self.value * side > 0
        else:
            self._sums: dict[int, Interval] = {}
            self.sign_ok = not side or _decide_strict_less(
                Fraction(0), lambda bits: self._sum(bits) * side
            ) is True

    def _sum(self, bits: int) -> Interval:
        """Enclosure of sum_i ||u_i|| form(v_i) over the simplex vertices."""
        if bits not in self._sums:
            acc = Interval(0)
            for q, v in zip(self.ff.norm_sq, self.ff.vertices, strict=True):
                acc = acc + sqrt_enclosure(q, bits) * self.form(v)
            self._sums[bits] = acc
        return self._sums[bits]

    def test(self, eps_sq: Fraction) -> tuple[bool, Fraction]:
        """Whether the test is certified at eps^2, and its left side."""
        if self.ff is None:
            lhs = eps_sq * self.q
            return self.sign_ok and lhs < self.value * self.value, lhs
        lhs = eps_sq / (1 - eps_sq) * self.q
        less = _decide_strict_less(lhs, lambda bits: self._sum(bits).square())
        return self.sign_ok and less is True, lhs

    def record(self, eps_sq: Fraction, lhs: Fraction) -> dict:
        if self.ff is None:
            return {
                "kind": "vertex_ball_clearance",
                "radius_sq": rat_str(eps_sq),
                "grad_sq": rat_str(self.q),
                "value": rat_str(self.value),
                "side": self.side,
            }
        return {
            "kind": "apex_ball_clearance",
            "eps_sq": rat_str(eps_sq),
            "lhs_eps_star_sq_grad_sq": rat_str(lhs),
            "side": self.side,
        }


def _proper_peers(k: Complex, a: int, b: int) -> bool:
    """Whether simplices a and b meet in a proper common face of both (or not at all)."""
    va, vb = set(k.simplex(a).vertex_ids), set(k.simplex(b).vertex_ids)
    return not (va <= vb or vb <= va)


class _Conditions:
    """The certificate conditions of a neighbourhood of tau, built once.

    Building computes all that does not depend on eps: tau's facet forms,
    the form and norm of each star facet that misses tau, and per peer the
    separating hyperplane and the peer's facet forms.  ``check`` then only
    evaluates inequalities, for the eps search and the certificate alike.
    """

    def __init__(self, k: Complex, tau_id: int, peers=()):
        self.k, self.tau_id = k, tau_id
        self.base = _base(k, tau_id)
        tau_vertices = k.simplex(tau_id).vertex_ids
        self.faces = []
        for sid in k.cofaces[tau_id]:
            sigma = k.simplex(sid)
            if sigma.dim < 1:
                continue
            ff = FaceFunctionals(k.geometry(sid))
            for i, vid in enumerate(sigma.vertex_ids):
                # the facet opposite vertex i misses tau iff tau has vertex i
                if vid in tau_vertices:
                    self.faces.append((sid, i, _Clearance(self.base, ff.forms[i], ff.norm_sq[i])))
        self.peers = [(pid, self.separation(pid, e)) for pid, e in _normalize_peers(k, peers)]

    def separation(self, peer_id: int, peer_eps_sq: Fraction | None = None):
        """check(eps_sq) -> (refusal, [tau's record, the peer's record]) for the
        hyperplane h = separating_hyperplane(tau, peer): tau's neighbourhood
        stays on h < 0 at eps^2, the peer's on h > 0 at its own eps^2 (at
        eps^2 when it has none)."""
        k, tau_id = self.k, self.tau_id
        if not _proper_peers(k, tau_id, peer_id):
            raise PreconditionViolated(
                f"peer {peer_id} and tube base {tau_id} do not meet in a proper common face"
            )
        h = separating_hyperplane(k.geometry(tau_id), k.geometry(peer_id))
        q = h.gradient_norm_sq()
        near = _Clearance(self.base, h.form, q, side=-1)
        far = _Clearance(_base(k, peer_id), h.form, q, side=+1)

        def check(eps_sq: Fraction) -> tuple[str | None, list[dict]]:
            peer_eps = eps_sq if peer_eps_sq is None else peer_eps_sq
            (ok1, lhs1), (ok2, lhs2) = near.test(eps_sq), far.test(peer_eps)
            near_rec, far_rec = near.record(eps_sq, lhs1), far.record(peer_eps, lhs2)
            refused = (_refusal(ok1, near_rec, f"of simplex {tau_id} against peer {peer_id}")
                       or _refusal(ok2, far_rec, f"of peer {peer_id} against simplex {tau_id}"))
            return refused, [near_rec, far_rec]

        return check

    def check(self, eps_sq: Fraction) -> tuple[str | None, list[dict]]:
        """The first inequality that fails at eps^2 (None if none), and the records."""
        refused, records = None, []
        for sid, i, clearance in self.faces:
            ok, lhs = clearance.test(eps_sq)
            record = {"kind": "face_clearance", "sigma": sid, "opposite_vertex": i}
            if clearance.ff is None:
                record.update(lhs=rat_str(lhs), rhs=rat_str(clearance.value**2))
            else:
                record["eps_star_sq_norm_sq"] = rat_str(lhs)
            records.append(record)
            refused = refused or _refusal(ok, record, f"of simplex {sid} opposite vertex {i}")
        for peer_id, separated in self.peers:
            why, (rec1, rec2) = separated(eps_sq)
            rec1["peer"], rec2["peer"] = peer_id, self.tau_id
            records.extend((rec1, rec2))
            refused = refused or why
        return refused, records

    def first_certified(self) -> Fraction:
        """The first candidate eps^2 at which every condition holds."""
        eps_sq, _ = _first_certified(
            self.check,
            f"no eps certified for simplex {self.tau_id} after {len(_EPS_SQ_CANDIDATES)} rounds",
        )
        return eps_sq

    def certificate(self, eps_sq: Fraction) -> list[dict]:
        """The records at eps^2 stamped with tau and eps^2, or CertificationFailure."""
        refused, records = self.check(eps_sq)
        if refused is not None:
            raise CertificationFailure(
                f"eps^2 = {eps_sq} fails certification for {self.tau_id}: {refused} fails"
            )
        for r in records:
            r["tau"] = self.tau_id
            r["eps_sq"] = rat_str(eps_sq)
        return records


def _refusal(ok: bool, record: dict, where: str) -> str | None:
    """None for a certified inequality, else its kind and where it sits."""
    return None if ok else f"{record['kind']} {where}"


def _normalize_peers(k: Complex, peers) -> list[tuple[int, Fraction | None]]:
    """Peers as (id, eps^2) pairs, with None for "the candidate eps^2".

    An entry is read as an (id, eps^2) pair only when the id is an int and
    eps^2 a Fraction in (0, 1); any other entry names one simplex, which
    ``k.id_of`` resolves.
    """
    out = []
    for p in peers or ():
        if (isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], int)
                and isinstance(p[1], Fraction) and 0 < p[1] < 1):
            out.append(p)
        else:
            out.append((k.id_of(p), None))
    return out


def _first_certified(check, failure: str) -> tuple[Fraction, list[dict]]:
    """The first candidate eps^2 at which ``check`` holds, with its records;
    failing that, the inequality that refused the last candidate."""
    for eps_sq in _EPS_SQ_CANDIDATES:
        refused, records = check(eps_sq)
        if refused is None:
            return eps_sq, records
    raise CertificationFailure(f"{failure}: {refused} fails at the last candidate")


def certify_epsilon(k: Complex, tau, peers=()) -> Fraction:
    """Certified eps^2 for the tube around tau inside its star.

    Guarantees (interval-certified strict inequalities): the closed tube
    minus the base boundary meets only star faces containing tau, and the
    tube stays strictly on its side of the separating hyperplane of every
    peer.  Deterministic policy: try eps^2 = 1/4, shrinking by 1/4 per
    failure down to 4^-40.  Vertex bases use balls of radius eps.
    """
    return _Conditions(k, k.id_of(tau), peers).first_certified()


def certificate_for(k: Complex, tau, eps_sq: Fraction, peers=()) -> list[dict]:
    """Re-check a given eps^2 and return the certificate records.

    Raises CertificationFailure when any inequality cannot be certified.
    """
    return _Conditions(k, k.id_of(tau), peers).certificate(Fraction(eps_sq))
