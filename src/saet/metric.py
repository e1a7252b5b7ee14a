"""Metric data of simplices: facet functionals and their normals, the
incenter with certified enclosures, strict separating hyperplanes, and the
certified choice of the tube half-width parameter.

Facet functionals are the barycentric coordinate forms: f_i vanishes on the
facet opposite vertex i, is nonnegative on the simplex, and the forms sum
to 1 identically.  Within the affine hull, dist(x, facet_i) equals
f_i(x)/||u_i|| where u_i is the in-hull gradient of f_i, so every distance
comparison can be cleared of square roots.

The tube certificate decides each clearance over the integers: a tube's
apex-ball clearance compares a rational with the square of a sum of square
roots, which ``_Clearance`` encloses between integer bounds over one
common denominator, refined by bit count.  The eps search asks each
condition only for the first inequality that refuses a candidate; the
certificate records and their strings are built once, at the accepted eps.

A peer pair is decided by reach first.  Each neighbourhood lies in its
reach box (``reach_bounds``, a ``BoxNumerators``), so two boxes that miss
each other on some axis (``separating_axis``) prove the closed
neighbourhoods disjoint, which is all that a separating plane certifies.
The plane, and the LP that finds it, is built only for a pair whose boxes
meet, the first time they do (McConnell, Mehlhorn, Naeher and Schweitzer,
"Certifying algorithms", 2011: the cheap proof first).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Sequence

from .complexes import Complex
from .errors import CertificationFailure, DegenerateSimplex, NotCommonFace, PreconditionViolated
from .geometry import SimplexGeometry, common_face
from .intervals import BoxNumerators, Interval, IntervalPoint, combination, sqrt_enclosure
from .lp import linear_feasible
from .rationals import AffineForm, Vec, dot, homogeneous, rat_str, rational_sqrt, vec


class FaceFunctionals:
    """Barycentric facet forms of a d-simplex (d >= 1) with exact norms.

    ``forms[i]`` vanishes exactly on the facet opposite ``vertices[i]``
    (``SimplexGeometry.forms``); ``norm_sq[i]`` is the exact squared norm
    of its in-hull gradient u_i, read off the integer row of the form
    (``SimplexGeometry.integral``) as |row_i[1:]|^2 / D^2.  The last
    gradient is minus the sum of the others, as in the incenter
    construction.  The simplex is given by its vertices or by its
    ``SimplexGeometry``, which is then shared, as a complex's cached one is.
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
        table = self.geometry.integral
        self.norm_sq = tuple(Fraction(sum(c * c for c in row[1:]), table.d_scale ** 2)
                             for row in table.rows)


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


def reach_bounds(rows: Sequence[Sequence[int]], eps_sq: Fraction) -> BoxNumerators:
    """A box that holds the closed eps-neighbourhood of a base, whose
    vertices are the integer rows (q, p_1, ..., p_n).

    The box is the vertices' box (``BoxNumerators.of_points``) inflated by
    a reach, rounded up to (isqrt(N M) + 1) / M for a reach^2 of N / M in
    lowest terms.  A vertex has the ball of radius eps, so the reach is eps.
    A simplex has the tube at eps (0 < eps^2 < 1), whose points over the
    base have height at most eps* times their projection's distance to the
    base's boundary, which is at most the base's diameter, so the reach is
    eps* diam.
    """
    box = BoxNumerators.of_points(rows)
    q = box.q
    reach_sq = eps_sq
    if len(rows) > 1:
        # eps*^2 diam^2 = eps^2 / (1 - eps^2) * diam^2, with diam^2 = d / q^2
        points = [[c * (q // row[0]) for c in row[1:]] for row in rows]
        d = max(sum((x - y) ** 2 for x, y in zip(v, w)) for v in points for w in points)
        reach_sq *= d / ((1 - eps_sq) * q * q)
    num, den = reach_sq.numerator, reach_sq.denominator
    reach = (isqrt(num * den) + 1) * q
    return BoxNumerators(q * den, tuple(lo * den - reach for lo in box.lo),
                         tuple(hi * den + reach for hi in box.hi))


# ---------------------------------------------------------------------------
# certified epsilon selection

_DECISION_BITS = (64, 128, 256, 512)
# a tube's eps^2, or a collar's r^2, is the first of these that is certified
_EPS_SQ_CANDIDATES = tuple(Fraction(1, 4**j) for j in range(1, 41))


def _base(k: Complex, sid: int) -> Vec | FaceFunctionals:
    """A vertex as its point, a simplex of dimension >= 1 as its facet forms
    on the complex's cached geometry."""
    return k.coords(sid)[0] if k.dim_of(sid) == 0 else FaceFunctionals(k.geometry(sid))


class _Clearance:
    """The eps-neighbourhood of a base keeps ``form`` strictly nonzero.

    A vertex base v has the ball B(v, eps), and the test
    eps^2 q < form(v)^2 is exact.  A simplex base (its FaceFunctionals) has
    the tube's apex balls; the inradius scale cancels, and the test reads
    (eps*)^2 q < S^2 with S = sum_i ||u_i|| form(v_i).  ``q`` is the squared
    gradient norm that goes with the form.  With ``side`` +1 or -1 the form
    must also keep that sign.  Only eps varies between tests: the sign is
    decided here, and S is enclosed once per precision.

    S is enclosed over the integers.  The values form(v_i) are F_i / C for
    one common C, read from the integer rows of the form and of the
    vertices.  The norms q_i = ||u_i||^2 that are rational squares have
    exact roots over one common denominator R; at b bits each other root
    lies in [r_i, r_i + 1] / 2^b with r_i = isqrt(floor(q_i 4^b)), and its
    term takes the end that the sign of F_i makes low or high.  So S lies
    in [lo, hi] / (2^b C R), the same rational interval as the sum of
    ``intervals.sqrt_enclosure(q_i, b) * form(v_i)``, and every comparison
    cross-multiplies integers.
    """

    def __init__(self, base: Vec | FaceFunctionals, form: AffineForm, q: Fraction, side: int = 0):
        self.q, self.side = q, side
        self.ff = base if isinstance(base, FaceFunctionals) else None
        if self.ff is None:
            self.kind = "vertex_ball_clearance"
            self.value = form(base)
            self.sign_ok = not side or self.value * side > 0
            return
        self.kind = "apex_ball_clearance"
        c, *row = homogeneous((form.c0, *form.c))
        points = self.ff.geometry.integral.points
        values = [sum(map(mul, row, p)) for p in points]
        roots = [rational_sqrt(q) for q in self.ff.norm_sq]
        r_den = lcm(*(root.denominator for root in roots if root is not None))
        self._exact = sum(root.numerator * (r_den // root.denominator) * f
                          for root, f in zip(roots, values, strict=True) if root is not None)
        self._inexact = [(q.numerator, q.denominator, f)
                         for q, root, f in zip(self.ff.norm_sq, roots, values, strict=True)
                         if root is None]
        self._r_den, self._scale = r_den, c * points[0][0] * r_den
        self._bounds: list[tuple[int, int, int]] = []
        self.sign_ok = not side or self.side_decision() is True

    def _enclosures(self):
        """(lo, hi, D) per bit count of ``_DECISION_BITS``, each built once:
        S lies in [lo, hi] / D."""
        for i, bits in enumerate(_DECISION_BITS):
            if i == len(self._bounds):
                lo = hi = self._exact << bits
                for num, den, f in self._inexact:
                    rf = isqrt((num << 2 * bits) // den) * f
                    lo, hi = lo + self._r_den * (rf + min(f, 0)), hi + self._r_den * (rf + max(f, 0))
                self._bounds.append((lo, hi, self._scale << bits))
            yield self._bounds[i]

    def side_decision(self) -> bool | None:
        """Whether S * side > 0, at the first precision that decides it;
        None when none does."""
        for lo, hi, _ in self._enclosures():
            lo, hi = (lo, hi) if self.side > 0 else (-hi, -lo)
            if lo > 0:
                return True
            if hi <= 0:
                return False
        return None

    def less_decision(self, p: int, q: int) -> bool | None:
        """Whether p/q < S^2 (q > 0), at the first precision that decides
        it; None when none does."""
        for lo, hi, d in self._enclosures():
            lo_sq, hi_sq = lo * lo, hi * hi
            if lo < 0 < hi:
                lo_sq, hi_sq = 0, max(lo_sq, hi_sq)
            elif hi <= 0:
                lo_sq, hi_sq = hi_sq, lo_sq
            # p/q against [lo_sq, hi_sq] / d^2
            pd = p * d * d
            if pd < lo_sq * q:
                return True
            if hi_sq * q <= pd:
                return False
        return None

    def lhs(self, eps_sq: Fraction) -> Fraction:
        """The left side: eps^2 q for a ball, (eps*)^2 q for apex balls."""
        return eps_sq * self.q if self.ff is None else eps_sq / (1 - eps_sq) * self.q

    def holds(self, eps_sq: Fraction) -> bool:
        """Whether the test is certified at eps^2 (0 < eps^2 < 1)."""
        if not self.sign_ok:
            return False
        if self.ff is None:
            return self.lhs(eps_sq) < self.value * self.value
        # (eps*)^2 q = a q / (b - a) for eps^2 = a/b
        a, b = eps_sq.numerator, eps_sq.denominator
        return self.less_decision(a * self.q.numerator, (b - a) * self.q.denominator) is True

    def record(self, eps_sq: Fraction) -> dict:
        if self.ff is None:
            return {
                "kind": self.kind,
                "radius_sq": rat_str(eps_sq),
                "grad_sq": rat_str(self.q),
                "value": rat_str(self.value),
                "side": self.side,
            }
        return {
            "kind": self.kind,
            "eps_sq": rat_str(eps_sq),
            "lhs_eps_star_sq_grad_sq": rat_str(self.lhs(eps_sq)),
            "side": self.side,
        }


def _proper_peers(k: Complex, a: int, b: int) -> bool:
    """Whether simplices a and b meet in a proper common face of both (or not at all)."""
    va, vb = set(k.simplex(a).vertex_ids), set(k.simplex(b).vertex_ids)
    return not (va <= vb or vb <= va)


class _Conditions:
    """The certificate conditions of a neighbourhood of tau, built once.

    Building computes all that does not depend on eps: tau's facet forms
    and the form and norm of each star facet that misses tau.  Each peer
    gets a ``_Separation``, which builds its plane only if it needs one.
    Like every carve condition it then answers two questions about a
    candidate eps^2: ``refusal`` names the first inequality that fails,
    testing no further, and ``records`` builds the certificate records,
    once, at the accepted eps^2.

    ``boxes`` holds the reach boxes, one per (cell, eps^2) (``reach``), and
    the strings of their intervals that records name (``interval``);
    conditions that share it, as a carving's do, build each box once and
    not once per pair.
    """

    def __init__(self, k: Complex, tau_id: int, peers=(), boxes: dict | None = None):
        self.k, self.tau_id = k, tau_id
        self.boxes = {} if boxes is None else boxes
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
        self.peers = [self.separation(pid, e) for pid, e in _normalize_peers(k, peers)]

    def reach(self, sid: int, eps_sq: Fraction) -> BoxNumerators:
        """``reach_bounds`` of simplex sid at eps^2, read from the complex's
        integer vertex rows, built once per (sid, eps^2) and kept in
        ``boxes`` keyed on integers (a Fraction hashes slowly)."""
        key = (sid, eps_sq.numerator, eps_sq.denominator)
        box = self.boxes.get(key)
        if box is None:
            rows = [self.k.vertex_rows[v] for v in self.k.simplex(sid).vertex_ids]
            box = self.boxes[key] = reach_bounds(rows, eps_sq)
        return box

    def interval(self, sid: int, eps_sq: Fraction, axis: int) -> list[str]:
        """The reach box's [lo, hi] on an axis as strings, built once per
        (sid, eps^2, axis) and kept in ``boxes``: many records name the same
        box."""
        key = (sid, eps_sq.numerator, eps_sq.denominator, axis)
        if key not in self.boxes:
            q, lo, hi = self.reach(sid, eps_sq)
            self.boxes[key] = [rat_str(Fraction(lo[axis], q)), rat_str(Fraction(hi[axis], q))]
        return list(self.boxes[key])

    def separation(self, peer_id: int, peer_eps_sq: Fraction | None = None) -> "_Separation":
        """The condition that tau's neighbourhood and the peer's are
        disjoint (see ``_Separation``).  Raises PreconditionViolated unless
        they meet in a proper common face or not at all."""
        if not _proper_peers(self.k, self.tau_id, peer_id):
            raise PreconditionViolated(
                f"peer {peer_id} and tube base {self.tau_id} do not meet in a proper common face"
            )
        return _Separation(self, peer_id, peer_eps_sq)

    def refusal(self, eps_sq: Fraction) -> str | None:
        """The first inequality that fails at eps^2, or None."""
        for sid, i, clearance in self.faces:
            if not clearance.holds(eps_sq):
                return f"face_clearance of simplex {sid} opposite vertex {i}"
        for separation in self.peers:
            refused = separation.refusal(eps_sq)
            if refused is not None:
                return refused
        return None

    def records(self, eps_sq: Fraction) -> list[dict]:
        """The records of every inequality at eps^2."""
        records = []
        for sid, i, clearance in self.faces:
            record = {"kind": "face_clearance", "sigma": sid, "opposite_vertex": i}
            lhs = clearance.lhs(eps_sq)
            if clearance.ff is None:
                record.update(lhs=rat_str(lhs), rhs=rat_str(clearance.value**2))
            else:
                record["eps_star_sq_norm_sq"] = rat_str(lhs)
            records.append(record)
        for separation in self.peers:
            records.extend(separation.records(eps_sq))
        return records

    def first_certified(self) -> Fraction:
        """The first candidate eps^2 at which every condition holds."""
        return _first_certified(
            self, f"no eps certified for simplex {self.tau_id} after {len(_EPS_SQ_CANDIDATES)} rounds"
        )

    def certificate(self, eps_sq: Fraction) -> list[dict]:
        """The records at eps^2 stamped with tau, and with eps^2 where a
        record names no eps^2 of its own, or CertificationFailure.

        Raises PreconditionViolated unless 0 < eps^2 < 1: the apex balls
        need a positive eps^2 below 1, and every tube is built with one."""
        if not 0 < eps_sq < 1:
            raise PreconditionViolated(f"eps^2 = {eps_sq} is not in (0, 1)")
        refused = self.refusal(eps_sq)
        if refused is not None:
            raise CertificationFailure(
                f"eps^2 = {eps_sq} fails certification for {self.tau_id}: {refused} fails"
            )
        records, stamp = self.records(eps_sq), rat_str(eps_sq)
        for r in records:
            r["tau"] = self.tau_id
            r.setdefault("eps_sq", stamp)
        return records


class _Separation:
    """tau's closed neighbourhood at eps^2 and the peer's at its own eps^2
    (at eps^2 when it has none) are disjoint.

    At each eps^2 the two reach boxes are compared first
    (``_Conditions.reach``).  When they miss each other on some axis, the
    pair holds with no plane, and its record is ``reach_disjoint``: that
    axis and both boxes' intervals on it.  Otherwise the condition is that
    h = separating_hyperplane(tau, peer) keeps tau's neighbourhood on
    h < 0 and the peer's on h > 0, two ``_Clearance`` tests whose records
    come in the order [tau's, the peer's].  The plane is built the first
    time the boxes meet and kept.  Every record names tau, the peer and
    the eps^2 of its own side.
    """

    def __init__(self, conditions: _Conditions, peer_id: int, peer_eps_sq: Fraction | None):
        self.conditions, self.peer_id, self.peer_eps_sq = conditions, peer_id, peer_eps_sq
        self._clearances: tuple[_Clearance, _Clearance] | None = None

    def _peer_eps(self, eps_sq: Fraction) -> Fraction:
        return eps_sq if self.peer_eps_sq is None else self.peer_eps_sq

    def _disjoint_axis(self, eps_sq: Fraction) -> int | None:
        c = self.conditions
        return c.reach(c.tau_id, eps_sq).separating_axis(
            c.reach(self.peer_id, self._peer_eps(eps_sq)))

    def _plane(self) -> tuple[_Clearance, _Clearance]:
        """The near and far clearances of the separating plane, built once."""
        if self._clearances is None:
            c = self.conditions
            h = separating_hyperplane(c.k.geometry(c.tau_id), c.k.geometry(self.peer_id))
            q = h.gradient_norm_sq()
            self._clearances = (_Clearance(c.base, h.form, q, side=-1),
                                _Clearance(_base(c.k, self.peer_id), h.form, q, side=+1))
        return self._clearances

    def refusal(self, eps_sq: Fraction) -> str | None:
        if self._disjoint_axis(eps_sq) is not None:
            return None
        near, far = self._plane()
        tau_id, peer_id = self.conditions.tau_id, self.peer_id
        if not near.holds(eps_sq):
            return f"{near.kind} of simplex {tau_id} against peer {peer_id}"
        if not far.holds(self._peer_eps(eps_sq)):
            return f"{far.kind} of peer {peer_id} against simplex {tau_id}"
        return None

    def records(self, eps_sq: Fraction) -> list[dict]:
        c = self.conditions
        ids = {"tau": c.tau_id, "peer": self.peer_id}
        peer_eps = self._peer_eps(eps_sq)
        axis = self._disjoint_axis(eps_sq)
        if axis is not None:
            return [{"kind": "reach_disjoint", **ids,
                     "eps_sq": rat_str(eps_sq), "peer_eps_sq": rat_str(peer_eps), "axis": axis,
                     "interval": c.interval(c.tau_id, eps_sq, axis),
                     "peer_interval": c.interval(self.peer_id, peer_eps, axis)}]
        near, far = self._plane()
        return [{**near.record(eps_sq), **ids}, {**far.record(peer_eps), **ids}]


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


def _first_certified(condition, failure: str) -> Fraction:
    """The first candidate eps^2 that ``condition.refusal`` accepts; failing
    that, CertificationFailure naming the inequality that refused the last
    candidate."""
    for eps_sq in _EPS_SQ_CANDIDATES:
        refused = condition.refusal(eps_sq)
        if refused is None:
            return eps_sq
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
