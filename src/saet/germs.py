"""Evaluation homomorphisms along piecewise-linear path germs.

A path germ represents a point infinitesimally close to its limit: the
germ of t -> c + t v at 0+.  Values of piecewise linear-fractional
functions along such germs are eventually rational functions of t and are
returned as first-order germs a + b t, ordered lexicographically (t a
positive infinitesimal), with the full rational function retained for
exact comparison on higher-order contact.

The module decides adjacency of a germ exactly, computes the depth
dichotomy, realizes the unique extension-evaluation homomorphism on
appropriately embedded sets, and constructs the cone evaluation
homomorphisms that show non-uniqueness below the critical depth, together
with an exact witness function separating two of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import Complex, PLSet, barycentric_subdivide, closure
from .errors import (
    GermInBadSet,
    GermNotInTau,
    LimitOutsideClosure,
    NotEventuallyInDomain,
    PoleAtZero,
    PreconditionViolated,
    SameApex,
)
from .extend import ExtensionReport, PLFFunction, RatioForm
from .geometry import SimplexGeometry
from .lp import intersection_excess
from .rationals import Vec, vec, vsub

ADJACENT = "Adjacent"
NOT_ADJACENT = "NotAdjacent"
UNKNOWN = "Unknown"


# --- polynomial helpers (coefficient lists, ascending) ----------------------


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_sub(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for j, b in enumerate(q):
        out[j] -= b
    return _poly_trim(out)


def _poly_low_sign(p) -> int:
    for c in p:
        if c != 0:
            return 1 if c > 0 else -1
    return 0


class GermValue:
    """First-order germ a + b t at t -> 0+, with exact series fallback.

    Ordered lexicographically on (a, b); when two germs agree to first
    order and both carry their defining rational functions, the comparison
    falls back to the exact sign of the difference near 0+.
    """

    __slots__ = ("a", "b", "series")

    def __init__(self, a, b, series=None):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.series = series  # (num_coeffs, den_coeffs), ascending, or None

    def pair(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def __eq__(self, other):
        if not isinstance(other, GermValue):
            return NotImplemented
        if (self.a, self.b) != (other.a, other.b):
            return False
        if self.series is None or other.series is None:
            return True
        return self._diff_sign(other) == 0

    def __hash__(self):
        return hash((self.a, self.b))

    def _diff_sign(self, other) -> int:
        n1, d1 = self.series
        n2, d2 = other.series
        num = _poly_sub(_poly_mul(n1, d2), _poly_mul(n2, d1))
        sign = _poly_low_sign(num)
        return sign * _poly_low_sign(d1) * _poly_low_sign(d2)

    def __lt__(self, other):
        if (self.a, self.b) != (other.a, other.b):
            return (self.a, self.b) < (other.a, other.b)
        if self.series is None or other.series is None:
            return False
        return self._diff_sign(other) < 0

    def __gt__(self, other):
        return isinstance(other, GermValue) and other.__lt__(self)

    def __add__(self, other: "GermValue") -> "GermValue":
        return GermValue(self.a + other.a, self.b + other.b)

    def mul_first_order(self, other: "GermValue") -> "GermValue":
        return GermValue(self.a * other.a, self.a * other.b + self.b * other.a)

    def __repr__(self):
        return f"GermValue({self.a}, {self.b})"


ZERO_GERM = GermValue(0, 0)


@dataclass(frozen=True)
class PathPiece:
    t_end: Fraction
    c: Vec
    v: Vec

    def at(self, t: Fraction) -> Vec:
        return tuple(ci + t * vi for ci, vi in zip(self.c, self.v, strict=True))


class PathGerm:
    """Piecewise-affine path on (0, delta]; the germ is the first piece.

    Pieces are given innermost first: piece i covers (t_{i-1}, t_i] with
    map t -> c_i + t v_i, continuous across breakpoints.
    """

    def __init__(self, pieces: Sequence[tuple]):
        if not pieces:
            raise ValueError("a path needs at least one piece")
        parsed = []
        prev_end = Fraction(0)
        for t_end, c, v in pieces:
            t_end = Fraction(t_end)
            if t_end <= prev_end:
                raise ValueError("breakpoints must increase")
            parsed.append(PathPiece(t_end, vec(c), vec(v)))
            prev_end = t_end
        for left, right in zip(parsed, parsed[1:]):
            t = left.t_end
            if left.at(t) != right.at(t):
                raise ValueError(f"path discontinuous at t = {t}")
        self.pieces = tuple(parsed)

    @staticmethod
    def linear(c, v, delta=1) -> "PathGerm":
        return PathGerm([(delta, c, v)])

    def germ(self) -> tuple[Vec, Vec]:
        p = self.pieces[0]
        return p.c, p.v

    @property
    def limit(self) -> Vec:
        return self.pieces[0].c

    @property
    def velocity(self) -> Vec:
        return self.pieces[0].v

    def at(self, t: Fraction) -> Vec:
        t = Fraction(t)
        for p in self.pieces:
            if t <= p.t_end:
                return p.at(t)
        raise ValueError(f"t = {t} beyond the path domain")

    def __eq__(self, other):
        return isinstance(other, PathGerm) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        c, v = self.germ()
        return f"PathGerm(c={c}, v={v}, pieces={len(self.pieces)})"


def _lex_positive(a: Fraction, b: Fraction) -> bool:
    return a > 0 or (a == 0 and b > 0)


def eventual_simplex(alpha: PathGerm, k: Complex, candidates=None) -> int | None:
    """The unique cell whose open part contains c + t v for all small t > 0.

    Exact: along the germ line the squared distance to each affine hull is
    a quadratic that either vanishes identically or eventually doesn't,
    and the barycentric coordinates are affine in t, so eventual strict
    positivity is a lexicographic sign condition.
    """
    c, v = alpha.germ()
    ids = sorted(candidates) if candidates is not None else range(len(k.simplices))
    for sid in ids:
        geo = k.geometry(sid)
        xs = [c, tuple(a + b for a, b in zip(c, v)), tuple(a + 2 * b for a, b in zip(c, v))]
        data = [geo.coords_and_height_sq(x) for x in xs]
        if any(h != 0 for _, h in data):
            continue  # height^2 is a quadratic vanishing at 3 points iff zero
        bary0 = data[0][0]
        bary1 = data[1][0]
        if all(_lex_positive(b0, b1 - b0) for b0, b1 in zip(bary0, bary1)):
            return sid
    return None


def is_in_extension(alpha: PathGerm, s: PLSet) -> bool:
    """Whether the germ eventually lies in the realized marked set."""
    return eventual_simplex(alpha, s.complex, s.members) is not None


def adjacency_test(alpha: PathGerm, s: PLSet) -> str:
    """Exact adjacency of the germ point to the marked set.

    Sound in both directions, so Unknown is never returned for PL germs:

    * Adjacent when the germ eventually lies in the set, or when its limit
      point lies in the set and the germ stays in the closure (every open
      superset contains a ball around the limit, hence the tail; every
      locally closed superset is closure-part intersect open-part).
    * NotAdjacent otherwise: if the tail leaves the closure, the closure
      itself excludes it; if the limit point is outside the set, removing
      the closed tail-plus-limit curve from the closure leaves a locally
      closed superset that misses the germ.
    """
    if is_in_extension(alpha, s):
        return ADJACENT
    in_closure = eventual_simplex(alpha, s.complex, closure(s).members) is not None
    if not in_closure:
        return NOT_ADJACENT
    return ADJACENT if s.contains_point(alpha.limit) else NOT_ADJACENT


def core(alpha: PathGerm) -> PathGerm:
    """Evaluation of the coordinate projections: the germ of the path.

    Normalized to a single piece so that paths with equal germ pieces have
    equal cores regardless of their outer pieces.
    """
    c, v = alpha.germ()
    return PathGerm([(1, c, v)])


def depth(alpha: PathGerm, s: PLSet) -> int:
    """Semialgebraic depth dichotomy for path germs: 0 for constant germs
    inside the set (a point is a 0-dimensional closed witness), else 1
    (the closed curve traced by the path is a 1-dimensional witness)."""
    if not closure(s).contains_point(alpha.limit):
        raise LimitOutsideClosure(f"limit {alpha.limit} outside the closure")
    constant = all(x == 0 for x in alpha.velocity)
    if constant and s.contains_point(alpha.limit):
        return 0
    return 1


def _germ_from_polys(num: list[Fraction], den: list[Fraction]) -> GermValue:
    num = _poly_trim(list(num))
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("identically zero denominator")
    ord_n = next((i for i, c in enumerate(num) if c != 0), None)
    ord_d = next(i for i, c in enumerate(den) if c != 0)
    if ord_n is None:
        return GermValue(0, 0, series=([Fraction(0)], den))
    if ord_n < ord_d:
        raise PoleAtZero("denominator vanishes to higher order than numerator")
    num = num[ord_d:]
    den = den[ord_d:]
    d0 = den[0]
    n0 = num[0] if num else Fraction(0)
    n1 = num[1] if len(num) > 1 else Fraction(0)
    d1 = den[1] if len(den) > 1 else Fraction(0)
    a = n0 / d0
    b = (n1 * d0 - n0 * d1) / (d0 * d0)
    return GermValue(a, b, series=(num, den))


def _compose_affine_with_path(form, alpha: PathGerm) -> list[Fraction]:
    c, v = alpha.germ()
    base = form(c)
    slope = form(tuple(a + b for a, b in zip(c, v))) - base
    return _poly_trim([base, slope])


def _compose_ratio_with_path(ratio: RatioForm, alpha: PathGerm):
    num = [Fraction(1)]
    for f in ratio.factors:
        num = _poly_mul(num, _compose_affine_with_path(f, alpha))
    den = _compose_affine_with_path(ratio.den, alpha)
    return num, den


def evaluate(f: PLFFunction, alpha: PathGerm) -> GermValue:
    """Value germ of f along the path: lim of f(alpha(t)) with slope."""
    sid = eventual_simplex(alpha, f.complex, f.domain.members)
    if sid is None:
        raise NotEventuallyInDomain(
            "the germ does not settle into a member open cell"
        )
    num, den = _compose_ratio_with_path(f.pieces[sid], alpha)
    return _germ_from_polys(num, den)


def eval_hom(f: PLFFunction, alpha: PathGerm, extension: ExtensionReport) -> GermValue:
    """The evaluation homomorphism at the germ point.

    Direct evaluation when the germ lies in the set; otherwise evaluation
    of the continuous extension form on the boundary cell carrying the
    germ, which is the unique homomorphism value at critical depth over an
    appropriately embedded set.
    """
    if adjacency_test(alpha, f.domain) != ADJACENT:
        raise PreconditionViolated("germ point is not adjacent to the domain")
    if is_in_extension(alpha, f.domain):
        return evaluate(f, alpha)
    k = f.complex
    sid = eventual_simplex(alpha, k, closure(f.domain).members)
    if sid is None or sid not in extension.v_set.members or sid in extension.y_set.members:
        raise GermInBadSet(
            "germ lies in the conflict set or outside the extension neighborhood"
        )
    num, den = _compose_ratio_with_path(extension.values[sid], alpha)
    return _germ_from_polys(num, den)


# --- cone evaluation homomorphisms ------------------------------------------


@dataclass
class ConeSet:
    """Cone from the base cell to an apex on the interior segment, cut to
    the marked set: the closed witness carrier of the cone homomorphism."""

    complex: Complex
    m: PLSet
    tau_id: int
    sigma_id: int
    apex: Vec
    geometry: SimplexGeometry  # of conv(tau ∪ {apex})

    def member(self, x: Vec) -> bool:
        return self.geometry.contains(vec(x)) and self.m.contains_point(x)

    def validate_inclusions(self, samples: int = 50, seed: int = 0) -> dict:
        """Sampled exact check of tau_open ⊆ cone \\ T(q) ⊆ tau."""
        rng = random.Random(seed)
        k = self.complex
        tau_geo = k.geometry(self.tau_id)
        bad = []
        for _ in range(samples):
            w = [Fraction(rng.randint(1, 16)) for _ in range(tau_geo.d + 1)]
            tot = sum(w)
            p = tau_geo.point_at([x / tot for x in w])
            if self.m.contains_point(p) or not self.geometry.contains(p):
                bad.append(("tau_open", p))
        for _ in range(samples):
            w = [Fraction(rng.randint(1, 16)) for _ in range(self.geometry.d + 1)]
            w[-1] += 1  # keep positive apex weight: off the base cell
            tot = sum(w)
            p = self.geometry.point_at([x / tot for x in w])
            if not self.m.contains_point(p):
                bad.append(("cone_minus_tau", p))
        return {"ok": not bad, "violations": bad, "samples": 2 * samples}


def _canonical_segment(k: Complex, tau_id: int, sigma_id: int) -> tuple[Vec, Vec]:
    """The interior segment of the cone construction: from the smallest
    vertex of the first facet avoiding the base cell to the barycenter."""
    sigma = k.simplex(sigma_id)
    tau = k.simplex(tau_id)
    b = k.barycenter(sigma_id)
    facets = [
        tuple(w for w in sigma.vertex_ids if w != skip) for skip in sigma.vertex_ids
    ]
    eligible = [f for f in facets if not set(tau.vertex_ids) <= set(f)]
    eps_face = sorted(eligible)[0]
    v_id = next(w for w in eps_face if w not in tau.vertex_ids)
    return k.vertices[v_id], b


def cone_restriction(m: PLSet, tau, sigma, q: Vec) -> ConeSet:
    """The cone from the base cell to an apex q on the canonical segment.

    Preconditions (each reported on violation): the base open cell avoids
    the set, the carrier open cell lies in it, the dimension gap is at
    least two, and q lies strictly inside the canonical segment.
    """
    k = m.complex
    tau_id, sigma_id = k.id_of(tau), k.id_of(sigma)
    q = vec(q)
    if tau_id in m.members:
        raise PreconditionViolated("base open cell meets the set")
    if not k.simplex(tau_id).is_face_of(k.simplex(sigma_id)):
        raise PreconditionViolated("base is not a face of the carrier")
    if sigma_id not in m.members:
        raise PreconditionViolated("carrier open cell is not in the set")
    if k.dim_of(sigma_id) < k.dim_of(tau_id) + 2:
        raise PreconditionViolated("need dim(sigma) >= dim(tau) + 2")
    v, b = _canonical_segment(k, tau_id, sigma_id)
    seg = SimplexGeometry([v, b])
    bary = seg.barycentric(q)
    if bary is None or not all(x > 0 for x in bary):
        raise PreconditionViolated("apex must lie strictly inside the segment")
    cone_geo = SimplexGeometry(list(k.coords(tau_id)) + [q])
    return ConeSet(k, m, tau_id, sigma_id, q, cone_geo)


def _bilinear_coeffs(form, c: Vec, v: Vec, q: Vec):
    """phi(x(s,t)) = A + B t + C s - B s t for x = (1-s)(c + t v) + s q."""
    a = form(c)
    b = form(tuple(x + y for x, y in zip(c, v))) - a
    cc = form(q) - a
    return a, b, cc


def _eventual_cone_simplex(k: Complex, members, c: Vec, v: Vec, q: Vec) -> int | None:
    """Carrier of the two-parameter germ x(s, t), 0 < s << t << 1.

    Sign of A + B t + C s - B s t in the regime s << t is lexicographic:
    (A, B) first, then (C, -B).
    """
    pts = []
    for s, t in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (3, 2), (1, 2), (2, 1), (3, 3)):
        base = tuple(ci + t * vi for ci, vi in zip(c, v))
        pts.append(tuple((1 - s) * x + s * y for x, y in zip(base, q)))
    for sid in sorted(members):
        geo = k.geometry(sid)
        if any(geo.coords_and_height_sq(p)[1] != 0 for p in pts):
            continue  # the biquadratic height vanishes iff on the 3x3 grid
        ok = True
        for j in range(geo.d + 1):

            def bary_form(x, _j=j, _geo=geo):
                return _geo.coords_and_height_sq(x)[0][_j]

            a = bary_form(c)
            b = bary_form(tuple(x + y for x, y in zip(c, v))) - a
            cc = bary_form(q) - a
            if not (_lex_positive(a, b) or (a == 0 and b == 0 and _lex_positive(cc, -b))):
                ok = False
                break
        if ok:
            return sid
    return None


def hom_via_cone(f: PLFFunction, cone: ConeSet, alpha: PathGerm) -> GermValue:
    """Cone evaluation homomorphism: restrict to the cone set, extend to
    the base cell from inside the cone, and evaluate along the germ.

    Realized as the iterated limit s -> 0+ then t -> 0+ of
    f((1-s) alpha(t) + s q), computed exactly through the member cell that
    carries the two-parameter germ.
    """
    k = f.complex
    if eventual_simplex(alpha, k, {cone.tau_id}) is None:
        raise GermNotInTau("the germ must lie in the open base cell")
    c, v = alpha.germ()
    sid = _eventual_cone_simplex(k, f.domain.members, c, v, cone.apex)
    if sid is None:
        raise NotEventuallyInDomain("cone approach leaves the set")
    piece = f.pieces[sid]

    # compose with x(s,t); coefficients of s^i are polynomials in t
    def poly_in_s(form):
        a, b, cc = _bilinear_coeffs(form, c, v, cone.apex)
        return [[a, b], [cc, -b]]  # [s^0: a + b t, s^1: cc - b t]

    num_s = [[Fraction(1)]]
    for fac in piece.factors:
        num_s = _poly2_mul(num_s, poly_in_s(fac))
    den_s = poly_in_s(piece.den)
    num_s = [_poly_trim(p) for p in num_s]
    den_s = [_poly_trim(p) for p in den_s]
    # inner limit s -> 0+: strip common leading s-order
    while num_s and not num_s[0] and den_s and not den_s[0]:
        num_s.pop(0)
        den_s.pop(0)
    if not den_s or not den_s[0]:
        raise PoleAtZero("denominator vanishes to higher s-order along the cone")
    num_t = num_s[0] if num_s else [Fraction(0)]
    den_t = den_s[0]
    return _germ_from_polys(num_t, den_t)


def _poly2_mul(p, q):
    """Product of polynomials in s with coefficients polynomials in t."""
    out = [[Fraction(0)] for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = _poly_sub(out[i + j], [-x for x in _poly_mul(a, b)])
    return out


class WitnessFunction:
    """Exact witness separating two cone homomorphisms with a common core.

    f = f0 * g where g is piecewise linear on one barycentric subdivision,
    vanishing exactly on the boundary of the base cell, and f0 is the cone
    gap ratio: identically 0 on the first cone minus the base, 1 on the
    second, continuous away from the base cell.  (An everywhere-continuous
    piecewise-linear f0 with those exact values cannot exist because the
    two cones share the base in their closures; the gap ratio is the exact
    semialgebraic replacement.)
    """

    def __init__(self, m: PLSet, cone1: ConeSet, cone2: ConeSet,
                 g: PLFFunction, tau_id: int):
        self.m = m
        self.cone1 = cone1
        self.cone2 = cone2
        self.g = g
        self.tau_id = tau_id
        self._tau_geo = m.complex.geometry(tau_id)

    def _gap(self, cone: ConeSet, x: Vec) -> Fraction:
        bary, h2 = cone.geometry.coords_and_height_sq(x)
        return h2 - sum(min(Fraction(0), b) for b in bary)

    def f0(self, x: Vec) -> Fraction:
        g1, g2 = self._gap(self.cone1, vec(x)), self._gap(self.cone2, vec(x))
        if g1 + g2 == 0:
            raise ZeroDivisionError("f0 is undefined on the base cell")
        return g1 / (g1 + g2)

    def __call__(self, x: Vec) -> Fraction:
        x = vec(x)
        if not self.m.contains_point(x):
            raise ValueError(f"{x} is not in the set")
        if self._tau_geo.contains(x):
            return Fraction(0)  # extension by zero across the base cell
        return self.f0(x) * self.g.evaluate(x)


def _boundary_vanishing_pl(k: Complex, tau_id: int) -> PLFFunction:
    """Piecewise-linear function on the barycentric subdivision vanishing
    exactly on the boundary of the given cell: 1 at barycenters of cells
    that are not proper faces of it, 0 at those that are."""
    from .fixtures import interpolated_pl_function  # shared interpolation helper

    tau = k.simplex(tau_id)
    sub, _ = barycentric_subdivide(k, PLSet(k, []))
    values = {}
    for orig_sid in range(len(k.simplices)):
        s = k.simplex(orig_sid)
        proper_face = s.vertex_ids != tau.vertex_ids and s.is_face_of(tau)
        values[orig_sid] = Fraction(0) if proper_face else Fraction(1)
    all_cells = PLSet(sub, range(len(sub.simplices)))
    return interpolated_pl_function(all_cells, values)


def distinct_homs_witness(
    m: PLSet, tau, sigma, q1: Vec, q2: Vec, alpha: PathGerm
) -> tuple[WitnessFunction, GermValue, GermValue]:
    """Two cone homomorphisms with the same core and provably different
    values: the witness vanishes identically on the first cone set and
    restricts to the boundary-vanishing function on the second, whose germ
    along the base cell is strictly positive."""
    k = m.complex
    if vec(q1) == vec(q2):
        raise SameApex("the two apexes coincide")
    cone1 = cone_restriction(m, tau, sigma, q1)
    cone2 = cone_restriction(m, tau, sigma, q2)
    tau_id = k.id_of(tau)
    if eventual_simplex(alpha, k, {tau_id}) is None:
        raise GermNotInTau("the germ must lie in the open base cell")
    # the cones must intersect exactly in the base
    shared = intersection_excess(
        list(cone1.geometry.vertices),
        list(cone2.geometry.vertices),
        list(range(cone1.geometry.d)),
        list(range(cone2.geometry.d)),
    )
    if shared is None or shared != 0:
        raise PreconditionViolated("cones do not meet exactly in the base cell")

    g = _boundary_vanishing_pl(k, tau_id)
    witness = WitnessFunction(m, cone1, cone2, g, tau_id)

    # psi_{q1}(f): f vanishes identically on the first cone set
    value1 = GermValue(0, 0, series=([Fraction(0)], [Fraction(1)]))
    # psi_{q2}(f): f equals g on the second cone, so the value is the germ
    # of g along alpha, nonzero since g vanishes only on the base boundary
    value2 = evaluate(g, alpha)
    return witness, value1, value2
