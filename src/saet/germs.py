"""Evaluation homomorphisms along piecewise-linear path germs.

A path germ represents a point infinitesimally close to its limit: the
germ of t -> c + t v at 0+.  Values of piecewise linear-fractional
functions along such germs are rational functions of t.  A ``GermValue``
is one exact element num/den of Q(t), ordered with t a positive
infinitesimal (the germs at 0+; Bochnak, Coste and Roy, Real Algebraic
Geometry, ch. 1); ``pair()`` gives its first-order part a + b t.

Each germ settles into one open cell, found once in the open star of the
cell carrying its limit.  The module decides adjacency of a germ exactly,
computes the depth dichotomy, realizes the unique extension-evaluation
homomorphism on appropriately embedded sets, and constructs the cone
evaluation homomorphisms that show non-uniqueness below the critical
depth, together with an exact witness function separating two of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
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
from .rationals import Vec, vec

ADJACENT = "Adjacent"
NOT_ADJACENT = "NotAdjacent"


# --- polynomial helpers (coefficient lists, ascending) ----------------------


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _order(p) -> int:
    """Index of the lowest nonzero coefficient of a nonzero polynomial."""
    return next(i for i, c in enumerate(p) if c != 0)


def _coerced(method):
    """Let a binary GermValue method take ints and Fractions as constants."""

    def wrapped(self, other):
        if isinstance(other, (int, Fraction)):
            other = GermValue(other)
        elif not isinstance(other, GermValue):
            return NotImplemented
        return method(self, other)

    return wrapped


class GermValue:
    """An exact element num/den of Q(t), t a positive infinitesimal.

    ``GermValue(n0, n1, ..., den=(d0, d1, ...))`` is
    (n0 + n1 t + ...) / (d0 + d1 t + ...), so ``GermValue(a, b)`` is
    a + b t.  The sign is that of the lowest nonzero coefficient of num
    times that of den; ``<`` and ``>`` compare by the sign of the
    difference, and ``==`` cross-multiplies.
    """

    __slots__ = ("num", "den")

    def __init__(self, *num, den=(1,)):
        num = _poly_trim([Fraction(c) for c in num])
        den = _poly_trim([Fraction(c) for c in den])
        if not den:
            raise ZeroDivisionError("identically zero denominator")
        shift = min(_order(num), _order(den)) if num else 0  # common power of t
        self.num = tuple(num[shift:])
        self.den = tuple(den[shift:]) if num else (Fraction(1),)

    def _lead(self) -> tuple[int, Fraction]:
        """(k, c) with value = c t^k + higher order terms; (0, 0) for zero."""
        if not self.num:
            return 0, Fraction(0)
        i, j = _order(self.num), _order(self.den)
        return i - j, self.num[i] / self.den[j]

    def pair(self) -> tuple[Fraction, Fraction]:
        """The Taylor coefficients (a, b) of a + b t + O(t^2)."""
        if self._lead()[0] < 0:
            raise PoleAtZero("denominator vanishes to higher order than numerator")
        n0, n1 = (self.num + (0, 0))[:2]
        d0, d1 = (self.den + (0,))[:2]  # d0 != 0: no pole, common power stripped
        a = n0 / d0
        return a, (n1 - a * d1) / d0

    a = property(lambda self: self.pair()[0])
    b = property(lambda self: self.pair()[1])

    @_coerced
    def __eq__(self, other):
        return _poly_mul(self.num, other.den) == _poly_mul(other.num, self.den)

    def __hash__(self):
        order, lead = self._lead()
        return hash(lead) if order == 0 else hash((order, lead))  # constants hash as numbers

    @_coerced
    def __lt__(self, other):
        return (self - other)._lead()[1] < 0

    @_coerced
    def __gt__(self, other):
        return (self - other)._lead()[1] > 0

    @_coerced
    def __add__(self, other):
        p, q = _poly_mul(self.num, other.den), _poly_mul(other.num, self.den)
        return GermValue(*map(sum, zip_longest(p, q, fillvalue=0)),
                         den=_poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return GermValue(*(-c for c in self.num), den=self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return other + -self

    @_coerced
    def __mul__(self, other):
        return GermValue(*_poly_mul(self.num, other.num), den=_poly_mul(self.den, other.den))

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        return GermValue(*_poly_mul(self.num, other.den), den=_poly_mul(self.den, other.num))

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    def __repr__(self):
        num, den = (", ".join(map(str, p)) or "0" for p in (self.num, self.den))
        return f"GermValue({num}, den=({den},))"


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
            if len(c) != len(v):
                raise ValueError("a piece's point and velocity differ in dimension")
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


def eventual_simplex(alpha: PathGerm, k: Complex) -> int | None:
    """The unique cell whose open part contains c + t v for all small t > 0.

    That cell has the limit c in its closure, so only the open star of the
    cell carrying c is searched; a limit outside |K| gives None.  Exact:
    along the germ line the squared distance to each affine hull is a
    quadratic that either vanishes identically or eventually doesn't, and
    the barycentric coordinates are affine in t, so eventual strict
    positivity is a lexicographic sign condition.
    """
    c, v = alpha.germ()
    carrier = k.locate(c)
    if carrier is None:
        return None
    xs = [c, tuple(a + b for a, b in zip(c, v)), tuple(a + 2 * b for a, b in zip(c, v))]
    for sid in k.cofaces[carrier]:
        data = [k.geometry(sid).coords_and_height_sq(x) for x in xs]
        if any(h != 0 for _, h in data):
            continue  # height^2 is a quadratic vanishing at 3 points iff zero
        bary0, bary1 = data[0][0], data[1][0]
        if all(_lex_positive(b0, b1 - b0) for b0, b1 in zip(bary0, bary1)):
            return sid
    return None


def is_in_extension(alpha: PathGerm, s: PLSet) -> bool:
    """Whether the germ eventually lies in the realized marked set."""
    return eventual_simplex(alpha, s.complex) in s.members


def _adjacent(alpha: PathGerm, s: PLSet, sid: int | None) -> bool:
    """Adjacency of a germ that eventually lies in the open cell sid."""
    if sid in s.members:
        return True
    return sid in closure(s).members and s.contains_point(alpha.limit)


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
    return ADJACENT if _adjacent(alpha, s, eventual_simplex(alpha, s.complex)) else NOT_ADJACENT


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


def _finite(value: GermValue) -> GermValue:
    value.pair()  # raises PoleAtZero when the value is infinite
    return value


def _compose(ratio: RatioForm, alpha: PathGerm) -> GermValue:
    """The value of one piece along the germ: each affine form composed
    with t -> c + t v is form(c) + (form(c + v) - form(c)) t."""
    c, v = alpha.germ()
    cv = tuple(a + b for a, b in zip(c, v))

    def along(form) -> GermValue:
        base = form(c)
        return GermValue(base, form(cv) - base)

    num = GermValue(1)
    for f in ratio.factors:
        num = num * along(f)
    return _finite(num / along(ratio.den))


def evaluate(f: PLFFunction, alpha: PathGerm) -> GermValue:
    """Value germ of f along the path: f(alpha(t)) as an element of Q(t)."""
    sid = eventual_simplex(alpha, f.complex)
    if sid not in f.domain.members:
        raise NotEventuallyInDomain("the germ does not settle into a member open cell")
    return _compose(f.pieces[sid], alpha)


def eval_hom(f: PLFFunction, alpha: PathGerm, extension: ExtensionReport) -> GermValue:
    """The evaluation homomorphism at the germ point.

    Direct evaluation when the germ lies in the set; otherwise evaluation
    of the continuous extension form on the boundary cell carrying the
    germ, which is the unique homomorphism value at critical depth over an
    appropriately embedded set.
    """
    sid = eventual_simplex(alpha, f.complex)
    if not _adjacent(alpha, f.domain, sid):
        raise PreconditionViolated("germ point is not adjacent to the domain")
    if sid in f.domain.members:
        return _compose(f.pieces[sid], alpha)
    if sid not in extension.v_set.members or sid in extension.y_set.members:
        raise GermInBadSet("germ lies in the conflict set or outside the extension "
                           "neighborhood")
    return _compose(extension.values[sid], alpha)


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


def _eventual_cone_simplex(k: Complex, c: Vec, v: Vec, q: Vec) -> int | None:
    """Carrier of the two-parameter germ x(s, t), 0 < s << t << 1.

    Its limit is c, so only the open star of the cell carrying c is
    searched.  Sign of A + B t + C s - B s t in the regime s << t is
    lexicographic: (A, B) first, then (C, -B).
    """
    carrier = k.locate(c)
    if carrier is None:
        return None
    pts = [tuple((1 - s) * (ci + t * vi) + s * qi for ci, vi, qi in zip(c, v, q))
           for s, t in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (3, 2), (1, 2), (2, 1), (3, 3))]
    for sid in k.cofaces[carrier]:
        geo = k.geometry(sid)
        if any(geo.coords_and_height_sq(p)[1] != 0 for p in pts):
            continue  # the biquadratic height vanishes iff on the 3x3 grid
        coeffs = (
            _bilinear_coeffs(lambda x, j=j, geo=geo: geo.coords_and_height_sq(x)[0][j], c, v, q)
            for j in range(geo.d + 1)
        )
        if all(_lex_positive(a, b) or (a == b == 0 and cc > 0) for a, b, cc in coeffs):
            return sid
    return None


def hom_via_cone(f: PLFFunction, cone: ConeSet, alpha: PathGerm) -> GermValue:
    """Cone evaluation homomorphism: restrict to the cone set, extend to
    the base cell from inside the cone, and evaluate along the germ.

    Realized as the iterated limit s -> 0+ then t -> 0+ of
    f((1-s) alpha(t) + s q), computed exactly through the member cell that
    carries the two-parameter germ.
    """
    if eventual_simplex(alpha, f.complex) != cone.tau_id:
        raise GermNotInTau("the germ must lie in the open base cell")
    c, v = alpha.germ()
    sid = _eventual_cone_simplex(f.complex, c, v, cone.apex)
    if sid not in f.domain.members:
        raise NotEventuallyInDomain("cone approach leaves the set")
    piece = f.pieces[sid]

    # compose with x(s,t): a polynomial in s with coefficients in Q(t)
    def poly_in_s(form):
        a, b, cc = _bilinear_coeffs(form, c, v, cone.apex)
        return [GermValue(a, b), GermValue(cc, -b)]  # (a + b t) + (cc - b t) s

    num_s = [GermValue(1)]
    for fac in piece.factors:
        num_s = _poly_mul(num_s, poly_in_s(fac))
    den_s = _poly_trim(poly_in_s(piece.den))
    # inner limit s -> 0+: strip common leading s-order
    while num_s and den_s and num_s[0] == 0 and den_s[0] == 0:
        num_s.pop(0)
        den_s.pop(0)
    if not den_s or den_s[0] == 0:
        raise PoleAtZero("denominator vanishes to higher s-order along the cone")
    return _finite((num_s[0] if num_s else 0) / den_s[0])


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
    if eventual_simplex(alpha, k) != tau_id:
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
    value1 = GermValue(0)
    # psi_{q2}(f): f equals g on the second cone, so the value is the germ
    # of g along alpha, nonzero since g vanishes only on the base boundary
    value2 = evaluate(g, alpha)
    return witness, value1, value2
