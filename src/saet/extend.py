"""Weak continuous extension of piecewise linear-fractional functions.

A function on a marked set is given per member cell as a ratio of affine
forms (an optional second affine factor in the numerator covers products
like coordinate * linear-fractional, needed for the sharpness fixture).
For each boundary cell the limits of the adjacent pieces are computed as
exact forms; agreeing limits extend the function, disagreements or
direction-dependent limits go to the conflict set, and denominator
degenerations with nonvanishing numerator are excluded from the extension
neighborhood.  The closed graph of a piecewise-linear input provides an
independent fiber oracle for the same data.

Every hull identity is decided from vertex values.  An affine form is
fixed on a simplex's affine hull by its values at the vertices, and at a
point of the order-3 principal lattice it takes the mean of three of them.
So ``PLFFunction`` evaluates each piece's forms once at each vertex of its
cell, on integers: the integer row of each form (``AffineForm.row``) dotted
with the complex's integer vertex points (``Complex.vertex_rows``, built
once per complex), lifted to one positive common scale.  The continuity
check, ``face_limit`` and the limit agreement in ``weak_extension`` read
that table: cross-multiplied equality walks the lattice as sums of three
integers, and proportionality and boundedness compare vertex values, so
any positive common scale gives the same answers.  A limit carries its own
vertex values on the face, so agreement evaluates no new form.  Within one
load, cells with equal coefficient lists share one piece object (``io``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from operator import mul
from typing import Sequence

from .complexes import Complex, PLSet, closure, germ_connected, local_dim
from .errors import NotAFace, Unbounded
from .rationals import AffineForm, Vec, homogeneous, vec

VALUE = "Value"
DIRECTION_DEPENDENT = "DirectionDependent"
INFINITE = "Infinite"


class RatioForm:
    """(product of at most two affine forms) / (affine form)."""

    __slots__ = ("factors", "den")

    def __init__(self, factors: Sequence[AffineForm], den: AffineForm | None = None):
        factors = tuple(factors)
        if not 1 <= len(factors) <= 2:
            raise ValueError("numerator must have one or two affine factors")
        self.factors = factors
        self.den = den if den is not None else AffineForm.constant(1, len(factors[0].c))
        dims = [len(g.c) for g in factors]
        if any(d != len(self.den.c) for d in dims):
            raise ValueError(
                f"numerator factors of dimension {dims} over a denominator "
                f"of dimension {len(self.den.c)}"
            )

    @staticmethod
    def affine(form: AffineForm) -> "RatioForm":
        return RatioForm([form])

    @staticmethod
    def constant(value, n: int) -> "RatioForm":
        return RatioForm([AffineForm.constant(value, n)])

    def is_pl(self) -> bool:
        return self.den.is_constant() and len(self.factors) == 1

    def numerator_value(self, x: Vec) -> Fraction:
        out = Fraction(1)
        for f in self.factors:
            out *= f(x)
        return out

    def __call__(self, x: Vec) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.numerator_value(x) / d

    def as_affine(self) -> AffineForm | None:
        """The affine form this ratio equals identically, when it is one."""
        consts = [f for f in self.factors if f.is_constant()]
        lins = [f for f in self.factors if not f.is_constant()]
        if not self.den.is_constant() or len(lins) > 1:
            return None
        scale = Fraction(1) / self.den.c0
        for c in consts:
            scale *= c.c0
        if not lins:
            return AffineForm.constant(scale, len(self.den.c))
        return lins[0].scale(scale)

    def __repr__(self):
        return f"RatioForm({list(self.factors)!r} / {self.den!r})"


class _VertexValues:
    """A ratio form's values at the vertices of a cell, in vertex-id order.

    The values are integers over one positive ``scale``: ``factors`` holds
    one tuple per numerator factor and ``den`` one for the denominator, so
    factor i takes the value factors[i][j] / scale at vertex j.  An affine
    form is fixed on the cell's affine hull by these values.
    """

    __slots__ = ("factors", "den", "scale")

    def __init__(self, factors, den, scale: int):
        self.factors = factors
        self.den = den
        self.scale = scale

    @staticmethod
    def of(ratio: RatioForm, points: Sequence[Sequence[int]]) -> "_VertexValues":
        """Evaluate each form of the ratio once at each vertex, given as a
        ``homogeneous`` row h_j = (q_j, p_j).

        A form with integer row (D, r) (``AffineForm.row``) takes the value
        r . h_j / (D q_j) at vertex j.  Over the common scale
        lcm(D) lcm(q), that value is r . h_j times lcm(D) / D times
        lcm(q) / q_j.
        """
        rows = [form.row for form in (*ratio.factors, ratio.den)]
        d_lcm = lcm(*(row[0] for row in rows))
        q_lcm = lcm(*(h[0] for h in points))
        lifts = [q_lcm // h[0] for h in points]
        ints = []
        for d, *r in rows:
            m = d_lcm // d
            ints.append(tuple(m * lift * sum(map(mul, r, h)) for h, lift in zip(points, lifts)))
        return _VertexValues(tuple(ints[:-1]), ints[-1], d_lcm * q_lcm)

    def restrict(self, positions: Sequence[int]) -> "_VertexValues":
        """The values at the listed vertices, for instance those of a face."""
        return _VertexValues(
            tuple(tuple(row[i] for i in positions) for row in self.factors),
            tuple(self.den[i] for i in positions),
            self.scale,
        )


def ratio_forms_equal_on(a: RatioForm, b: RatioForm, face_vertices: Sequence[Vec]) -> bool:
    """Exact equality of two ratio forms as functions on the affine hull.

    Cross-multiplied: num_a * den_b - num_b * den_a vanishes identically on
    the hull; this has degree <= 3, so its values on the order-3 lattice
    decide it.  ``_values_equal`` reads those values as sums over the
    vertex-value table of each form, so no lattice point is built.
    """
    points = [homogeneous(v) for v in face_vertices]
    return _values_equal(_VertexValues.of(a, points), _VertexValues.of(b, points))


def _values_equal(a: _VertexValues, b: _VertexValues) -> bool:
    """``ratio_forms_equal_on`` from the values at the hull's vertices.

    At the order-3 lattice point (v_i + v_j + v_l) / 3 an affine form takes
    the mean of its values at v_i, v_j and v_l, that is S / (3 D) with S the
    sum of the three integer values and D the scale.  So num_a den_b equals
    num_b den_a there iff, multiplied by (3 D_a)^n_a (3 D_b)^n_b with n the
    number of numerator factors, the integers N_a S_den_b (3 D_b)^(n_b - 1)
    and N_b S_den_a (3 D_a)^(n_a - 1) agree, N being the product of the
    factors' sums.
    """
    mult_a = (3 * a.scale) ** (len(a.factors) - 1)
    mult_b = (3 * b.scale) ** (len(b.factors) - 1)
    for i, j, l in combinations_with_replacement(range(len(a.den)), 3):
        lhs = mult_b * (b.den[i] + b.den[j] + b.den[l])
        rhs = mult_a * (a.den[i] + a.den[j] + a.den[l])
        for g in a.factors:
            lhs *= g[i] + g[j] + g[l]
        for g in b.factors:
            rhs *= g[i] + g[j] + g[l]
        if lhs != rhs:
            return False
    return True


def _proportional(f: Sequence[int], g: Sequence[int]) -> Fraction | None:
    """lambda with f = lambda g on the affine hull, or None.

    f and g are vertex values over one scale; two affine forms agree on the
    hull exactly when they agree at its vertices.
    """
    w = next((i for i, x in enumerate(g) if x != 0), None)
    if w is None:
        return None  # g vanishes on the hull; no useful ratio
    if any(fv * g[w] != f[w] * gv for fv, gv in zip(f, g)):
        return None
    return Fraction(f[w], g[w])


def _bounded_quotient(num: Sequence[int], den: Sequence[int]) -> bool:
    """Whether num/den is bounded on the simplex (den nonvanishing inside),
    from vertex values.

    With den > 0 on the open cell, num/den <= c holds iff num - c den <= 0
    at the vertices, so boundedness is exactly: num vanishes at every
    vertex where den does.
    """
    return all(nv == 0 for nv, dv in zip(num, den) if dv == 0)


class LimitResult:
    """The limit of a piece at a face: its kind, and for a value the form
    together with its vertex values on the face (``on_face``, when
    face_limit built them).

    A value that rescales a factor of the piece, lam * factor (``scaled``
    = (factor, lam, n), the factor None for the constant 1 on Q^n), is
    formed on the first read of ``value``: ``weak_extension`` compares
    limits by their vertex values, so only the value it keeps, and those of
    conflicts when read, are ever formed.
    """

    __slots__ = ("kind", "on_face", "_value", "_scaled")

    def __init__(self, kind: str, value: RatioForm | None = None,
                 on_face: _VertexValues | None = None,
                 scaled: tuple[AffineForm | None, Fraction, int] | None = None):
        self.kind, self.on_face = kind, on_face
        self._value, self._scaled = value, scaled

    @property
    def value(self) -> RatioForm | None:
        if self._scaled is not None:
            form, lam, n = self._scaled
            if form is None:
                form = AffineForm.constant(1, n)
            self._value, self._scaled = RatioForm([form.scale(lam)]), None
        return self._value

    def __eq__(self, other):
        if not isinstance(other, LimitResult):
            return NotImplemented
        return (self.kind, self.value) == (other.kind, other.value)

    __hash__ = None

    def __repr__(self):
        if self.kind == VALUE:
            return f"LimitResult(Value {self.value!r})"
        return f"LimitResult({self.kind})"


class PLFFunction:
    """Piecewise linear-fractional function on a marked set.

    ``pieces`` maps member simplex ids to RatioForms.  Denominators must
    keep a strict sign on each open piece (vertex zeros allowed only on
    faces).  Continuity across shared member faces is validated by exact
    cross-multiplied form equality; the check can be disabled to express
    the discontinuous step fixtures, in which case the violations are kept
    for the extension report.

    Each piece's forms are evaluated once at each vertex of its cell; the
    sign check, the continuity check, ``face_limit`` and ``weak_extension``
    read their restrictions to faces from that table.  A cell that shares a
    coface's piece object (as equal coefficient lists do within one load)
    restricts the coface's values, and the two are not compared.
    """

    def __init__(self, domain: PLSet, pieces: dict, validate_continuity: bool = True):
        self.domain = domain
        self.complex: Complex = domain.complex
        self.pieces: dict[int, RatioForm] = {}
        n = self.complex.n
        for key, ratio in pieces.items():
            sid = self.complex.id_of(key)
            if sid not in domain.members:
                raise ValueError(f"piece assigned to non-member simplex {sid}")
            if not isinstance(ratio, RatioForm):
                ratio = RatioForm.affine(ratio)
            if len(ratio.den.c) != n:
                raise ValueError(
                    f"piece on simplex {sid} has forms of dimension {len(ratio.den.c)}, "
                    f"but the complex is in {n}-dimensional space"
                )
            self.pieces[sid] = ratio
        missing = domain.members - set(self.pieces)
        if missing:
            raise ValueError(f"missing pieces for member simplices {sorted(missing)}")
        rows, self._table = self.complex.vertex_rows, {}
        for sid in sorted(self.pieces, reverse=True):  # ids follow dimension: cofaces first
            ratio = self.pieces[sid]
            host = next((c for c in self.complex.cofaces[sid]
                         if c != sid and self.pieces.get(c) is ratio), None)
            self._table[sid] = self._on(host, sid) if host is not None else _VertexValues.of(
                ratio, [rows[v] for v in self.complex.simplices[sid].vertex_ids])
        for sid in self.pieces:
            vals = self._table[sid]
            pos, neg = any(v > 0 for v in vals.den), any(v < 0 for v in vals.den)
            if (pos and neg) or not (pos or neg):
                raise ValueError(
                    f"denominator changes sign or vanishes on open simplex {sid}"
                )
        self.continuity_violations = self._continuity_violations()
        if validate_continuity and self.continuity_violations:
            raise ValueError(
                f"pieces disagree on shared member faces: {self.continuity_violations}"
            )

    def _on(self, sid: int, beta: int) -> _VertexValues:
        """The piece on sid at the vertices of its face beta."""
        ids = self.complex.simplices[sid].vertex_ids
        return self._table[sid].restrict(
            [ids.index(v) for v in self.complex.simplices[beta].vertex_ids]
        )

    def _continuity_violations(self) -> list[tuple[int, int]]:
        out = []
        for beta in sorted(self.domain.members):
            own, piece = self._table[beta], self.pieces[beta]
            for sigma in self.complex.cofaces[beta]:
                # beta itself, and a cell that shares its piece object, agree
                if sigma not in self.domain.members or self.pieces[sigma] is piece:
                    continue
                if not _values_equal(own, self._on(sigma, beta)):
                    out.append((beta, sigma))
        return out

    def evaluate(self, x: Vec) -> Fraction:
        sid = self.domain.locate(vec(x))
        if sid is None:
            raise ValueError(f"{x} is not in the domain")
        return self.pieces[sid](vec(x))

    # algebra on shared piece structure (piecewise-linear operands)
    def __add__(self, other: "PLFFunction") -> "PLFFunction":
        if self.domain != other.domain:
            raise ValueError("sum of functions on different domains")
        pieces = {}
        for sid in self.domain.members:
            a, b = self.pieces[sid], other.pieces[sid]
            if not (a.is_pl() and b.is_pl()):
                raise ValueError("sum supported for piecewise-linear operands")
            pieces[sid] = RatioForm.affine(
                a.factors[0].scale(1 / a.den.c0) + b.factors[0].scale(1 / b.den.c0)
            )
        return PLFFunction(self.domain, pieces, validate_continuity=False)

    def __mul__(self, other: "PLFFunction") -> "PLFFunction":
        if self.domain != other.domain:
            raise ValueError("product of functions on different domains")
        pieces = {}
        for sid in self.domain.members:
            a, b = self.pieces[sid], other.pieces[sid]
            if not (a.is_pl() and b.is_pl()):
                raise ValueError("product supported for piecewise-linear operands")
            pieces[sid] = RatioForm(
                [a.factors[0].scale(1 / a.den.c0), b.factors[0].scale(1 / b.den.c0)]
            )
        return PLFFunction(self.domain, pieces, validate_continuity=False)


def face_limit(f: PLFFunction, sigma, beta) -> LimitResult:
    """Limit of the piece on sigma along approaches to the open cell of beta.

    Exact case analysis on the restrictions to the affine hull of beta:
    nonvanishing denominator restricts the ratio; a denominator vanishing
    identically needs the numerator to vanish too (else Infinite), and the
    surviving quotient has a well-defined limit exactly when a vanishing
    factor is proportional to the denominator over the hull of sigma, with
    a bounded-quotient fallback when the remaining prefactor vanishes.
    Every case reads the piece's vertex values from f's table.
    """
    k = f.complex
    sigma_id, beta_id = k.id_of(sigma), k.id_of(beta)
    if not k.simplex(beta_id).is_face_of(k.simplex(sigma_id)):
        raise NotAFace(f"{beta_id} is not a face of {sigma_id}")
    piece = f.pieces[sigma_id]
    on_sigma = f._table[sigma_id]
    on_beta = f._on(sigma_id, beta_id)
    n = k.n

    if any(on_beta.den):
        return _restrict_ratio(piece, on_beta, n)

    zero = [i for i, vals in enumerate(on_beta.factors) if not any(vals)]
    if not zero:
        return LimitResult(INFINITE)

    if len(zero) == 1:
        lam = _proportional(on_sigma.factors[zero[0]], on_sigma.den)
        if lam is not None:
            rest = 1 - zero[0] if len(piece.factors) == 2 else None
            return _scaled_rest(piece, on_beta, rest, lam, n)
        return LimitResult(DIRECTION_DEPENDENT)

    # both factors vanish on the hull of beta, denominator too
    for i in zero:
        if _bounded_quotient(on_sigma.factors[i], on_sigma.den):
            # bounded quotient (a factor proportional to the denominator
            # gives one) times a factor vanishing on beta: limit 0
            count = len(on_beta.den)
            return LimitResult(
                VALUE,
                RatioForm.constant(0, n),
                _VertexValues(((0,) * count,), (1,) * count, 1),
            )
    return LimitResult(DIRECTION_DEPENDENT)


def _scaled_rest(
    piece: RatioForm, on_beta: _VertexValues, rest: int | None, lam: Fraction, n: int
) -> LimitResult:
    """The value lam * (factor ``rest`` of the piece, or 1 when None), with
    its values on the face: lam times the table's.  The value's form is
    built when first read."""
    count = len(on_beta.den)
    if rest is not None:
        form, vals = piece.factors[rest], on_beta.factors[rest]
    else:
        form, vals = None, (on_beta.scale,) * count
    p, q = lam.numerator, lam.denominator
    scale = on_beta.scale * q
    return LimitResult(
        VALUE,
        on_face=_VertexValues((tuple(v * p for v in vals),), (scale,) * count, scale),
        scaled=(form, lam, n),
    )


def _restrict_ratio(piece: RatioForm, on_beta: _VertexValues, n: int) -> LimitResult:
    """Restriction of a ratio with nonvanishing denominator to a face."""
    den = on_beta.den
    # cancel factors proportional to the denominator over the face hull
    for i, vals in enumerate(on_beta.factors):
        lam = _proportional(vals, den)
        if lam is not None:
            rest = 1 - i if len(on_beta.factors) == 2 else None
            return _scaled_rest(piece, on_beta, rest, lam, n)
    if any(v > 0 for v in den) and any(v < 0 for v in den):
        return LimitResult(INFINITE)  # pole crosses the face
    # denominator vanishes on part of the closed face: keep the ratio only
    # when the numerator vanishes there too (bounded), else the extension
    # cannot cover the face
    for j, d in enumerate(den):
        if d == 0 and all(vals[j] != 0 for vals in on_beta.factors):
            return LimitResult(INFINITE)
    return LimitResult(VALUE, piece, on_beta)


@dataclass
class ExtensionReport:
    """Outcome of the weak continuous extension construction."""

    domain: PLSet
    v_set: PLSet
    y_set: PLSet
    values: dict[int, RatioForm]
    hypothesis_ok: bool
    hypothesis_violations: list[int]
    y_dim_ok: bool
    y_dim_violations: list[int]
    infinite_faces: list[int]
    conflicts: dict[int, list[LimitResult]] = field(default_factory=dict)
    continuity_violations: list[tuple[int, int]] = field(default_factory=list)

    def value_on(self, simplex) -> RatioForm:
        sid = self.domain.complex.id_of(simplex)
        return self.values[sid]


def weak_extension(f: PLFFunction) -> ExtensionReport:
    """Per-face limit analysis over the boundary of the marked set.

    Returns the extension neighborhood (closure minus the closures of the
    denominator-degeneration faces), the conflict set, and the extension
    value forms on the remaining boundary faces.  The germ-connectivity
    hypothesis is checked, not assumed; when it holds, the conflict set is
    verified to have local codimension >= 2 inside the set.
    """
    m = f.domain
    k = f.complex
    cl = closure(m)
    boundary = sorted(cl.members - m.members)

    hypothesis_violations = [
        sid for sid in sorted(cl.members) if not germ_connected(m, sid)
    ]

    values: dict[int, RatioForm] = dict(f.pieces)
    conflicts: dict[int, list[LimitResult]] = {}
    infinite: list[int] = []
    for beta in boundary:
        adjacent = [
            sid for sid in k.cofaces[beta] if sid != beta and sid in m.members
        ]
        limits = [face_limit(f, sid, beta) for sid in adjacent]
        if any(r.kind == INFINITE for r in limits):
            infinite.append(beta)
            continue
        if any(r.kind == DIRECTION_DEPENDENT for r in limits):
            conflicts[beta] = limits
            continue
        first = limits[0]
        if all(_values_equal(first.on_face, r.on_face) for r in limits[1:]):
            values[beta] = first.value
        else:
            conflicts[beta] = limits

    excluded: set[int] = set()
    if infinite:
        excluded = closure(PLSet(k, infinite)).members
    v_set = PLSet(k, cl.members - excluded)
    y_set = PLSet(k, set(conflicts) - excluded)

    y_dim_violations = []
    if not hypothesis_violations:
        for beta in sorted(y_set.members):
            y_dim = max(
                k.dim_of(c) for c in k.cofaces[beta] if c in y_set.members
            )
            if y_dim > local_dim(m, beta) - 2:
                y_dim_violations.append(beta)

    return ExtensionReport(
        domain=m,
        v_set=v_set,
        y_set=y_set,
        values={sid: val for sid, val in values.items() if sid in v_set.members},
        hypothesis_ok=not hypothesis_violations,
        hypothesis_violations=hypothesis_violations,
        y_dim_ok=not y_dim_violations,
        y_dim_violations=y_dim_violations,
        infinite_faces=infinite,
        conflicts=conflicts,
        continuity_violations=f.continuity_violations,
    )


class GraphClosureOracle:
    """Fibers of the closed graph complex of a piecewise-linear function.

    The graph of each piece is a simplex in R^(n+1); the closure of their
    union is the union of the closed graph simplices, so the fiber over a
    point is the set of piece values over member cells whose closed cell
    contains the point.  Entirely independent of the limit analysis.
    """

    def __init__(self, f: PLFFunction):
        if not all(piece.is_pl() for piece in f.pieces.values()):
            raise Unbounded("graph-closure oracle requires piecewise-linear pieces")
        self.f = f
        self.k = f.complex

    def fiber_at(self, q: Vec) -> tuple[Fraction, ...]:
        q = vec(q)
        return tuple(sorted({self.f.pieces[sid](q) for sid in self.f.domain.members
                             if self.k.geometry(sid).contains(q)}))

    def fiber_forms(self, beta) -> list[RatioForm]:
        """Deduplicated value forms over a face of the closed graph."""
        beta_id = self.k.id_of(beta)
        beta_verts = self.k.coords(beta_id)
        forms: list[RatioForm] = []
        for sid in self.k.cofaces[beta_id]:
            if sid == beta_id or sid not in self.f.domain.members:
                continue
            cand = self.f.pieces[sid]
            if not any(ratio_forms_equal_on(cand, g, beta_verts) for g in forms):
                forms.append(cand)
        return forms


def graph_closure_oracle(f: PLFFunction) -> GraphClosureOracle:
    return GraphClosureOracle(f)
