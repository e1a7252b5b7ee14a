"""The Fraction germ calculus, kept verbatim as the reference for the
integer germ kernel of ``saet.germs``: ``GermValue`` holds Fraction
coefficient tuples, and ``_compose`` evaluates each affine form of a piece
at c and at c + v in Fractions (``AffineForm.__call__``) and multiplies
the linear germs in Q(t).  ``evaluate_reference`` and
``eval_hom_reference`` are ``germs.evaluate`` and ``germs.eval_hom`` over
it.  Both must give equal values, pairs, hashes and exceptions.
``star_cell_reference`` is the germ-cell search that located the limit's
carrier and then tested every maximal cell of its star afresh, the
carrier's top included."""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from saet.errors import GermInBadSet, NotEventuallyInDomain, PoleAtZero, PreconditionViolated
from saet.complexes import Complex
from saet.extend import ExtensionReport, PLFFunction, RatioForm
from saet.germs import PathGerm, _adjacent, eventual_simplex


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


def evaluate_reference(f: PLFFunction, alpha: PathGerm) -> GermValue:
    sid = eventual_simplex(alpha, f.complex)
    if sid not in f.domain.members:
        raise NotEventuallyInDomain("the germ does not settle into a member open cell")
    return _compose(f.pieces[sid], alpha)


def eval_hom_reference(f: PLFFunction, alpha: PathGerm,
                       extension: ExtensionReport) -> GermValue:
    sid = eventual_simplex(alpha, f.complex)
    if not _adjacent(alpha, f.domain, sid):
        raise PreconditionViolated("germ point is not adjacent to the domain")
    if sid in f.domain.members:
        return _compose(f.pieces[sid], alpha)
    if sid not in extension.v_set.members or sid in extension.y_set.members:
        raise GermInBadSet("germ lies in the conflict set or outside the extension "
                           "neighborhood")
    return _compose(extension.values[sid], alpha)


def star_cell_reference(k: Complex, points: Sequence[Sequence[int]]) -> int | None:
    carrier = k.locate_h(points[0])
    if carrier is None:
        return None
    zero = (0,) * len(points)
    for sid in k.cofaces[carrier]:
        if len(k.cofaces[sid]) > 1:
            continue  # not maximal
        geo = k.geometry(sid)
        coords = []
        for h in points:
            nums, height = geo.numerators(h)
            if height:
                break
            coords.append(nums)
        else:
            lex = list(zip(*coords))
            if min(lex) >= zero:
                ids = k.simplices[sid].vertex_ids
                return k.index[tuple(vid for vid, x in zip(ids, lex) if x != zero)]
    return None
