"""Bundled corpus: the marked complexes and functions used throughout the
tests, demos and the verification driver.

* fix_a: the square split by both diagonals and the axes; marked set is
  the square minus the horizontal axis, plus the origin vertex.  Its germ
  is disconnected along the punctured axis, which obstructs continuous
  extension of the step function.
* fix_b: same square; marked set is the double cone |y| > |x| plus the
  origin.  Appropriately embedded after the shear trick; every function
  extends near the origin.
* fix_c: a triangulated wedge prism in 3-space, marked on the open wedge
  0 < y < x plus the origin; carries the sharpness example
  g = z (x - y)/x.
* punctured_square: the square minus its center vertex (isolated
  obstruction point, the radial-collar base case).
* fix_t: a standalone segment tube at eps^2 = 1/5.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import Complex, PLSet, build_complex
from .extend import PLFFunction, RatioForm
from .rationals import AffineForm
from .tubes import Tube

SQUARE_VERTICES = [
    (0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
]
SQUARE_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 7), (0, 7, 8), (0, 8, 1),
]


def square_complex() -> Complex:
    return build_complex(SQUARE_VERTICES, SQUARE_TRIANGLES)


def fix_a(k: Complex | None = None) -> PLSet:
    """Square minus the line y = 0, plus the origin vertex."""
    k = k or square_complex()
    on_axis = [
        i for i, s in enumerate(k.simplices)
        if all(k.vertices[v][1] == 0 for v in s.vertex_ids)
    ]
    members = set(range(len(k.simplices))) - set(on_axis)
    members.add(k.id_of((0,)))
    return PLSet(k, members)


def fix_b(k: Complex | None = None) -> PLSet:
    """Double cone |y| > |x| within the square, plus the origin vertex."""
    k = k or square_complex()
    members = set()
    for i, s in enumerate(k.simplices):
        pts = [k.vertices[v] for v in s.vertex_ids]
        bary = [sum(p[c] for p in pts) / len(pts) for c in range(2)]
        if abs(bary[1]) > abs(bary[0]):
            members.add(i)
    members.add(k.id_of((0,)))
    return PLSet(k, members)


def step_function_a(m: PLSet | None = None) -> PLFFunction:
    """1 on the upper half, 0 on the lower half and at the origin.

    Not continuous at the origin; built with the continuity check off to
    serve as the extension counterexample fixture.
    """
    m = m or fix_a()
    k = m.complex
    pieces = {}
    for sid in m.members:
        pts = [k.vertices[v] for v in k.simplex(sid).vertex_ids]
        y = sum(p[1] for p in pts) / len(pts)
        pieces[sid] = RatioForm.constant(1 if y > 0 else 0, 2)
    return PLFFunction(m, pieces, validate_continuity=False)


def wedge_complex() -> Complex:
    """Prism over the triangle 0 <= y <= x <= 1, z in [-1, 1], as six
    tetrahedra; the z-axis is a pair of edges through the origin."""
    a0, b0, c0 = (0, 0, 0), (1, 0, 0), (1, 1, 0)
    a1, b1, c1 = (0, 0, 1), (1, 0, 1), (1, 1, 1)
    am, bm, cm = (0, 0, -1), (1, 0, -1), (1, 1, -1)
    vertices = [a0, b0, c0, a1, b1, c1, am, bm, cm]
    tops = [
        (0, 1, 2, 5), (0, 1, 4, 5), (0, 3, 4, 5),  # upper prism
        (0, 1, 2, 8), (0, 1, 7, 8), (0, 6, 7, 8),  # lower prism
    ]
    return build_complex(vertices, tops)


def fix_c(k: Complex | None = None) -> PLSet:
    """Open wedge 0 < y < x within the prism, plus the origin vertex."""
    k = k or wedge_complex()
    members = set()
    for i, s in enumerate(k.simplices):
        pts = [k.vertices[v] for v in s.vertex_ids]
        x = sum(p[0] for p in pts) / len(pts)
        y = sum(p[1] for p in pts) / len(pts)
        if 0 < y < x:
            members.add(i)
    members.add(k.id_of((0,)))
    return PLSet(k, members)


def fix_c_without_origin(k: Complex | None = None) -> PLSet:
    k = k or wedge_complex()
    m = fix_c(k)
    return PLSet(k, m.members - {k.id_of((0,))})


_X = AffineForm(0, (1, 0, 0))
_Y = AffineForm(0, (0, 1, 0))
_Z = AffineForm(0, (0, 0, 1))


def slope_function_c(m: PLSet | None = None) -> PLFFunction:
    """f = (x - y)/x on the wedge minus the origin (no value extends there)."""
    m = m or fix_c_without_origin()
    pieces = {sid: RatioForm([_X - _Y], _X) for sid in m.members}
    return PLFFunction(m, pieces)


def scaled_slope_function_c(m: PLSet | None = None) -> PLFFunction:
    """g = z (x - y)/x on the wedge including the origin (value 0 there)."""
    m = m or fix_c()
    k = m.complex
    origin = k.id_of((0,))
    pieces = {}
    for sid in m.members:
        if sid == origin:
            pieces[sid] = RatioForm.constant(0, 3)
        else:
            pieces[sid] = RatioForm([_Z, _X - _Y], _X)
    return PLFFunction(m, pieces, validate_continuity=False)


def punctured_square(k: Complex | None = None) -> PLSet:
    """The full square minus its center vertex: an isolated obstruction."""
    k = k or square_complex()
    members = set(range(len(k.simplices))) - {k.id_of((0,))}
    return PLSet(k, members)


def fix_t(eps_sq=Fraction(1, 5)) -> Tube:
    """Segment tube fixture: base [(0,0), (1,0)], eps^2 = 1/5."""
    return Tube([(0, 0), (1, 0)], eps_sq)


def interpolated_pl_function(m: PLSet, vertex_values: dict[int, Fraction]) -> PLFFunction:
    """Continuous piecewise-linear function from values at the vertices.

    Each member cell gets the affine interpolant of a containing member
    top cell, so shared faces agree exactly.
    """
    from .metric import FaceFunctionals

    k = m.complex
    top_members = [
        sid for sid in m.members
        if not any(
            c != sid and c in m.members for c in k.cofaces[sid]
        )
    ]
    interpolants: dict[int, RatioForm] = {}
    for sid in top_members:
        verts = k.coords(sid)
        ids = k.simplex(sid).vertex_ids
        d = len(verts) - 1
        # the facet functionals are the barycentric forms, so the ambient
        # interpolant is the value-weighted sum
        if d >= 1:
            ff = FaceFunctionals(verts)
            acc = AffineForm.constant(0, k.n)
            for form, vid in zip(ff.forms, ids, strict=True):
                acc = acc + form.scale(vertex_values[vid])
            interpolants[sid] = RatioForm.affine(acc)
        else:
            interpolants[sid] = RatioForm.constant(vertex_values[ids[0]], k.n)
    # each member shares the piece of its first member top coface
    order = {t: i for i, t in enumerate(top_members)}
    pieces = {}
    for sid in m.members:
        host = min((t for t in k.cofaces[sid] if t in order), key=order.get, default=None)
        assert host is not None, f"member {sid} has no member top cell"
        pieces[sid] = interpolants[host]
    return PLFFunction(m, pieces)
