import random
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from complex_generators import grid_tops, wedge_stack_tops

from saet.complexes import PLSet, closure
from saet.errors import NotAFace, Unbounded
from saet.extend import (
    DIRECTION_DEPENDENT,
    INFINITE,
    VALUE,
    LimitResult,
    PLFFunction,
    RatioForm,
    face_limit,
    graph_closure_oracle,
    ratio_forms_equal_on,
    weak_extension,
)
from saet.fixtures import (
    interpolated_pl_function,
    scaled_slope_function_c,
    slope_function_c,
    step_function_a,
)
from saet.geometry import SimplexGeometry
from saet.rationals import AffineForm

X = AffineForm(0, (1, 0, 0))
Y = AffineForm(0, (0, 1, 0))
Z = AffineForm(0, (0, 0, 1))


def wall_ids(k, pred, dim=None):
    out = []
    for i, s in enumerate(k.simplices):
        if dim is not None and s.dim != dim:
            continue
        if all(pred(k.vertices[v]) for v in s.vertex_ids):
            out.append(i)
    return out


def lattice_points(vertices, order: int) -> list[tuple]:
    """Principal lattice of the given order on a simplex: the points with
    barycentric coordinates k_i/order.  Unisolvent for degree <= order."""
    k = len(vertices)
    pts = []
    for combo in combinations_with_replacement(range(k), order):
        weights = [F(combo.count(i), order) for i in range(k)]
        pts.append(
            tuple(
                sum(w * v[c] for w, v in zip(weights, vertices))
                for c in range(len(vertices[0]))
            )
        )
    return pts


def test_lattice_unisolvence_helper():
    pts = lattice_points([(0, 0), (1, 0), (0, 1)], 3)
    assert len(pts) == 10  # dim of cubics in 2 variables


def test_face_limit_wall_values(wedge, fix_c):
    f = slope_function_c()
    k = f.complex
    y0_wall = k.id_of((0, 1, 4))
    xy_wall = k.id_of((0, 2, 5))
    r = face_limit(f, k.id_of((0, 1, 4, 5)), y0_wall)
    assert r.kind == VALUE
    one = RatioForm.constant(1, 3)
    assert ratio_forms_equal_on(r.value, one, k.coords(y0_wall))
    r2 = face_limit(f, k.id_of((0, 1, 2, 5)), xy_wall)
    assert r2.kind == VALUE
    zero = RatioForm.constant(0, 3)
    assert ratio_forms_equal_on(r2.value, zero, k.coords(xy_wall))


def test_face_limit_pl_restriction(square, fix_a):
    f = step_function_a(fix_a)
    k = f.complex
    tri = k.id_of((0, 1, 2))
    edge = k.id_of((0, 1))
    r = face_limit(f, tri, edge)
    assert r.kind == VALUE
    assert ratio_forms_equal_on(r.value, RatioForm.constant(1, 2), k.coords(edge))


def test_face_limit_needs_face(square, fix_a):
    f = step_function_a(fix_a)
    with pytest.raises(NotAFace):
        face_limit(f, square.id_of((0, 1, 2)), square.id_of((0, 3)))


def test_face_limit_direction_dependent(wedge, fix_c):
    g = scaled_slope_function_c(fix_c)
    k = g.complex
    tet = k.id_of((0, 3, 4, 5))
    z_edge = k.id_of((0, 3))
    assert face_limit(g, tet, z_edge).kind == DIRECTION_DEPENDENT


def test_face_limit_infinite():
    # 1/x on a segment with the pole at an endpoint
    from saet.complexes import build_complex

    k = build_complex([(0,), (1,)], [(0, 1)])
    m = PLSet(k, [k.id_of((0, 1))])
    f = PLFFunction(
        m,
        {k.id_of((0, 1)): RatioForm([AffineForm(1, (0,))], AffineForm(0, (1,)))},
    )
    r = face_limit(f, k.id_of((0, 1)), k.id_of((0,)))
    assert r.kind == INFINITE
    rep = weak_extension(f)
    assert k.id_of((0,)) not in rep.v_set.members


def test_face_limit_two_vanishing_factors():
    # both factors and the denominator vanish at the corner: the limit is 0
    # when one factor over the denominator is bounded on the cell, and
    # depends on the direction when neither is (y^2/x along y = x^(1/2))
    from saet.complexes import build_complex

    k = build_complex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    tri, corner = k.id_of((0, 1, 2)), k.id_of((0,))
    x, y = AffineForm.coordinate(0, 2), AffineForm.coordinate(1, 2)
    m = PLSet(k, [tri])
    bounded = face_limit(PLFFunction(m, {tri: RatioForm([x, y], x + y)}), tri, corner)
    assert bounded.kind == VALUE and bounded.value.as_affine().is_zero()
    assert face_limit(PLFFunction(m, {tri: RatioForm([y, y], x)}), tri, corner).kind == (
        DIRECTION_DEPENDENT
    )


def test_weak_extension_sharpness(wedge, fix_c):
    g = scaled_slope_function_c(fix_c)
    rep = weak_extension(g)
    k = g.complex
    origin = k.id_of((0,))
    zaxis = set(wall_ids(k, lambda v: v[0] == 0 and v[1] == 0)) - {origin}
    assert rep.y_set.members == zaxis
    assert rep.hypothesis_ok
    assert rep.y_dim_ok
    # wall values: z on y=0, 0 on x=y, 0 at the origin
    for w in wall_ids(k, lambda v: v[1] == 0, dim=2):
        assert ratio_forms_equal_on(rep.value_on(w), RatioForm.affine(Z), k.coords(w))
    for w in wall_ids(k, lambda v: v[0] == v[1], dim=2):
        assert ratio_forms_equal_on(
            rep.value_on(w), RatioForm.constant(0, 3), k.coords(w)
        )
    val0 = rep.value_on(origin).as_affine()
    assert val0 is not None and val0.is_zero()


def test_weak_extension_step(square, fix_a):
    f = step_function_a(fix_a)
    rep = weak_extension(f)
    axis_minus_origin = set(
        wall_ids(square, lambda v: v[1] == 0)
    ) - {square.id_of((0,))}
    assert set(rep.conflicts) == axis_minus_origin
    assert set(rep.hypothesis_violations) == axis_minus_origin
    assert not rep.hypothesis_ok


def test_weak_extension_global_affine(square, fix_a):
    form = AffineForm(F(1, 3), (2, -1))
    f = PLFFunction(
        fix_a, {sid: RatioForm.affine(form) for sid in fix_a.members}
    )
    rep = weak_extension(f)
    assert not rep.y_set.members
    assert rep.v_set.members == closure(fix_a).members
    for sid in rep.v_set.members:
        assert ratio_forms_equal_on(
            rep.values[sid], RatioForm.affine(form), square.coords(sid)
        )


def test_dim2_extension_fix_b(square, fix_b):
    f = interpolated_pl_function(
        fix_b, {vid: square.vertices[vid][0] for vid in range(len(square.vertices))}
    )
    rep = weak_extension(f)
    assert rep.hypothesis_ok and not rep.y_set.members
    # G = x on the whole closure
    for sid in rep.v_set.members:
        assert ratio_forms_equal_on(
            rep.values[sid],
            RatioForm.affine(AffineForm(0, (1, 0))),
            square.coords(sid),
        )


def test_dim2_extension_random_pl(square, fix_b):
    rng = random.Random(21)
    for _ in range(15):
        vals = {
            vid: F(rng.randint(-12, 12), rng.randint(1, 4))
            for vid in range(len(square.vertices))
        }
        f = interpolated_pl_function(fix_b, vals)
        rep = weak_extension(f)
        assert rep.hypothesis_ok and not rep.y_set.members
        # G restricted to members equals f exactly
        for sid in fix_b.members:
            assert ratio_forms_equal_on(
                rep.values[sid], f.pieces[sid], square.coords(sid)
            )


def test_dim2_extension_rejects_step(square, fix_a):
    f = step_function_a(fix_a)
    assert not weak_extension(f).hypothesis_ok


def test_graph_closure_oracle_fibers(square, fix_a):
    f = step_function_a(fix_a)
    orc = graph_closure_oracle(f)
    assert orc.fiber_at((F(1, 2), F(0))) == (0, 1)
    # fibers over points of M are singletons
    rng = random.Random(31)
    for _ in range(60):
        p = (F(rng.randint(-64, 64), 64), F(rng.randint(-64, 64), 64))
        if fix_a.contains_point(p):
            assert len(orc.fiber_at(p)) == 1


def test_graph_closure_oracle_builds_no_geometry(monkeypatch, square, fix_a):
    # the oracle reads the complex's cached geometries when asked for a
    # fiber; building it makes none of its own
    f = step_function_a(fix_a)
    built, original = [], SimplexGeometry.__init__

    def counting(geo, *args, **kwargs):
        built.append(args)
        original(geo, *args, **kwargs)

    monkeypatch.setattr(SimplexGeometry, "__init__", counting)
    graph_closure_oracle(f)
    assert built == []


def test_graph_closure_oracle_matches_extension(square, fix_a, fix_b):
    rng = random.Random(41)
    cases = [step_function_a(fix_a)]
    for _ in range(5):
        vals = {
            vid: F(rng.randint(-9, 9), rng.randint(1, 3))
            for vid in range(len(square.vertices))
        }
        cases.append(interpolated_pl_function(fix_b, vals))
    for f in cases:
        rep = weak_extension(f)
        orc = graph_closure_oracle(f)
        m = f.domain
        for beta in sorted(closure(m).members - m.members):
            forms = orc.fiber_forms(beta)
            if beta in rep.values:
                assert len(forms) == 1
                assert ratio_forms_equal_on(
                    forms[0], rep.values[beta], square.coords(beta)
                )
            elif beta in rep.conflicts:
                assert len(forms) > 1


def test_graph_closure_oracle_rejects_fractional(wedge, fix_c):
    with pytest.raises(Unbounded):
        graph_closure_oracle(scaled_slope_function_c(fix_c))


def test_extension_soundness_along_segments(square, fix_b):
    # sampled member points approaching a face: |f(y) - G(x)| decreases
    f = interpolated_pl_function(
        fix_b, {vid: square.vertices[vid][1] for vid in range(len(square.vertices))}
    )
    rep = weak_extension(f)
    k = square
    beta = k.id_of((0, 2))  # wall edge of the upper cone
    x = (F(1, 4), F(1, 4))
    inner = (F(1, 8), F(3, 4))  # in the upper cone
    g_val = rep.values[beta](x)
    gaps = []
    for j in range(1, 6):
        t = F(1, 2**j)
        y = tuple(xi + t * (ii - xi) for xi, ii in zip(x, inner))
        gaps.append(abs(f.evaluate(y) - g_val))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < F(1, 10)


def test_continuity_validation():
    from saet.complexes import build_complex

    k = build_complex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    m = PLSet(k, [k.id_of((0, 1, 2)), k.id_of((0, 1))])
    pieces = {
        k.id_of((0, 1, 2)): RatioForm.constant(1, 2),
        k.id_of((0, 1)): RatioForm.constant(2, 2),
    }
    with pytest.raises(ValueError):
        PLFFunction(m, pieces)
    f = PLFFunction(m, pieces, validate_continuity=False)
    assert f.continuity_violations


def test_denominator_sign_validation(square, fix_a):
    bad = {sid: RatioForm([AffineForm(1, (0, 0))], AffineForm(0, (0, 1)))
           for sid in fix_a.members}
    with pytest.raises(ValueError):
        PLFFunction(fix_a, bad, validate_continuity=False)


# --- the vertex-value kernel against the lattice-point reference ------------


def lattice_equal(a, b, verts):
    """ratio_forms_equal_on as it used to be computed: the cross-multiplied
    identity at every point of the order-3 principal lattice."""
    return all(
        a.numerator_value(p) * b.den(p) == b.numerator_value(p) * a.den(p)
        for p in lattice_points(verts, 3)
    )


def random_simplex(rng, n, d):
    from saet.rationals import affinely_independent

    while True:
        verts = [
            tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            for _ in range(d + 1)
        ]
        if affinely_independent(verts):
            return verts


def random_form(rng, n):
    return AffineForm(
        F(rng.randint(-5, 5), rng.randint(1, 4)),
        [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)],
    )


def vanishing_form(rng, verts, n):
    """A random affine form that is 0 at every vertex (0 when the simplex is
    full-dimensional): a random gradient made orthogonal to the edges."""
    from saet.rationals import dot, vscale, vsub

    basis = []
    for v in verts[1:]:
        e = vsub(v, verts[0])
        for u in basis:
            e = vsub(e, vscale(dot(e, u) / dot(u, u), u))
        basis.append(e)
    c = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
    for u in basis:
        c = vsub(c, vscale(dot(c, u) / dot(u, u), u))
    return AffineForm(-dot(c, verts[0]), c)


def test_ratio_forms_equal_on_matches_lattice_reference():
    # 360 seeded pairs over simplices of dimension 0-3 in R^1-R^3: random
    # pairs, pairs equal on the hull but not off it (summands vanishing on
    # the hull), pairs equal at some lattice points but not at all, one-
    # against two-factor numerators, and denominators that vanish at a vertex
    seen = {True: 0, False: 0}
    seen_off_hull = seen_vertex_zero = seen_mixed = 0
    for seed in range(360):
        rng = random.Random(seed)
        n = 1 + seed % 3
        d = rng.randint(0, n)
        verts = random_simplex(rng, n, d)
        f, g, den = (random_form(rng, n) for _ in range(3))
        if seed % 4 == 3:
            den = den - AffineForm.constant(den(verts[rng.randrange(d + 1)]), n)
            seen_vertex_zero += 1
        h1, h2, h3 = (vanishing_form(rng, verts, n) for _ in range(3))
        c = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
        kind = seed // 3 % 6
        if kind == 0:  # unrelated forms
            a = RatioForm([f], den)
            b = RatioForm([g, random_form(rng, n)], random_form(rng, n))
        elif kind == 1:  # one factor, scaled numerator and denominator
            a = RatioForm([f], den)
            b = RatioForm([f.scale(c) + h1], den.scale(c) + h2)
        elif kind == 2:  # two factors against two factors
            a = RatioForm([f, g], den)
            b = RatioForm([g + h1, f.scale(c) + h2], den.scale(c) + h3)
        elif kind == 3:  # f / 1 against (f + h) (den + h) / (den + h)
            a = RatioForm([f])
            b = RatioForm([f + h1, den + h2], den + h3)
        elif kind == 4:  # one factor off by a constant
            a = RatioForm([f, g], den)
            bump = AffineForm.constant(F(1, rng.randint(1, 5)), n)
            b = RatioForm([f + h1 + bump, g], den + h2)
        elif seed % 2:  # f g against its interpolant: equal at the vertices only
            a = RatioForm([f, g])
            b = RatioForm([sum(
                (lam.scale(f(v) * g(v)) for lam, v in zip(SimplexGeometry(verts).forms, verts)),
                AffineForm.constant(0, n),
            ) + h1])
        else:  # cross-multiplied: the cubic that vanishes at every lattice
            # point but one, a product of shifted barycentric coordinates
            lam = SimplexGeometry(verts).forms
            combo = rng.choice(list(combinations_with_replacement(range(d + 1), 3)))
            cubic = [lam[i].scale(3) - AffineForm.constant(j, n)
                     for i in sorted(set(combo)) for j in range(combo.count(i))]
            a = RatioForm(cubic[:2])
            b = RatioForm([h1], cubic[2])
        seen_mixed += len(a.factors) != len(b.factors)
        seen_off_hull += d < n and not (h1.is_zero() and h2.is_zero())
        want = lattice_equal(a, b, verts)
        assert ratio_forms_equal_on(a, b, verts) == want, seed
        assert ratio_forms_equal_on(b, a, verts) == want, seed
        seen[want] += 1
    assert min(seen.values()) > 60
    assert seen_off_hull > 100 and seen_vertex_zero == 90 and seen_mixed > 100


# --- the extension against the graph-closure oracle on generated inputs ----


def generated_marked_set(seed):
    """A small grid or wedge stack minus random lower cells, with the rng."""
    from saet.complexes import build_complex

    rng = random.Random(seed)
    if seed % 2 == 0:
        verts, tops = grid_tops(2 + seed // 2 % 3)
    else:
        verts, tops = wedge_stack_tops(1 + seed // 2 % 3)
    k = build_complex(verts, tops, validate=False)
    lower = [sid for sid in range(len(k.simplices)) if sid not in k.top_ids]
    removed = rng.sample(lower, rng.randint(1, len(lower) // 3))
    return rng, PLSet(k, set(range(len(k.simplices))) - set(removed))


def vertex_interpolant(k, top, values):
    # the affine form taking values[v] at each vertex v of the top
    acc = AffineForm.constant(0, k.n)
    for form, vid in zip(k.geometry(top).forms, k.simplex(top).vertex_ids):
        acc = acc + form.scale(values[vid])
    return acc


def brute_continuity_violations(f):
    # every (face, coface) pair of members, found by vertex sets, compared
    # at the lattice points of the face
    k, members = f.complex, sorted(f.domain.members)
    out = []
    for beta in members:
        ids = set(k.simplex(beta).vertex_ids)
        for sigma in members:
            if sigma != beta and ids <= set(k.simplex(sigma).vertex_ids):
                if not lattice_equal(f.pieces[beta], f.pieces[sigma], k.coords(beta)):
                    out.append((beta, sigma))
    return out


def test_extension_matches_oracle_on_generated_inputs():
    # continuous inputs (interpolated seeded vertex values) and discontinuous
    # ones (each top interpolates its own perturbed copy of the values, and a
    # lower cell takes the form of a random member top above it)
    seen_values = seen_conflicts = seen_violations = 0
    for seed in range(24):
        rng, m = generated_marked_set(seed)
        k = m.complex
        values = {v: F(rng.randint(-9, 9), rng.randint(1, 3)) for v in range(len(k.vertices))}
        if seed % 3:
            f = interpolated_pl_function(m, values)
            assert not f.continuity_violations
        else:
            forms = {}
            for top in k.top_ids:
                own = dict(values)
                if rng.random() < 0.5:
                    own[rng.choice(k.simplex(top).vertex_ids)] += 1
                forms[top] = vertex_interpolant(k, top, own)
            pieces = {
                sid: RatioForm.affine(forms[rng.choice(
                    [t for t in k.top_ids if k.simplex(sid).is_face_of(k.simplex(t))]
                )])
                for sid in m.members
            }
            f = PLFFunction(m, pieces, validate_continuity=False)
            assert f.continuity_violations == brute_continuity_violations(f)
            seen_violations += bool(f.continuity_violations)
        rep = weak_extension(f)
        orc = graph_closure_oracle(f)
        boundary = sorted(closure(m).members - m.members)
        assert set(rep.values) | set(rep.conflicts) >= set(boundary)
        for beta in boundary:
            forms_on_beta = orc.fiber_forms(beta)
            if beta in rep.values:
                assert len(forms_on_beta) == 1, (seed, beta)
                assert ratio_forms_equal_on(
                    forms_on_beta[0], rep.values[beta], k.coords(beta)
                )
                seen_values += 1
            else:
                assert len(forms_on_beta) > 1, (seed, beta)
                seen_conflicts += 1
    assert seen_values > 100 and seen_conflicts > 10 and seen_violations > 4


def test_extension_evaluates_each_form_once_per_vertex(monkeypatch):
    # on the 16-prism wedge stack with f = z (x - y) / x, loading the
    # function and extending it evaluate each piece form once at each vertex
    # of its cell, and nothing else: the hull identities read vertex values
    from saet import io
    from saet.complexes import build_complex

    verts, tops = wedge_stack_tops(16)
    verts = [(x, y, z - 8) for x, y, z in verts]
    k = build_complex(verts, tops, validate=False)
    origin = k.id_of((verts.index((0, 0, 0)),))
    members = {origin} | {
        sid for sid in range(len(k.simplices))
        if 0 < sum(p[1] for p in k.coords(sid)) < sum(p[0] for p in k.coords(sid))
    }
    m = PLSet(k, members)
    pieces = {sid: RatioForm([Z, X - Y], X) for sid in members - {origin}}
    pieces[origin] = RatioForm.constant(0, 3)
    data = io.function_to_dict(PLFFunction(m, pieces, validate_continuity=False))

    original, calls = AffineForm.__call__, []

    def counting(form, x):
        calls.append(x)
        return original(form, x)

    monkeypatch.setattr(AffineForm, "__call__", counting)
    f = io.function_from_dict(data, m)
    rep = weak_extension(f)
    bound = sum(
        (len(piece.factors) + 1) * len(k.coords(sid)) for sid, piece in f.pieces.items()
    )
    assert bound == 1505
    assert len(calls) <= bound
    zaxis = set(wall_ids(k, lambda v: v[0] == 0 and v[1] == 0)) - {origin}
    assert rep.y_set.members == zaxis and len(zaxis) == 32


def test_wrong_dimensions_refused(square, fix_a):
    with pytest.raises(ValueError, match=r"dimension \[2\] over a denominator of dimension 3"):
        RatioForm([AffineForm(0, (1, 0))], AffineForm(1, (0, 0, 0)))
    with pytest.raises(ValueError, match=r"dimension \[2, 3\]"):
        RatioForm([AffineForm(0, (1, 0)), AffineForm(0, (1, 0, 0))])
    pieces = {sid: RatioForm.constant(1, 2) for sid in fix_a.members}
    bad = min(fix_a.members)
    pieces[bad] = RatioForm.constant(1, 3)
    with pytest.raises(
        ValueError, match=rf"simplex {bad} has forms of dimension 3.* 2-dimensional"
    ):
        PLFFunction(fix_a, pieces)
    pieces[bad] = AffineForm(0, (1,))
    with pytest.raises(ValueError, match=rf"simplex {bad} has forms of dimension 1"):
        PLFFunction(fix_a, pieces)


def test_algebra_refuses_different_domains(square, fix_a, fix_b):
    one_a = PLFFunction(fix_a, {sid: RatioForm.constant(1, 2) for sid in fix_a.members})
    one_b = PLFFunction(fix_b, {sid: RatioForm.constant(1, 2) for sid in fix_b.members})
    with pytest.raises(ValueError, match="sum of functions on different domains"):
        one_a + one_b
    with pytest.raises(ValueError, match="product of functions on different domains"):
        one_a * one_b
    two = one_a + one_a
    assert all(two.pieces[sid].as_affine() == AffineForm.constant(2, 2) for sid in fix_a.members)


# --- the integer vertex-value table against the Fraction table --------------


def fraction_vertex_values(ratio, points):
    """``_VertexValues.of`` as it used to be computed: each form evaluated in
    Fractions (``AffineForm.__call__``) at each vertex, and the values
    written over their least common denominator."""
    from saet.extend import _VertexValues
    from saet.rationals import homogeneous

    vertices = [tuple(F(p, h[0]) for p in h[1:]) for h in points]
    forms = (*ratio.factors, ratio.den)
    size = len(vertices)
    scale, *flat = homogeneous([form(v) for form in forms for v in vertices])
    ints = [tuple(flat[i * size:(i + 1) * size]) for i in range(len(forms))]
    return _VertexValues(tuple(ints[:-1]), ints[-1], scale)


def report_fields(rep):
    """Every field of an ExtensionReport, with ratio forms as (factors, den)
    and limits as (kind, value), so reports from separate objects compare
    by value."""
    def plain(x):
        if isinstance(x, RatioForm):
            return x.factors, x.den
        if isinstance(x, LimitResult):
            return x.kind, plain(x.value)
        if isinstance(x, dict):
            return {key: plain(v) for key, v in x.items()}
        if isinstance(x, list):
            return [plain(v) for v in x]
        return x

    return {fd.name: plain(getattr(rep, fd.name)) for fd in fields(rep)}


def test_integer_vertex_table_matches_fraction_table(monkeypatch, square, fix_a, fix_b, fix_c):
    # whole extension reports and every face limit from the integer table
    # equal those from the Fraction table, on the fixtures, on generated
    # continuous and discontinuous inputs and on two-factor ratios whose
    # denominator vanishes on a wall
    from saet import extend

    cases = [step_function_a(fix_a), scaled_slope_function_c(fix_c), slope_function_c(),
             interpolated_pl_function(fix_b, {v: p[0] - p[1] for v, p in enumerate(square.vertices)})]
    for seed in range(16):
        rng, m = generated_marked_set(seed)
        k = m.complex
        values = {v: F(rng.randint(-9, 9), rng.randint(1, 3)) for v in range(len(k.vertices))}
        if seed % 4 == 0:
            cases.append(interpolated_pl_function(m, values))
        elif seed % 4 == 1:
            pieces = {}
            for sid in m.members:
                top = rng.choice([t for t in k.top_ids if k.simplex(sid).is_face_of(k.simplex(t))])
                pieces[sid] = RatioForm.affine(vertex_interpolant(k, top, values))
            cases.append(PLFFunction(m, pieces, validate_continuity=False))
        else:
            den = AffineForm(0, (1,) + (0,) * (k.n - 1))  # x, zero on the wall x = 0
            members = [s for s in m.members if max(p[0] for p in k.coords(s)) > 0]
            lead = AffineForm(0, [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k.n)])
            if seed % 4 == 3:
                lead = lead + AffineForm.constant(F(rng.randint(1, 3)), k.n)
            piece = RatioForm([lead, random_form(rng, k.n)], den)
            cases.append(PLFFunction(PLSet(k, members), {s: piece for s in members}))
    kinds = set()
    for f in cases:
        integer = PLFFunction(f.domain, f.pieces, validate_continuity=False)
        want_report = report_fields(weak_extension(integer))
        limits = {(s, b): face_limit(integer, s, b) for b in closure(f.domain).members
                  for s in f.complex.cofaces[b] if s != b and s in f.domain.members}
        with monkeypatch.context() as patch:
            patch.setattr(extend._VertexValues, "of", staticmethod(fraction_vertex_values))
            reference = PLFFunction(f.domain, f.pieces, validate_continuity=False)
            assert reference.continuity_violations == integer.continuity_violations
            assert report_fields(weak_extension(reference)) == want_report
            for (s, b), got in limits.items():
                want = face_limit(reference, s, b)
                assert (got.kind, got.value and (got.value.factors, got.value.den)) == (
                    want.kind, want.value and (want.value.factors, want.value.den))
                kinds.add(want.kind)
    assert kinds == {VALUE, INFINITE, DIRECTION_DEPENDENT}


def _transported(f: PLFFunction):
    """f on the barycentric subdivision of its complex, by carrier: each
    marked chain takes the piece of its largest element; with the carrier
    of every cell of the subdivision."""
    from saet.complexes import barycentric_subdivide

    k = f.complex
    sub, marked = barycentric_subdivide(k, f.domain)
    carrier = [max(c.vertex_ids, key=k.dim_of) for c in sub.simplices]
    assert marked.members == {c for c, beta in enumerate(carrier) if beta in f.domain.members}
    pieces = {c: f.pieces[carrier[c]] for c in marked.members}
    return PLFFunction(marked, pieces, validate_continuity=False), carrier


def test_extension_and_germs_invariant_under_subdivision(fix_c):
    # the extension and the germ values belong to the point set, not to its
    # triangulation.  Every boundary cell of the subdivided set has a value,
    # a conflict or an infinite limit, and lies in V and Y, exactly when its
    # carrier does; its value is the carrier's on its vertices; the
    # hypothesis and dimension checks agree; and evaluate and eval_hom give
    # equal germ values, or raise the same exception type, at seeded germs.
    # f is continuous, interpolated from seeded vertex values, as the
    # paper's S(M) is; fix_c's function has conflicts.  A discontinuous f
    # differs by design: on seed 18's discontinuous input of
    # test_extension_matches_oracle_on_generated_inputs, the conflict edge
    # (4, 8) runs from (1/2, 1/2) to (1, 1) and its two limit forms agree at
    # its barycenter (3/4, 3/4), so the subdivision gives that point a value
    from saet.germs import eval_hom, evaluate
    from test_germs import _seeded_germs, germs_into_boundary, outcome

    cases = []
    for seed in range(24):
        rng, m = generated_marked_set(seed)
        values = {v: F(rng.randint(-9, 9), rng.randint(1, 3))
                  for v in range(len(m.complex.vertices))}
        cases.append(interpolated_pl_function(m, values))
    cases.append(scaled_slope_function_c(fix_c))
    seen = dict.fromkeys(["value", "conflict", "germ_value", "germ_refusal"], 0)
    for case, f in enumerate(cases):
        g, carrier = _transported(f)
        rep, sub_rep = weak_extension(f), weak_extension(g)
        assert (sub_rep.hypothesis_ok, sub_rep.y_dim_ok) == (rep.hypothesis_ok, rep.y_dim_ok)
        for c in closure(g.domain).members - g.domain.members:
            beta = carrier[c]
            for part in ("values", "conflicts", "infinite_faces"):
                assert (c in getattr(sub_rep, part)) == (beta in getattr(rep, part)), (case, c)
            for part in ("v_set", "y_set"):
                assert (c in getattr(sub_rep, part).members) == (
                    beta in getattr(rep, part).members), (case, c)
            if c in sub_rep.values:
                assert ratio_forms_equal_on(sub_rep.values[c], rep.values[beta],
                                            g.complex.coords(c)), (case, c)
                seen["value"] += 1
            seen["conflict"] += c in sub_rep.conflicts
        germs = list(_seeded_germs(f.complex, random.Random(case), 24))
        germs += germs_into_boundary(f.domain)
        for alpha in germs:
            for run in (lambda h, r: evaluate(h, alpha), lambda h, r: eval_hom(h, alpha, r)):
                want, got = outcome(lambda: run(f, rep)), outcome(lambda: run(g, sub_rep))
                if isinstance(want, type):
                    assert got is want, (case, alpha)
                    seen["germ_refusal"] += 1
                else:
                    assert not isinstance(got, type) and got == want, (case, alpha)
                    seen["germ_value"] += 1
    assert len(cases) == 25 and seen["conflict"] and min(seen.values()) > 0, seen
    assert seen["value"] > 1000 and seen["germ_value"] > 800, seen


# --- one load per distinct form ---------------------------------------------


def per_piece_load(data, m):
    """``io.function_from_dict`` without sharing: every piece parses its
    own forms into its own RatioForm, with the continuity check off."""
    def form(coeffs):
        return AffineForm(coeffs[0], coeffs[1:])

    pieces = {e["simplex"]: RatioForm([form(g) for g in e.get("num_factors", [e.get("num")])],
                                      form(e["den"]))
              for e in data["pieces"]}
    return PLFFunction(m, pieces, validate_continuity=False)


def test_shared_load_matches_per_piece_load():
    # on the 80 generated marked sets of the carving pin, with continuous
    # (interpolated) and discontinuous (each top its own perturbed values,
    # each lower cell a random top's piece) functions, and on step_function_a:
    # the load that shares equal pieces gives the continuity violations and
    # every extension report field of the load that shares nothing
    import json

    from saet import io
    from test_carve import _generated_marked_sets

    cases = [(step_function_a().domain, io.function_to_dict(step_function_a()))]
    for kind, seed, m in _generated_marked_sets():
        rng, k = random.Random(seed), m.complex
        values = {v: F(rng.randint(-4, 4), rng.randint(1, 2)) for v in range(len(k.vertices))}
        if seed % 2:
            f = interpolated_pl_function(m, values)
        else:
            forms = {}
            for top in k.top_ids:
                own = dict(values)
                own[rng.choice(k.simplex(top).vertex_ids)] += rng.randint(0, 1)
                forms[top] = vertex_interpolant(k, top, own)
            f = PLFFunction(m, {sid: RatioForm.affine(forms[rng.choice(
                [t for t in k.cofaces[sid] if t in forms])]) for sid in m.members},
                validate_continuity=False)
        cases.append((m, io.function_to_dict(f)))
    seen_violations = seen_shared = 0
    for m, data in cases:
        data = json.loads(json.dumps(data))
        shared = io.function_from_dict(data, m, validate_continuity=False)
        alone = per_piece_load(data, m)
        assert len({id(p) for p in alone.pieces.values()}) == len(alone.pieces)
        seen_shared += len({id(p) for p in shared.pieces.values()}) < len(shared.pieces)
        assert shared.continuity_violations == alone.continuity_violations
        seen_violations += bool(shared.continuity_violations)
        assert report_fields(weak_extension(shared)) == report_fields(weak_extension(alone))
    assert len(cases) == 81 and seen_shared == 81 and seen_violations > 20, seen_violations


def test_grid_cut_load_parses_each_list_once(monkeypatch):
    # f = x on the 8 x 8 cut grid: its 400 pieces carry two distinct lists,
    # ["0", "1", "0"] and ["1", "0", "0"]; each is parsed once, and no
    # (face, coface) pair whose cells share a piece reaches _values_equal
    import json
    from collections import Counter

    from saet import extend, io
    from test_carve import grid_cut

    m = grid_cut(8)
    k = m.complex
    f = interpolated_pl_function(m, {v: p[0] for v, p in enumerate(k.vertices)})
    data = json.loads(json.dumps(io.function_to_dict(f)))
    parsed, compared = Counter(), []
    affine_from_list, values_equal = io._affine_from_list, extend._values_equal
    monkeypatch.setattr(io, "_affine_from_list",
                        lambda c, n, name: parsed.update([tuple(c)]) or affine_from_list(c, n, name))
    monkeypatch.setattr(extend, "_values_equal",
                        lambda a, b: compared.append(1) or values_equal(a, b))
    g = io.function_from_dict(data, m)
    assert len(data["pieces"]) == 400 and parsed == {("0", "1", "0"): 1, ("1", "0", "0"): 1}
    pairs = [(beta, sigma) for beta in m.members for sigma in k.cofaces[beta]
             if sigma != beta and sigma in m.members]
    distinct = [(beta, sigma) for beta, sigma in pairs if g.pieces[beta] is not g.pieces[sigma]]
    assert len(pairs) > 1000 and len(compared) == len(distinct) == 0
    assert not g.continuity_violations


def test_interpolant_host_is_first_member_top():
    # each member takes the piece of the first member top, in the order of
    # the old scan over every top, and all members under one host share it
    from test_carve import _generated_marked_sets

    for kind, seed, m in _generated_marked_sets():
        k = m.complex
        f = interpolated_pl_function(m, {v: F(v % 7 - 3, 1 + v % 2) for v in range(len(k.vertices))})
        tops = [s for s in m.members
                if not any(c != s and c in m.members for c in k.cofaces[s])]
        for sid in m.members:
            host = next(t for t in tops if k.simplex(sid).is_face_of(k.simplex(t)))
            assert f.pieces[sid] is f.pieces[host], (kind, seed, sid)
        assert len({id(p) for p in f.pieces.values()}) == len(tops)
