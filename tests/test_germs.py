import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import assume
from hypothesis import strategies as st

from saet.complexes import PLSet
from saet.errors import (
    GermNotInTau,
    LimitOutsideClosure,
    NotEventuallyInDomain,
    PoleAtZero,
    PreconditionViolated,
    SameApex,
)
from saet.extend import PLFFunction, RatioForm, weak_extension
from saet.fixtures import (
    interpolated_pl_function,
    scaled_slope_function_c,
    step_function_a,
)
from saet.germs import (
    ADJACENT,
    NOT_ADJACENT,
    GermValue,
    PathGerm,
    adjacency_test,
    cone_restriction,
    core,
    depth,
    distinct_homs_witness,
    eval_hom,
    evaluate,
    hom_via_cone,
    is_in_extension,
)
from saet.rationals import AffineForm

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
)


def coord_function(m: PLSet, axis: int) -> PLFFunction:
    n = m.complex.n
    form = AffineForm(0, [int(i == axis) for i in range(n)])
    return PLFFunction(
        m, {sid: RatioForm.affine(form) for sid in m.members},
        validate_continuity=False,
    )


def test_path_validation():
    with pytest.raises(ValueError):
        PathGerm([(1, (0, 0), (1, 0)), (2, (5, 5), (1, 0))])  # jump at t=1
    p = PathGerm([(1, (0, 0), (1, 0)), (2, (F(1, 2), 0), (F(1, 2), 0))])
    assert p.at(F(1, 2)) == (F(1, 2), 0)
    assert p.at(2) == (F(3, 2), 0)
    with pytest.raises(ValueError):
        PathGerm([])


def test_evaluate_examples(fix_a, fix_c):
    fx = coord_function(fix_a, 0)
    assert evaluate(fx, PathGerm.linear((0, 0), (1, F(1, 2)))).pair() == (0, 1)
    g = scaled_slope_function_c(fix_c)
    val = evaluate(g, PathGerm.linear((0, 0, 1), (2, 1, 0)))
    assert val.pair() == (F(1, 2), 0)
    # constant path at a member point
    const = PathGerm.linear((F(1, 4), F(1, 2)), (0, 0))
    fs = step_function_a(fix_a)
    assert evaluate(fs, const).pair() == (1, 0)


def test_evaluate_outside_domain(fix_a):
    fs = step_function_a(fix_a)
    with pytest.raises(NotEventuallyInDomain):
        evaluate(fs, PathGerm.linear((0, 0), (1, 0)))  # germ on the axis


def test_evaluate_pole():
    from saet.complexes import build_complex

    k = build_complex([(0,), (1,)], [(0, 1)])
    m = PLSet(k, [k.id_of((0, 1))])
    f = PLFFunction(
        m, {k.id_of((0, 1)): RatioForm([AffineForm(1, (0,))], AffineForm(0, (1,)))}
    )
    with pytest.raises(PoleAtZero):
        evaluate(f, PathGerm.linear((0,), (1,)))


def test_core(fix_a):
    a1 = PathGerm([(1, (0, 0), (1, F(1, 2)))])
    a2 = PathGerm([(F(1, 2), (0, 0), (1, F(1, 2))), (1, (F(1, 4), F(1, 8)), (F(1, 2), F(1, 4)))])
    assert core(a1) == core(a2)
    assert core(a1).germ() == ((0, 0), (1, F(1, 2)))
    # cores are computed by evaluating the coordinate projections
    fx, fy = coord_function(fix_a, 0), coord_function(fix_a, 1)
    ax = PathGerm.linear((0, 0), (1, F(1, 2)))
    c, v = core(ax).germ()
    assert evaluate(fx, ax).pair() == (c[0], v[0])
    assert evaluate(fy, ax).pair() == (c[1], v[1])


def test_adjacency_dichotomy(square, fix_a):
    up = PathGerm.linear((0, 0), (1, F(1, 2)))
    assert is_in_extension(up, fix_a) and adjacency_test(up, fix_a) == ADJACENT
    axis_to_origin = PathGerm.linear((0, 0), (1, 0))
    assert not is_in_extension(axis_to_origin, fix_a)
    assert adjacency_test(axis_to_origin, fix_a) == ADJACENT  # limit is in M
    axis_inside = PathGerm.linear((F(1, 2), 0), (1, 0))
    assert adjacency_test(axis_inside, fix_a) == NOT_ADJACENT
    escaping = PathGerm.linear((1, 0), (1, 0))  # leaves the square
    assert adjacency_test(escaping, fix_a) == NOT_ADJACENT
    const_out = PathGerm.linear((F(1, 2), 0), (0, 0))
    assert adjacency_test(const_out, fix_a) == NOT_ADJACENT


def test_adjacency_locally_closed_matches_membership(square):
    # on a locally closed set, Adjacent iff the germ is in the set
    tris = [i for i in range(len(square.simplices)) if square.dim_of(i) == 2]
    open_square = PLSet(square, tris)
    cases = [
        PathGerm.linear((0, 0), (1, F(1, 2))),
        PathGerm.linear((0, 0), (1, 0)),
        PathGerm.linear((F(1, 2), F(1, 2)), (0, 0)),
    ]
    for alpha in cases:
        assert (adjacency_test(alpha, open_square) == ADJACENT) == is_in_extension(
            alpha, open_square
        )


def test_depth(fix_a):
    const_in = PathGerm.linear((F(1, 4), F(1, 2)), (0, 0))
    assert depth(const_in, fix_a) == 0
    moving = PathGerm.linear((0, 0), (1, F(1, 2)))
    assert depth(moving, fix_a) == 1
    boundary_moving = PathGerm.linear((F(1, 2), 0), (1, 0))
    assert depth(boundary_moving, fix_a) == 1
    outside = PathGerm.linear((7, 7), (0, 0))
    with pytest.raises(LimitOutsideClosure):
        depth(outside, fix_a)


def test_depth_monotone_under_closure(square, fix_a):
    from saet.complexes import closure

    cl = closure(fix_a)
    for alpha in (
        PathGerm.linear((F(1, 4), F(1, 2)), (0, 0)),
        PathGerm.linear((0, 0), (1, F(1, 2))),
    ):
        assert depth(alpha, cl) <= depth(alpha, fix_a)


def test_eval_hom_cases(square, fix_b, fix_c):
    fB = interpolated_pl_function(
        fix_b, {vid: square.vertices[vid][0] for vid in range(len(square.vertices))}
    )
    repB = weak_extension(fB)
    wall = PathGerm.linear((0, 0), (1, 1))
    assert eval_hom(fB, wall, repB).pair() == (0, 1)
    inside = PathGerm.linear((0, 0), (0, 1))
    assert eval_hom(fB, inside, repB) == evaluate(fB, inside)
    g = scaled_slope_function_c(fix_c)
    repC = weak_extension(g)
    wall_to_origin = PathGerm.linear((0, 0, 0), (2, 0, 1))
    val = eval_hom(g, wall_to_origin, repC)
    assert val.a == 0  # the extension values 0 at the origin
    assert val.pair() == (0, 1)  # z along the path


def test_eval_hom_global_affine(square, fix_b):
    form = AffineForm(F(1, 2), (1, -2))
    f = PLFFunction(fix_b, {sid: RatioForm.affine(form) for sid in fix_b.members})
    rep = weak_extension(f)
    for alpha in (
        PathGerm.linear((0, 0), (1, 1)),
        PathGerm.linear((0, 0), (0, 1)),
    ):
        expected = (
            form(alpha.limit),
            form(tuple(c + v for c, v in zip(*alpha.germ()))) - form(alpha.limit),
        )
        assert eval_hom(f, alpha, rep).pair() == expected


def test_eval_hom_bad_set(square, fix_a):
    f = step_function_a(fix_a)
    rep = weak_extension(f)
    axis_to_origin = PathGerm.linear((0, 0), (1, 0))
    from saet.errors import GermInBadSet

    with pytest.raises(GermInBadSet):
        eval_hom(f, axis_to_origin, rep)


def test_ring_homomorphism_properties(square, fix_b):
    rng = random.Random(3)
    vals1 = {v: F(rng.randint(-6, 6), 2) for v in range(len(square.vertices))}
    vals2 = {v: F(rng.randint(-6, 6), 2) for v in range(len(square.vertices))}
    f = interpolated_pl_function(fix_b, vals1)
    g = interpolated_pl_function(fix_b, vals2)
    alpha = PathGerm.linear((0, 0), (F(1, 3), 1))
    vf, vg = evaluate(f, alpha), evaluate(g, alpha)
    assert evaluate(f + g, alpha).pair() == (vf + vg).pair()
    product = evaluate(f * g, alpha)
    assert product == vf * vg


def test_positivity(square, fix_b):
    # f > 0 on the carrier cell implies a strictly positive germ value
    f = interpolated_pl_function(
        fix_b,
        {v: abs(square.vertices[v][1]) + 1 for v in range(len(square.vertices))},
    )
    alpha = PathGerm.linear((0, 0), (0, 1))
    assert evaluate(f, alpha) > GermValue(0, 0)
    # product case with second-order contact: series comparison decides
    g = f * f
    val = evaluate(coord_function(fix_b, 1) * coord_function(fix_b, 1), alpha)
    assert val.pair() == (0, 0)
    assert val > GermValue(0, 0)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_germ_value_lex_order(a1, b1, a2, b2):
    g1, g2 = GermValue(a1, b1), GermValue(a2, b2)
    assert (g1.pair() < g2.pair()) == (g1 < g2)
    assert (g1.pair() == g2.pair()) == (g1 == g2)


def test_cone_restriction_preconditions(wedge, fix_c):
    k = wedge
    tau = k.id_of((0, 1))
    sigma = k.id_of((0, 1, 2, 5))
    b = k.barycenter(sigma)
    v = k.vertices[2]
    good_q = tuple(F(1, 2) * (x + y) for x, y in zip(v, b))
    cone = cone_restriction(fix_c, tau, sigma, good_q)
    assert cone.validate_inclusions(30, 0)["ok"]
    with pytest.raises(PreconditionViolated):
        cone_restriction(fix_c, tau, sigma, (5, 5, 5))  # off the segment
    with pytest.raises(PreconditionViolated):
        cone_restriction(fix_c, k.id_of((0, 2)), sigma, good_q)  # tau in M
    with pytest.raises(PreconditionViolated):
        triangle = k.id_of((0, 1, 4))
        cone_restriction(fix_c, tau, triangle, good_q)  # dim gap < 2


def test_cone_restriction_membership(wedge, fix_c):
    k = wedge
    tau = k.id_of((0, 1))
    sigma = k.id_of((0, 1, 2, 5))
    b = k.barycenter(sigma)
    v = k.vertices[2]
    q = tuple(F(1, 2) * (x + y) for x, y in zip(v, b))
    cone = cone_restriction(fix_c, tau, sigma, q)
    mid_tau = (F(1, 2), 0, 0)
    assert not cone.member(mid_tau)  # base cell outside the marked set
    toward = tuple(F(3, 4) * a + F(1, 4) * c for a, c in zip(mid_tau, q))
    assert cone.member(toward)


def test_hom_via_cone_and_witness(wedge, fix_c):
    k = wedge
    tau = k.id_of((0, 1))
    sigma = k.id_of((0, 1, 2, 5))
    b = k.barycenter(sigma)
    v = k.vertices[2]
    q1 = tuple(F(2, 3) * x + F(1, 3) * y for x, y in zip(v, b))
    q2 = tuple(F(1, 3) * x + F(2, 3) * y for x, y in zip(v, b))
    alpha = PathGerm.linear((F(1, 2), 0, 0), (F(1, 8), 0, 0))
    g = scaled_slope_function_c(fix_c)
    cone1 = cone_restriction(fix_c, tau, sigma, q1)
    val = hom_via_cone(g, cone1, cone1 and alpha)
    assert isinstance(val, GermValue)
    with pytest.raises(GermNotInTau):
        hom_via_cone(g, cone1, PathGerm.linear((F(1, 4), F(1, 8), 0), (1, 0, 0)))

    witness, v1, v2 = distinct_homs_witness(fix_c, tau, sigma, q1, q2, alpha)
    assert v1.pair() == (0, 0)
    assert v2 != v1 and v2 > GermValue(0, 0)
    assert core(alpha) == core(alpha)
    with pytest.raises(SameApex):
        distinct_homs_witness(fix_c, tau, sigma, q1, q1, alpha)
    # witness vanishes identically on the first cone, equals g's PL factor
    # on the second (sampled exactly)
    rng = random.Random(9)
    for _ in range(20):
        t = F(rng.randint(1, 15), 16)
        s = F(rng.randint(1, 15), 16)
        base = alpha.at(t)
        x1 = tuple((1 - s) * a + s * b for a, b in zip(base, q1))
        x2 = tuple((1 - s) * a + s * b for a, b in zip(base, q2))
        assert witness(x1) == 0
        assert witness(x2) == witness.g.evaluate(x2)


def test_witness_continuity_spot_checks(wedge, fix_c):
    # f = f0 * g extends by zero across the base cell: values shrink toward it
    k = wedge
    tau = k.id_of((0, 1))
    sigma = k.id_of((0, 1, 2, 5))
    b = k.barycenter(sigma)
    v = k.vertices[2]
    q1 = tuple(F(2, 3) * x + F(1, 3) * y for x, y in zip(v, b))
    q2 = tuple(F(1, 3) * x + F(2, 3) * y for x, y in zip(v, b))
    alpha = PathGerm.linear((F(1, 2), 0, 0), (F(1, 8), 0, 0))
    witness, _, _ = distinct_homs_witness(fix_c, tau, sigma, q1, q2, alpha)
    # f extends by zero across M ∩ boundary(tau): approaching the origin
    # vertex (in M, on the base boundary) the values shrink to zero;
    # across the open base cell f genuinely jumps, which is the point
    origin = (0, 0, 0)
    inner = (F(1, 2), F(1, 4), F(1, 4))
    vals = []
    for j in range(1, 7):
        t = F(1, 4**j)
        x = tuple((1 - t) * a + t * d for a, d in zip(origin, inner))
        vals.append(abs(witness(x)))
    assert vals[-1] < vals[0]
    assert vals[-1] < F(1, 1000)
    assert witness(origin) == 0


def test_path_point_and_velocity_share_a_dimension():
    with pytest.raises(ValueError):
        PathGerm.linear((0, 0), (0, 1, 0))  # zip would drop the third velocity


# --- one germ cell: the star search against an all-cells reference ----------


def all_cells_eventual_simplex(alpha: PathGerm, k) -> int | None:
    """Reference: test every cell of the complex.  The germ settles into
    an open cell iff its line lies in the cell's affine hull (the squared
    height, a quadratic in t, vanishes at three points) and every
    barycentric coordinate, affine in t, is eventually positive."""
    c, v = alpha.germ()
    pts = [tuple(ci + t * vi for ci, vi in zip(c, v)) for t in (0, 1, 2)]
    found = []
    for sid in range(len(k.simplices)):
        data = [k.geometry(sid).coords_and_height_sq(p) for p in pts]
        if any(h != 0 for _, h in data):
            continue
        (b0, _), (b1, _) = data[0], data[1]
        if all(x > 0 or (x == 0 and y > x) for x, y in zip(b0, b1)):
            found.append(sid)
    assert len(found) <= 1  # open cells are disjoint
    return found[0] if found else None


def _open_point(k, sid, rng):
    weights = [F(rng.randint(1, 5)) for _ in k.simplex(sid).vertex_ids]
    return k.geometry(sid).point_at([w / sum(weights) for w in weights])


def _seeded_germs(k, rng, count):
    """Germs that start at vertices, on edges, inside cells and outside |K|,
    with random, cell-aligned and zero velocities."""
    lows = [min(p[i] for p in k.vertices) for i in range(k.n)]
    for j in range(count):
        dim = j % 4
        if dim == 3:  # outside |K|: below the bounding box on a random axis
            axis = rng.randrange(k.n)
            c = tuple(lows[i] - F(1, 3) if i == axis else F(rng.randint(0, 4), 4)
                      for i in range(k.n))
        else:
            cells = [s for s in range(len(k.simplices)) if k.dim_of(s) == min(dim, k.dim)]
            c = _open_point(k, rng.choice(cells), rng)
        kind = rng.randrange(3)
        if kind == 0:
            v = (0,) * k.n  # constant germ
        elif kind == 1:  # toward a point of some cell: often along a face
            target = _open_point(k, rng.randrange(len(k.simplices)), rng)
            v = tuple(a - b for a, b in zip(target, c))
        else:
            v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k.n))
        yield PathGerm.linear(c, v)


def test_eventual_simplex_matches_all_cells_reference():
    from saet.complexes import build_complex
    from saet.germs import eventual_simplex
    from test_complexes import grid_tops, wedge_stack_tops

    seen_dims = set()
    outside = 0
    for seed in range(8):
        rng = random.Random(seed)
        if seed % 2 == 0:
            verts, tops = grid_tops(3 + seed // 2 % 3)
        else:
            verts, tops = wedge_stack_tops(2 + seed // 2 % 2)
        k = build_complex(verts, tops, validate=False)
        for alpha in _seeded_germs(k, rng, 32):
            want = all_cells_eventual_simplex(alpha, k)
            assert eventual_simplex(alpha, k) == want, alpha
            if want is None:
                outside += 1
            else:
                seen_dims.add(k.dim_of(want))
    assert seen_dims == {0, 1, 2, 3} and outside


# --- one germ value: exact arithmetic in Q(t) -------------------------------


def test_germ_value_is_an_exact_field_element(square):
    t = GermValue(0, 1)
    zero, one = GermValue(0, 0), GermValue(1)
    assert t * t != zero and t * t > zero and -(t * t) < zero
    assert t / t == one and hash(t / t) == hash(one) == hash(1)
    assert t / t == 1 and GermValue(3, den=(2,)) == F(3, 2)
    assert (t + 1) * (t - 1) == t * t - 1
    assert GermValue(1, 1, den=(1, -1)) == (1 + t) / (1 - t)
    assert (t * t).pair() == (0, 0) and ((1 + t) / (1 - t)).pair() == (1, 2)
    assert 1 / (1 + t) > 1 - t and 1 / (1 + t) < 1 - t + t * t
    with pytest.raises(PoleAtZero):
        (1 / t).pair()
    with pytest.raises(ZeroDivisionError):
        t / zero
    # equality is transitive through higher-order contact
    y_axis = PathGerm.linear((0, 0), (0, 1))
    y = coord_function(PLSet(square, range(len(square.simplices))), 1)
    t_sq = evaluate(y * y, y_axis)
    assert t_sq == t * t and t_sq != zero and hash(t_sq) == hash(t * t)
    assert len({t_sq, t * t, zero, GermValue(0), one, t / t}) == 3


def test_eval_hom_makes_one_cell_query(monkeypatch, square, fix_b):
    from saet import germs

    f = interpolated_pl_function(
        fix_b, {vid: square.vertices[vid][0] for vid in range(len(square.vertices))}
    )
    rep = weak_extension(f)
    calls = []
    original = germs.eventual_simplex

    def counting(alpha, k):
        calls.append(alpha)
        return original(alpha, k)

    monkeypatch.setattr(germs, "eventual_simplex", counting)
    for alpha in (PathGerm.linear((0, 0), (1, 1)), PathGerm.linear((0, 0), (0, 1))):
        calls.clear()
        eval_hom(f, alpha, rep)
        assert len(calls) == 1


quarters = st.fractions(-1, 1, max_denominator=4)
steps = st.integers(-2, 2)
values = st.fractions(-4, 4, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluation_is_an_ordered_ring_homomorphism(square, fix_b, data):
    # exact laws on generated PL functions and germs of the double cone
    from saet.germs import eventual_simplex

    def pl_function():
        return interpolated_pl_function(
            fix_b, {v: data.draw(values) for v in range(len(square.vertices))})

    alpha = PathGerm.linear(data.draw(st.tuples(quarters, quarters)),
                            data.draw(st.tuples(steps, steps)))
    carrier = eventual_simplex(alpha, square)
    assume(carrier in fix_b.members)
    f, g = pl_function(), pl_function()
    vf, vg = evaluate(f, alpha), evaluate(g, alpha)
    assert evaluate(f + g, alpha) == vf + vg
    assert evaluate(f * g, alpha) == vf * vg
    c = data.draw(values)
    const = PLFFunction(fix_b, {sid: RatioForm.constant(c, 2) for sid in fix_b.members})
    assert evaluate(const, alpha) == GermValue(c)

    def positive_on_carrier(h):  # >= 0 at the vertices and not all 0
        at = [h.pieces[carrier](p) for p in square.coords(carrier)]
        return min(at) >= 0 and max(at) > 0

    for h in (f, g):
        if positive_on_carrier(h):
            assert evaluate(h, alpha) > 0
    if positive_on_carrier(f) and positive_on_carrier(g):
        assert evaluate(f * g, alpha) > 0  # second order where both vanish


@pytest.fixture(scope="module")
def wedge_coordinates(fix_c):
    return [coord_function(fix_c, i) for i in range(3)]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_substitution_identity(wedge, fix_c, wedge_coordinates, data):
    # phi(f) = f(phi(x_1), ..., phi(x_n)), the right side computed by
    # evaluating the carrier's RatioForm piece in Q(t) arithmetic
    from saet.germs import eventual_simplex

    x = data.draw(st.fractions(0, 1, max_denominator=4))
    y = min(x, data.draw(st.fractions(0, 1, max_denominator=4)))
    alpha = PathGerm.linear((x, y, data.draw(quarters)),
                            data.draw(st.tuples(steps, steps, steps)))
    carrier = eventual_simplex(alpha, wedge)
    assume(carrier in fix_c.members)
    if data.draw(st.booleans()):
        f = scaled_slope_function_c(fix_c)  # the two-factor piece z (x - y) / x
    else:
        f, g = (interpolated_pl_function(
            fix_c, {v: data.draw(values) for v in range(len(wedge.vertices))})
            for _ in range(2))
        f = f * g
    coords = tuple(evaluate(x_i, alpha) for x_i in wedge_coordinates)
    assert evaluate(f, alpha) == f.pieces[carrier](coords)
