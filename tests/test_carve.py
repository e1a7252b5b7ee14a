import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from saet.carve import (
    CarvedSet,
    appropriate_embed,
    carve_base_vertices,
    carve_level,
    deformation_coeffs,
    probe_germ,
    snap_eps_sq,
)
from saet.complexes import PLSet, build_complex, closure, eta
from saet.errors import BadOrder, OutOfDomain, PreconditionViolated
from saet.fixtures import punctured_square
from saet.intervals import Interval, interval_sqrt
from saet.probe import CONNECTED, DISCONNECTED


def test_coeffs_hand_example():
    co = deformation_coeffs(F(1, 4), F(1, 2))
    assert (co.a1, co.a2, co.b1, co.b2) == (F(1, 4), F(1, 2), 2, -F(1, 2))
    assert co.a1 + co.a2 * co.b2 == 0
    assert co.a2 * co.b1 == 1


def test_coeffs_reject_equal_scales():
    with pytest.raises(BadOrder):
        deformation_coeffs(F(1, 2), F(1, 2))


def test_coeffs_symbolic_random():
    rng = random.Random(1)
    for _ in range(50):
        s = F(rng.randint(1, 30), 60)
        sp = s + F(rng.randint(1, 30), 60)
        co = deformation_coeffs(s, sp)
        assert co.a1 + co.a2 * co.b2 == 0
        assert co.a2 * co.b1 == 1


def test_coeffs_interval_for_eps_one_fifth():
    # eps^2 = 1/5: s' = eps* = 1/2 exactly, s = (eps/2)* = 1/sqrt(19)
    sp = interval_sqrt(Interval(F(1, 5) / (1 - F(1, 5))), 64)
    assert sp.is_exact() and sp.lo == F(1, 2)
    s = interval_sqrt(Interval(F(1, 20) / (1 - F(1, 20))), 64)
    co = deformation_coeffs(s, sp)
    ident1 = co.a1 + co.a2 * co.b2
    ident2 = co.a2 * co.b1
    assert ident1.contains(0) and ident2.contains(1)


def test_snap_eps_makes_half_width_rational():
    from saet.rationals import rational_sqrt

    for eps in (F(1, 4), F(1, 16), F(3, 7)):
        snapped = snap_eps_sq(eps)
        assert snapped <= eps
        half_star_sq = (snapped / 4) / (1 - snapped / 4)
        assert rational_sqrt(half_star_sq) is not None


def test_carve_level_fix_a(square, fix_a):
    e = eta(fix_a)
    tops = [t for t in sorted(e.members) if square.dim_of(t) == 1]
    carved, push, pull = carve_level(fix_a, tops)
    # members of the removed half-open tubes are gone; base boundary stays
    assert not carved.member((F(1, 2), F(1, 100)))
    assert carved.member((0, 0))  # boundary of the carved base cell, in M
    assert carved.member((F(1, 2), F(1, 2)))
    # round trip g(h(x)) = x within 2^-30
    rng = random.Random(5)
    checked = 0
    for _ in range(80):
        x = (F(rng.randint(-64, 64), 64), F(rng.randint(-64, 64), 64))
        if not carved.member(x):
            continue
        checked += 1
        img = push.evaluate(pull.evaluate(x, bits=96), bits=96)
        assert img.contains(x)
        assert img.width <= F(1, 2**30)
    assert checked > 20


def test_carve_level_identity_branch(square, fix_a):
    e = eta(fix_a)
    tops = [t for t in sorted(e.members) if square.dim_of(t) == 1]
    _, push, pull = carve_level(fix_a, tops)
    x = (F(1, 4), F(3, 4))  # far from both tubes
    for dmap in (push, pull):
        img = dmap.evaluate(x)
        assert img.width == 0 and img.mid() == x


def test_carve_level_formula_spot_check(square, fix_a):
    # inside the tube the push image height is a1 d + a2 t
    e = eta(fix_a)
    tops = [t for t in sorted(e.members) if square.dim_of(t) == 1]
    carved, push, _ = carve_level(fix_a, tops)
    unit = next(
        u for u in carved.units if (1, 0) in u.outer.vertices and (0, 0) in u.outer.vertices
    )
    eps_sq = unit.outer.eps_sq
    x = (F(1, 2), F(1, 8))
    from saet.tubes import tube_membership, OUTSIDE

    assert tube_membership(unit.outer, x) != OUTSIDE
    img = push.evaluate(x, bits=128)
    s = interval_sqrt(Interval((eps_sq / 4) / (1 - eps_sq / 4)), 128)
    sp = interval_sqrt(Interval(eps_sq / (1 - eps_sq)), 128)
    co = deformation_coeffs(s, sp)
    # base distance of the projection (1/2, 0) to the segment ends is 1/2
    expected = co.a1 * F(1, 2) + co.a2 * F(1, 8)
    assert img[0].contains(F(1, 2))
    assert img[1].overlaps(expected)


def test_carve_level_pushes_boundary_points_fixed(square, fix_a):
    e = eta(fix_a)
    tops = [t for t in sorted(e.members) if square.dim_of(t) == 1]
    _, push, pull = carve_level(fix_a, tops)
    for dmap in (push, pull):
        img = dmap.evaluate((0, 0))
        assert img.width == 0 and img.mid() == (0, 0)


def test_carve_level_rejects_non_obstruction(square, fix_a):
    with pytest.raises(PreconditionViolated):
        carve_level(fix_a, [square.id_of((0, 2))])


def test_carve_trivial_when_eta_empty(square, fix_b):
    carved, push, pull = carve_level(fix_b, [])
    assert carved.member((F(1, 8), F(1, 2)))
    img = push.evaluate((F(1, 8), F(1, 2)))
    assert img.width == 0


def test_carve_base_vertices_punctured(square):
    s = punctured_square(square)
    assert eta(s).members == {square.id_of((0,))}
    carved, push, pull = carve_base_vertices(s, [square.id_of((0,))])
    unit = carved.units[0]
    r_sq = unit.outer.radius_sq
    assert not carved.member((0, 0))
    # h(g(x)) = x on samples
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        x = (F(rng.randint(-64, 64), 64), F(rng.randint(-64, 64), 64))
        if not s.contains_point(x) or x == (0, 0):
            continue
        checked += 1
        img = pull.evaluate(push.evaluate(x, bits=96), bits=96)
        assert img.contains(x) and img.width <= F(1, 2**30)
    assert checked > 20
    # points on the r-sphere are fixed by the push map
    from saet.rationals import rational_sqrt

    r = rational_sqrt(r_sq)
    q = (r * F(3, 5), r * F(4, 5))
    img = push.evaluate(q, bits=96)
    assert img.contains(q)


def test_push_rejects_center(square):
    s = punctured_square(square)
    _, push, pull = carve_base_vertices(s, [square.id_of((0,))])
    with pytest.raises(OutOfDomain):
        push.evaluate((0, 0))


def test_appropriate_embed_fix_a(square, fix_a, fix_a_embedded):
    res = fix_a_embedded
    assert [lv["dim"] for lv in res.levels] == [1, 0]
    assert len(res.carved.units) == 4
    assert res.certificates
    # pull is injective on samples: separated enclosures for distinct inputs
    rng = random.Random(11)
    pts = []
    for _ in range(200):
        x = (F(rng.randint(-64, 64), 64), F(rng.randint(-64, 64), 64))
        if res.carved.member(x):
            pts.append(x)
        if len(pts) == 12:
            break
    imgs = [res.pull.evaluate(x, bits=96) for x in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            separated = any(
                imgs[i][c].hi < imgs[j][c].lo or imgs[j][c].hi < imgs[i][c].lo
                for c in range(2)
            )
            assert separated, (pts[i], pts[j])


def test_appropriate_embed_trivial(square, fix_b, fix_c):
    for s in (fix_b, fix_c):
        res = appropriate_embed(s)
        assert not res.carved.units
        assert res.levels == []


def test_pull_maps_into_closure(square, fix_a, fix_a_embedded):
    res = fix_a_embedded
    cl = closure(fix_a)
    rng = random.Random(13)
    for _ in range(40):
        x = (F(rng.randint(-64, 64), 64), F(rng.randint(-64, 64), 64))
        if not res.carved.closure_member(x):
            continue
        img = res.pull.evaluate(x, bits=96)
        assert cl.contains_point(img.mid()) or img.width > 0


def test_probe_germ_wall_and_sphere(square, fix_a, fix_a_embedded):
    res = fix_a_embedded
    n = res.carved
    # rational wall point: |y| = (eps/2)* min(x, 1-x) with rational slope
    unit = next(u for u in n.units if not u.is_ball)
    from saet.rationals import rational_sqrt

    slope = rational_sqrt(unit.inner.eps_star_sq)
    assert slope is not None
    q = (F(1, 3), slope * F(1, 3))
    rep = probe_germ(n, q, radius=F(1, 64), samples=40, seed=3)
    assert rep.status == CONNECTED
    assert rep.complement_codim_estimate == "1"
    # sphere point of a vertex collar
    ball = next(u for u in n.units if u.is_ball and u.outer.center == (1, 0))
    r = rational_sqrt(ball.inner.radius_sq)
    q2 = (1 - r * F(3, 5), r * F(4, 5))
    rep2 = probe_germ(n, q2, radius=F(1, 64), samples=40, seed=4)
    assert rep2.status == CONNECTED


def test_probe_germ_detects_disconnection(square, fix_a):
    bare = CarvedSet(fix_a, [])
    rep = probe_germ(bare, (F(1, 2), 0), radius=F(1, 32), samples=40, seed=5)
    assert rep.status == DISCONNECTED
    assert rep.components == 2
    assert rep.boundary_witnesses > 0


def test_probe_germ_rejects_interior(square, fix_a, fix_a_embedded):
    with pytest.raises(PreconditionViolated):
        probe_germ(fix_a_embedded.carved, (F(1, 4), F(1, 2)), F(1, 64), 16)
    with pytest.raises(PreconditionViolated):
        probe_germ(fix_a_embedded.carved, (F(1, 2), F(1, 100)), F(1, 64), 16)


def test_lipschitz_bound_on_pull(square, fix_a, fix_a_embedded):
    # |h(x) - h(y)| <= (2 b1 + |b2| + 1) |x - y| on sampled tube pairs
    res = fix_a_embedded
    unit = next(u for u in res.carved.units if not u.is_ball)
    eps_sq = unit.outer.eps_sq
    s = interval_sqrt(Interval((eps_sq / 4) / (1 - eps_sq / 4)), 96)
    sp = interval_sqrt(Interval(eps_sq / (1 - eps_sq)), 96)
    co = deformation_coeffs(s, sp)
    const = co.b1 * 2 + co.b2 * (-1) + 1  # b2 < 0
    rng = random.Random(17)
    pairs = 0
    while pairs < 10:
        x = (F(rng.randint(1, 63), 64), F(rng.randint(1, 12), 64))
        y = (F(rng.randint(1, 63), 64), F(rng.randint(1, 12), 64))
        if x == y or not (res.carved.member(x) and res.carved.member(y)):
            continue
        pairs += 1
        hx, hy = res.pull.evaluate(x, bits=96), res.pull.evaluate(y, bits=96)
        gap_sq = hx.dist_sq(hy)
        bound_sq = (const * const) * sum(
            (a - b) ** 2 for a, b in zip(x, y)
        )
        assert gap_sq.lo <= bound_sq.hi


def grid_cut(n: int) -> PLSet:
    """The n x n unit grid (squares split along the rising diagonal) minus y = 1/2."""
    verts = [(F(i, n), F(j, n)) for j in range(n + 1) for i in range(n + 1)]
    tops = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            tops += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
    k = build_complex(verts, tops, validate=False)
    return PLSet(k, [sid for sid, s in enumerate(k.simplices)
                     if any(k.vertices[v][1] != F(1, 2) for v in s.vertex_ids)])


def test_carving_solves_each_separation_once(monkeypatch):
    # 8 tubes along the cut, then 9 collars: one hyperplane per sibling pair
    # in certify_epsilon and again in certificate_for (8 * 7 each), and one
    # per collar and tube its base avoids (9 * 8 - 16), not one per candidate
    from saet import carve, metric

    original, calls = metric.separating_hyperplane, []

    def counting(verts1, verts2):
        calls.append((verts1, verts2))
        return original(verts1, verts2)

    monkeypatch.setattr(metric, "separating_hyperplane", counting)
    monkeypatch.setattr(carve, "separating_hyperplane", counting, raising=False)
    result = appropriate_embed(grid_cut(8))
    assert [len(lv["cells"]) for lv in result.levels] == [8, 9]
    assert len(calls) <= 2 * 8 * 7 + 9 * 8 - 16


def test_cut_grid_certificates_pinned():
    # tube and collar levels with many peer records: every key, value and
    # order of the certificates is fixed
    text = json.dumps(appropriate_embed(grid_cut(6)).certificates, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ad8ee3c7e01793665357e00868e486b634a6a4fd20db73d6e5c1105b5d982acf"
    )


def test_probes_build_facet_forms_once(monkeypatch, fix_a_embedded):
    # the facet functionals of the top cells depend on the complex only:
    # a carved set builds them on its first probe and reuses them after
    from saet import carve

    calls = []
    original = carve.FaceFunctionals

    def counting(vertices):
        calls.append(vertices)
        return original(vertices)

    monkeypatch.setattr(carve, "FaceFunctionals", counting)
    emb = fix_a_embedded.carved
    n = CarvedSet(emb.base, emb.units)
    first = n.crossing_forms()
    assert len(calls) == len(n.base.complex.top_ids)
    assert n.crossing_forms() == first and len(calls) == len(n.base.complex.top_ids)
    unit = next(u for u in n.units if not u.is_ball)
    from saet.rationals import rational_sqrt

    q = (F(1, 3), rational_sqrt(unit.inner.eps_star_sq) * F(1, 3))
    for seed in (3, 4):
        probe_germ(n, q, radius=F(1, 64), samples=16, seed=seed)
    assert len(calls) == len(n.base.complex.top_ids)
