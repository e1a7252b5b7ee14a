import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from complex_generators import grid_tops, kuhn_cube_tops, wedge_stack_tops

from saet.carve import (
    CarvedSet,
    appropriate_embed,
    carve_level,
    deformation_coeffs,
    probe_germ,
    snap_eps_sq,
)
from saet.complexes import PLSet, build_complex, closure, eta
from saet.errors import BadOrder, CertificationFailure, OutOfDomain, PreconditionViolated
from saet.fixtures import punctured_square
from saet.intervals import Interval, interval_sqrt
from saet.probe import CONNECTED, DISCONNECTED
from saet.tubes import reach_bounds


def fraction_box(box):
    """A ``BoxNumerators`` as rational (lo, hi) pairs, one per axis."""
    return tuple((F(lo, box.q), F(hi, box.q)) for lo, hi in zip(box.lo, box.hi))


def reach_box(u):
    """The reach box of a carve unit (``tubes.reach_bounds`` of its outer
    neighborhood) as rational pairs."""
    return fraction_box(reach_bounds(u.outer))


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
    assert sp.lo == sp.hi == F(1, 2)
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


def test_snap_eps_closed_form_matches_the_search():
    # the closed form gives what the search over q = 2, 3, ... gives; at
    # eps^2 = 4^-40, where that search takes about 2^41 steps, it returns
    # 4 / (4^41 + 1) at once
    def search(eps_sq):
        q = 2
        while F(4, q * q + 1) > eps_sq:
            q += 1
        return F(4, q * q + 1)

    rng = random.Random(13)
    cases = [F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(3000)]
    cases += [F(1, 4**j) for j in range(13)]
    for eps_sq in cases:
        assert snap_eps_sq(eps_sq) == search(eps_sq), eps_sq
    assert snap_eps_sq(F(1, 4**40)) == F(4, 4**41 + 1)


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
    from saet.tubes import OUTSIDE, membership

    assert membership(unit.outer, x) != OUTSIDE
    img = push.evaluate(x, bits=128)
    s = interval_sqrt(Interval((eps_sq / 4) / (1 - eps_sq / 4)), 128)
    sp = interval_sqrt(Interval(eps_sq / (1 - eps_sq)), 128)
    co = deformation_coeffs(s, sp)
    # base distance of the projection (1/2, 0) to the segment ends is 1/2
    expected = co.a1 * F(1, 2) + co.a2 * F(1, 8)
    assert img[0].contains(F(1, 2))
    assert img[1].lo <= expected.hi and expected.lo <= img[1].hi


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
    carved, push, pull = carve_level(s, [square.id_of((0,))])
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
    _, push, pull = carve_level(s, [square.id_of((0,))])
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


def cut_cube(n: int) -> PLSet:
    """The Kuhn-triangulated n x n x n unit cube grid minus every cell in z = 1/2."""
    k = build_complex(*kuhn_cube_tops(n), validate=False)
    return PLSet(k, [sid for sid, s in enumerate(k.simplices)
                     if any(k.vertices[v][2] != F(1, 2) for v in s.vertex_ids)])


def test_carving_solves_each_separation_once(monkeypatch):
    # 8 tubes along the cut, then 9 collars: a hyperplane only for a pair
    # whose reach boxes meet at some candidate, shared by the eps search
    # and the certificate: 25 of the 56 ordered sibling pairs, the 14 that
    # share a vertex among them, and none of the 56 pairs of a collar and
    # a tube its vertex avoids; the obstruction set is found once, not
    # once per level
    from saet import carve, metric

    original, calls = metric.separating_hyperplane, []
    original_eta, eta_calls = carve.eta, []

    def counting(verts1, verts2):
        calls.append((verts1, verts2))
        return original(verts1, verts2)

    def counting_eta(s):
        eta_calls.append(s)
        return original_eta(s)

    monkeypatch.setattr(metric, "separating_hyperplane", counting)
    monkeypatch.setattr(carve, "separating_hyperplane", counting, raising=False)
    monkeypatch.setattr(carve, "eta", counting_eta)
    result = appropriate_embed(grid_cut(8))
    assert [len(lv["cells"]) for lv in result.levels] == [8, 9]
    assert len(calls) <= 25
    assert len(eta_calls) == 1


def test_carving_builds_records_only_at_the_accepted_eps(monkeypatch):
    # the eps search asks only whether a candidate is refused; the records
    # and their strings are built once, for the certificate
    from saet import metric

    original, calls = metric.rat_str, []
    monkeypatch.setattr(metric, "rat_str", lambda x: calls.append(x) or original(x))
    certificates = appropriate_embed(grid_cut(8)).certificates
    assert len(certificates) == 340
    assert len(calls) <= 2 * len(certificates)


def test_cut_grid_certificates_pinned():
    # tube and collar levels with many peer records: every key, value and
    # order of the certificates is fixed
    text = json.dumps(appropriate_embed(grid_cut(6)).certificates, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4b55449da74b1c50ada0d70b4eaf75308440b9e181df76cd8c35323cde6b1aae"
    )


def _generated_marked_sets():
    """Seeded marked sets: for seeds 0..59 a 3, 4 or 5 grid, for seeds
    0..19 a 2- or 3-prism wedge stack, each minus 1 to 4 random cells of
    lower dimension."""
    for kind, seeds in (("grid", range(60)), ("wedges", range(20))):
        for seed in seeds:
            rng = random.Random(seed)
            if kind == "grid":
                verts, tops = grid_tops(rng.choice([3, 4, 5]))
            else:
                verts, tops = wedge_stack_tops(rng.choice([2, 3]))
            k = build_complex(verts, tops, validate=False)
            lower = [sid for sid in range(len(k.simplices)) if sid not in k.top_ids]
            drop = set(rng.sample(lower, rng.randint(1, 4)))
            yield kind, seed, PLSet(k, set(range(len(k.simplices))) - drop)


def test_carving_pinned_on_generated_inputs():
    # levels and certificates of every generated input that embeds, byte for
    # byte; the one refused grid separates a collar from an earlier tube
    # whose reach box its own meets, by a plane the tube's fixed eps cannot
    # clear (ROADMAP item 1)
    digest, refused = hashlib.sha256(), []
    for kind, seed, s in _generated_marked_sets():
        try:
            res = appropriate_embed(s)
        except CertificationFailure:
            refused.append((kind, seed))
            continue
        text = json.dumps([kind, seed, res.levels, res.certificates], sort_keys=True)
        digest.update(text.encode())
    assert refused == [("grid", 27)]
    assert digest.hexdigest() == (
        "3a0df56557852f4ab2179aa70456f9c3cde377a08b02e62be5c0702d2401d527"
    )


def test_collar_refusal_names_the_inequality():
    # generated grid 27: the reach boxes of the collar around vertex 25 and
    # of the earlier tube around simplex 89 meet at every radius, and no
    # radius lets the collar clear that tube, whose own apex balls cross
    # the separating plane
    with pytest.raises(CertificationFailure) as failure:
        appropriate_embed(_generated("grid", 27))
    assert str(failure.value) == (
        "no collar radius certified for vertex 25: apex_ball_clearance of peer 89"
        " against simplex 25 fails at the last candidate"
    )


def _five_grid_cut_at_a_collar() -> PLSet:
    """The 5 x 5 grid minus the vertex (1/5, 2/5) and the edges
    (3/5, 2/5)-(3/5, 3/5) and (1/5, 3/5)-(2/5, 4/5)."""
    k = build_complex(*grid_tops(5), validate=False)
    drop = {k.id_of((13,)), k.id_of((15, 21)), k.id_of((19, 26))}
    return PLSet(k, set(range(len(k.simplices))) - drop)


def test_collars_cleared_by_reach_round_trip_and_probe_connected():
    # on these inputs a collar's vertex avoids an earlier tube whose fixed
    # eps cannot clear the LP's separating plane; their reach boxes miss
    # each other, and that proves the pair.  The carving they get must
    # round-trip near every unit, and every collar wall that has a
    # rational probe point must probe Connected
    from saet.cli import _wall_probe_points

    marked = [_generated("grid", seed) for seed in (20, 39, 43)] + [_five_grid_cut_at_a_collar()]
    probed = 0
    for s in marked:
        res = appropriate_embed(s)
        collars = [u for u in res.carved.units if u.is_ball]
        assert any(r["kind"] == "reach_disjoint" for u in collars for r in u.certificate)
        # a collar around a vertex on the grid's edge keeps part of its
        # shell outside the grid, so draw more shell points
        _assert_round_trips_near_every_unit(res, random.Random(30), draws=8)
        for u in collars:
            for i, (q, d) in enumerate(_wall_probe_points(res.carved, u, 4)):
                rep = probe_germ(res.carved, q, min(F(1, 64), d / 2), 32, seed=i)
                assert rep.status == CONNECTED, (q, rep)
                probed += 1
    assert probed


def test_cut_cube_2_solves_few_separations(monkeypatch):
    # the validated 2 x 2 x 2 Kuhn cut cube carves 8 triangles, 16 edges
    # and 9 vertices; the reach boxes leave at most 16 separating planes
    # per unit (a plane per peer pair would be 560 for these 33 units)
    from saet import metric

    original, calls = metric.separating_hyperplane, []
    monkeypatch.setattr(metric, "separating_hyperplane",
                        lambda a, b: calls.append((a, b)) or original(a, b))
    build_complex(*kuhn_cube_tops(2))  # the glue check passes
    res = appropriate_embed(cut_cube(2))
    assert [(lv["dim"], len(lv["cells"]), lv["eps_sq"]) for lv in res.levels] == [
        (2, 8, "4/17"), (1, 16, "4/257"), (0, 9, "1/1024")]
    assert len(calls) <= 16 * len(res.carved.units)


def test_cut_cube_2_records_name_each_side():
    # every tube certificate of the cut cube is what certificate_for gives
    # at its eps with the same peers, and every peer record names tau, the
    # peer and its own side's eps^2: a plane's far-side record the peer's
    # eps^2, a reach_disjoint record both reach boxes' intervals on an axis
    # where they miss each other
    from saet.metric import _proper_peers, certificate_for
    from saet.metric import reach_bounds as base_reach_bounds
    from saet.rationals import rat_str

    res = appropriate_embed(cut_cube(2))
    k = res.carved.base.complex
    eps_of, seen, units = {}, set(), iter(res.carved.units)
    for lv in res.levels:
        cells = lv["cells"]
        level_units = [next(units) for _ in cells]
        for t, u in zip(cells, level_units):
            if not u.is_ball:
                peers = [o for o in cells if o != t] + [
                    (p, e) for p, e in eps_of.items() if _proper_peers(k, t, p)]
                assert certificate_for(k, t, u.outer.eps_sq, peers) == u.certificate
            for r in u.certificate:
                if "peer" not in r or r["kind"] == "ball_disjointness":
                    continue
                assert r["tau"] == t
                own_eps = u.outer.radius_sq if u.is_ball else u.outer.eps_sq
                peer_eps = eps_of.get(r["peer"], own_eps)
                seen.add(r["kind"])
                if r["kind"] == "reach_disjoint":
                    assert (r["eps_sq"], r["peer_eps_sq"]) == (rat_str(own_eps), rat_str(peer_eps))
                    a = r["axis"]
                    lo, hi = fraction_box(base_reach_bounds(
                        [k.vertex_rows[v] for v in k.simplex(t).vertex_ids], own_eps))[a]
                    p_lo, p_hi = fraction_box(base_reach_bounds(
                        [k.vertex_rows[v] for v in k.simplex(r["peer"]).vertex_ids], peer_eps))[a]
                    assert r["interval"] == [rat_str(lo), rat_str(hi)]
                    assert r["peer_interval"] == [rat_str(p_lo), rat_str(p_hi)]
                    assert hi < p_lo or p_hi < lo
                elif r["side"] == 1:
                    assert r["eps_sq"] == rat_str(peer_eps)
        eps_of.update((t, u.outer.eps_sq) for t, u in zip(cells, level_units) if not u.is_ball)
    assert seen == {"reach_disjoint", "apex_ball_clearance", "vertex_ball_clearance"}


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


def grid_punctured(n: int, holes) -> PLSet:
    """The n x n unit grid minus the vertices (i/n, j/n) for (i, j) in holes."""
    cut = grid_cut(n)
    k = cut.complex
    drop = {k.id_of((j * (n + 1) + i,)) for i, j in holes}
    return PLSet(k, set(range(len(k.simplices))) - drop)


@pytest.mark.parametrize("marked", [
    lambda: grid_cut(6),
    lambda: grid_punctured(6, [(1, 1), (3, 4), (4, 2)]),
], ids=["cut", "punctured"])
def test_reach_box_rejection_is_exact(marked):
    # a point outside a unit's reach box is outside its inner and outer
    # neighborhoods, so member and closure_member, which skip such units,
    # agree with the same predicates over every unit
    from saet.rationals import homogeneous
    from saet.tubes import INSIDE_OPEN, OUTSIDE, membership

    carved = appropriate_embed(marked()).carved
    base, cl = carved.base, closure(carved.base)
    rng = random.Random(7)
    rejected = kept = removed = 0
    for u in carved.units:
        for _ in range(40):
            x = tuple(lo - (hi - lo) + 3 * (hi - lo) * F(rng.randint(0, 240), 240)
                      for lo, hi in reach_box(u))
            h = homogeneous(x)
            if u.reaches_h(h):
                kept += 1
            else:
                rejected += 1
                assert membership(u.inner, x) == OUTSIDE
                assert membership(u.outer, x) == OUTSIDE
            member = base.contains_point(x) and not any(
                w.removal(h) != OUTSIDE for w in carved.units)
            closed = cl.contains_point(x) and not any(
                w.removal(h) == INSIDE_OPEN for w in carved.units)
            assert carved.member(x) == member and carved.closure_member(x) == closed
            removed += base.contains_point(x) and not member
    assert rejected and kept and removed


def _generated(kind: str, seed: int) -> PLSet:
    return next(s for k, i, s in _generated_marked_sets() if (k, i) == (kind, seed))


def _points_on_shared_faces(k, rng):
    """Every vertex, and seeded points on each edge of two or more tops,
    some close to an end, where balls and tubes meet."""
    pts = list(k.vertices)
    for sid, s in enumerate(k.simplices):
        if len(s.vertex_ids) == 2 and len(k.cofaces[sid]) > 2:
            a, b = k.coords(sid)
            for t in (F(1, 2 ** rng.randint(2, 9)), F(rng.randint(1, 63), 64)):
                pts.append(tuple(p + t * (r - p) for p, r in zip(a, b)))
    return pts


@pytest.mark.parametrize("marked", [
    lambda: grid_cut(6),
    lambda: grid_punctured(6, [(1, 1), (3, 4), (4, 2)]),
    lambda: _generated("grid", 0),
    lambda: _generated("wedges", 6),
], ids=["cut", "punctured", "grid-0", "wedges-6"])
def test_units_listed_per_top_match_every_unit(marked):
    # member and closure_member test only the units listed for the closed
    # top that locates the point; whichever top holding the point the hint
    # names, they agree with the same predicates over every unit
    from saet.rationals import homogeneous
    from saet.tubes import INSIDE_OPEN, OUTSIDE

    carved = appropriate_embed(marked()).carved
    base, cl, k = carved.base, closure(carved.base), carved.base.complex
    assert carved.units
    rng = random.Random(21)
    pts = _points_on_shared_faces(k, rng)
    for u in carved.units:
        pts += [tuple(lo - (hi - lo) + 3 * (hi - lo) * F(rng.randint(0, 240), 240)
                      for lo, hi in reach_box(u)) for _ in range(12)]
    shared = removed = 0
    for x in pts:
        h = homogeneous(x)
        member = base.contains_point(x) and not any(
            w.removal(h) != OUTSIDE for w in carved.units)
        closed = cl.contains_point(x) and not any(
            w.removal(h) == INSIDE_OPEN for w in carved.units)
        holding = []
        for top in k.top_ids:
            nums, height = k.geometry(top).numerators(h)
            if not height and min(nums) >= 0:
                holding.append(top)
        for hint in (None, *holding):
            carved._last_top = hint
            assert carved.member(x) == member, (x, hint)
            carved._last_top = hint
            assert carved.closure_member(x) == closed, (x, hint)
        shared += len(holding) > 1
        removed += base.contains_point(x) and not member
    assert shared > 20 and removed


def test_member_tests_few_units_on_cut_grid_8(monkeypatch, cut8):
    # a member or closure_member query tests the reach boxes of the units
    # listed for the top that holds the point, at most 5 of the 17 units
    # on the 8 x 8 cut grid, and about one on average over the grid
    from saet.carve import CarveUnit

    carved = cut8.carved
    assert len(carved.units) == 17
    original, calls = CarveUnit.reaches_h, []

    def counting(unit, h):
        calls.append(unit)
        return original(unit, h)

    monkeypatch.setattr(CarveUnit, "reaches_h", counting)
    rng = random.Random(21)
    per_query = []
    for i in range(16):
        for j in range(16):
            x = (F(256 * i + rng.randint(1, 255), 16 * 256),
                 F(256 * j + rng.randint(1, 255), 16 * 256))
            for query in (carved.member, carved.closure_member):
                calls.clear()
                query(x)
                per_query.append(len(calls))
    assert max(per_query) <= 5
    assert sum(per_query) <= 1.5 * len(per_query)


def test_probes_build_wall_forms_once(monkeypatch):
    # a tube's rational wall forms depend on the tube only: each tube
    # solves for its normal on the first probe, not on every probe
    from saet import carve

    calls = []
    original = carve._rational_normal

    def counting(tube):
        calls.append(tube)
        return original(tube)

    monkeypatch.setattr(carve, "_rational_normal", counting)
    emb = appropriate_embed(grid_cut(4))
    tubes = [u for u in emb.carved.units if not u.is_ball]
    first = emb.carved.crossing_forms()
    assert len(calls) == len(tubes) == 4
    from saet.rationals import rational_sqrt

    unit = tubes[0]
    a, b = unit.outer.vertices
    mid = tuple((p + q) / 2 for p, q in zip(a, b))
    q = (mid[0], mid[1] + rational_sqrt(unit.inner.eps_star_sq) * (b[0] - a[0]) / 2)
    for seed in (3, 4):
        probe_germ(emb.carved, q, radius=F(1, 256), samples=8, seed=seed)
    assert emb.carved.crossing_forms() == first and len(calls) == len(tubes)


def _shell_points(unit, rng, count: int) -> list[tuple]:
    """Rational points between a unit's inner and outer neighborhoods,
    where its maps move points: a ball's annulus, or over a seeded point of
    a tube's base, at a height between the inner and the outer tube's."""
    from saet.intervals import sqrt_enclosure
    from saet.rationals import dot, vsub

    out = []
    for _ in range(count):
        v = tuple(F(rng.randint(-8, 8), 8) for _ in unit.outer.vertices[0])
        if unit.is_ball:
            p, w = unit.outer.center, v
            lo, hi = unit.inner.radius_sq, unit.outer.radius_sq
        else:
            geo = unit.outer.geometry
            weights = [F(rng.randint(1, 8)) for _ in geo.vertices]
            p = geo.point_at([b / sum(weights) for b in weights])
            q = tuple(a + b for a, b in zip(p, v))
            w = vsub(q, geo.project(q)[0])
            # over p the tube at parameter eps holds the heights up to
            # eps* times min_i f_i(p) / ||u_i||
            m = min(b * b / sum(weights) ** 2 / nsq
                    for b, nsq in zip(weights, unit.outer.ff.norm_sq))
            lo, hi = unit.inner.eps_star_sq * m, unit.outer.eps_star_sq * m
        if not any(w):
            continue
        # a rational t with lo < t^2 |w|^2 <= target < hi
        ww = dot(w, w)
        target = (lo + (hi - lo) * F(rng.randint(1, 15), 16)) / ww
        bits = 32
        while (t := sqrt_enclosure(target, bits).lo) ** 2 * ww <= lo:
            bits *= 2
        out.append(tuple(a + t * b for a, b in zip(p, w)))
    return out


def _assert_in_shell(unit, x):
    from saet.tubes import OUTSIDE, membership

    assert membership(unit.inner, x) == OUTSIDE and membership(unit.outer, x) != OUTSIDE


def _map_outcomes(res, points, bits: int = 64) -> list:
    """push and pull at each point, as bounds, or the error's type."""
    out = []
    for x in points:
        for dmap in (res.push, res.pull):
            try:
                box = dmap.evaluate(x, bits=bits)
            except OutOfDomain:
                out.append("OutOfDomain")
                continue
            out.append([(c.lo, c.hi) for c in box.coords])
    return out


def _probe_pool(res, rng) -> list[tuple]:
    """Per unit: shell points, and points drawn from its reach box grown
    by half its size on each side, inside and outside the reach box."""
    points = []
    for u in res.carved.units:
        shell = _shell_points(u, rng, 3)
        for x in shell:
            _assert_in_shell(u, x)
        points += shell
        points += [tuple(lo - (hi - lo) / 2 + 2 * (hi - lo) * F(rng.randint(0, 64), 64)
                         for lo, hi in reach_box(u)) for _ in range(3)]
    return points


def test_pruned_maps_match_unpruned(monkeypatch):
    # skipping the units whose reach box misses the enclosure changes no
    # bound of any push or pull enclosure, nor which points are refused
    from saet.carve import CarveUnit

    inputs = [grid_cut(6), grid_punctured(6, [(1, 1), (3, 4), (4, 2)])]
    inputs += [s for _, seed, s in _generated_marked_sets() if seed % 5 == 0]
    rng = random.Random(11)
    cases = []
    for s in inputs:
        try:
            res = appropriate_embed(s)
        except CertificationFailure:  # the refusals of the carving pin
            continue
        cases.append((res, _probe_pool(res, rng)))
    assert len(cases) >= len(inputs) - 1
    assert sum(len(pool) for _, pool in cases) > 200
    pruned = [_map_outcomes(res, pool) for res, pool in cases]
    monkeypatch.setattr(CarveUnit, "meets", lambda unit, box: True)
    unpruned = [_map_outcomes(res, pool) for res, pool in cases]
    assert pruned == unpruned


@pytest.fixture(scope="module")
def cut8():
    return appropriate_embed(grid_cut(8))


def test_maps_evaluate_only_reaching_units(monkeypatch, cut8):
    # far from every reach box a point costs no interval evaluation; near
    # a unit each level evaluates each unit it reaches once per enclosure;
    # a tube's coefficients are solved once per precision
    from saet import carve
    from saet.carve import CarveUnit
    from saet.rationals import homogeneous

    original, calls = CarveUnit._box_data, []

    def counting(unit, box):
        calls.append((unit, box))
        return original(unit, box)

    solved = []
    original_coeffs = carve.deformation_coeffs

    def counting_coeffs(s, s_prime):
        solved.append((s, s_prime))
        return original_coeffs(s, s_prime)

    monkeypatch.setattr(CarveUnit, "_box_data", counting)
    monkeypatch.setattr(carve, "deformation_coeffs", counting_coeffs)
    units = cut8.carved.units
    assert len(units) == 17
    far = (F(1, 16), F(1, 16))
    assert not any(u.reaches_h(homogeneous(far)) for u in units)
    for dmap in (cut8.push, cut8.pull):
        assert dmap.evaluate(far).mid() == far
    assert calls == []
    rng = random.Random(8)
    for u in units:
        for x in _shell_points(u, rng, 3):
            for bits in (64, 128):
                for dmap in (cut8.push, cut8.pull):
                    calls.clear()
                    dmap.evaluate(x, bits=bits)
                    seen = [(id(w), id(box)) for w, box in calls]
                    assert len(set(seen)) == len(seen)
                    assert all(w.meets(box) for w, box in calls)
                    assert len(calls) <= 4
    tubes = [u for u in units if not u.is_ball]
    assert 0 < len(solved) <= 2 * len(tubes)


def test_maps_write_the_input_once(monkeypatch, fix_a_embedded):
    # the levels hand integer boxes to each other: on the two-level carving
    # of fix_a a map writes its input once as numerators and builds at most
    # one IntervalPoint, on return
    from saet.intervals import BoxNumerators, IntervalPoint

    writes, builds = [], []
    numerators, interval_point = IntervalPoint.numerators, BoxNumerators.interval_point
    monkeypatch.setattr(IntervalPoint, "numerators",
                        lambda box: writes.append(box) or numerators(box))
    monkeypatch.setattr(BoxNumerators, "interval_point",
                        lambda box: builds.append(box) or interval_point(box))
    res = fix_a_embedded
    assert len(res.levels) == 2
    rng = random.Random(4)
    points = [x for u in res.carved.units for x in _shell_points(u, rng, 3)]
    points += [IntervalPoint([Interval(c - F(1, 2**10), c + F(1, 2**10)) for c in x])
               for x in points]
    moved = 0
    for x in points:
        for dmap in (res.push, res.pull):
            writes.clear()
            builds.clear()
            dmap.evaluate(x)
            assert len(writes) == 1 and len(builds) <= 1
            moved += len(builds)
    assert moved


def _assert_round_trips_near_every_unit(res, rng, draws: int = 4):
    # at 128 bits push(pull(x)) and pull(push(x)) enclose x to within
    # 2^-30 at points in the outer shell of every unit, drawn ``draws``
    # times per unit and kept where they are in the carved set
    checked = 0
    for u in res.carved.units:
        shell = [x for x in _shell_points(u, rng, draws) if res.carved.member(x)]
        assert shell
        for x in shell:
            for first, second in ((res.pull, res.push), (res.push, res.pull)):
                img = second.evaluate(first.evaluate(x, bits=128), bits=128)
                assert img.contains(x) and img.width <= F(1, 2**30), (u.outer, x)
            checked += 1
    assert checked >= 3 * len(res.carved.units)


def test_round_trip_near_every_unit_of_cut_grid_8(cut8):
    _assert_round_trips_near_every_unit(cut8, random.Random(30))


def test_round_trip_near_every_unit_of_punctured_grid_6():
    res = appropriate_embed(grid_punctured(6, [(1, 1), (3, 4), (4, 2)]))
    _assert_round_trips_near_every_unit(res, random.Random(30))


# --- the Fraction interval route of the deformation maps, kept as the
# reference for the integer kernel of DeformationMap.evaluate


def _ref_eval_affine(form, box):
    acc = Interval(form.c0)
    for c, coord in zip(form.c, box.coords, strict=True):
        if c != 0:
            acc = acc + coord * c
    return acc


def _ref_pi_forms(unit):
    from saet.rationals import AffineForm

    ff = unit.outer.ff
    forms = []
    for k in range(ff.n):
        acc = AffineForm(0, [0] * ff.n)
        for f, v in zip(ff.forms, ff.vertices, strict=True):
            acc = acc + f.scale(v[k])
        forms.append(acc)
    return forms


def _ref_box_data(unit, box):
    from saet.intervals import IntervalPoint

    if unit.is_ball:
        return None, box.dist_sq(IntervalPoint(unit.outer.center))
    bary = [_ref_eval_affine(f, box) for f in unit.outer.ff.forms]
    hsq = Interval(0)
    for f in unit.diff_forms:
        hsq = hsq + _ref_eval_affine(f, box).square()
    return bary, hsq


def _ref_certainly_outside_outer(unit, data):
    if unit.is_ball:
        return data[1].lo > unit.outer.radius_sq
    bary, hsq = data
    if any(b.hi < 0 for b in bary):
        return True
    ess = unit.outer.eps_star_sq
    return any((hsq * nsq - (b.square() * ess)).lo > 0
               for b, nsq in zip(bary, unit.outer.ff.norm_sq, strict=True))


def _ref_certainly_inside_outer_open(unit, data):
    if unit.is_ball:
        return data[1].hi < unit.outer.radius_sq
    bary, hsq = data
    if not all(b.lo >= 0 for b in bary):
        return False
    ess = unit.outer.eps_star_sq
    return all((hsq * nsq - b.square() * ess).hi < 0
               for b, nsq in zip(bary, unit.outer.ff.norm_sq, strict=True))


def _ref_boundary_dist_sq_box(tube, bary):
    best = None
    for b, nsq in zip(bary, tube.ff.norm_sq, strict=True):
        lo, hi = max(F(0), b.lo), max(F(0), b.hi)
        cand = Interval(lo * lo / nsq, hi * hi / nsq)
        best = cand if best is None else Interval(min(best.lo, cand.lo), min(best.hi, cand.hi))
    return best


def _ref_map_box(unit, box, data, direction, bits):
    from saet.carve import PUSH
    from saet.intervals import IntervalPoint
    from saet.rationals import rational_sqrt

    if unit.is_ball:
        v = IntervalPoint(unit.outer.center)
        rho = interval_sqrt(data[1], bits)
        r = rational_sqrt(unit.outer.radius_sq)
        r = Interval(r) if r is not None else interval_sqrt(Interval(unit.outer.radius_sq), bits)
        if direction == PUSH:
            scale = (r * F(1, 2) + rho * F(1, 2)) / rho
        else:
            scale = (rho * 2 - r) / rho
        return v + (box - v).scale(scale)
    bary, hsq = data
    pi = IntervalPoint([_ref_eval_affine(f, box) for f in _ref_pi_forms(unit)])
    co = deformation_coeffs(interval_sqrt(Interval(unit.inner.eps_star_sq), bits),
                            interval_sqrt(Interval(unit.outer.eps_star_sq), bits))
    t = interval_sqrt(hsq, bits)
    d = interval_sqrt(_ref_boundary_dist_sq_box(unit.outer, bary), bits)
    if direction == PUSH:
        scale = (co.a1 * d + co.a2 * t) / t
    else:
        scale = (co.b1 * t + co.b2 * d) / t
    return pi + (box - pi).scale(scale)


def _ref_meets(unit, box):
    return all(c.lo <= hi and lo <= c.hi for c, (lo, hi) in zip(box.coords, reach_box(unit)))


def _ref_evaluate(dmap, x, bits):
    from saet.carve import PUSH
    from saet.intervals import IntervalPoint
    from saet.rationals import vec

    box = x if isinstance(x, IntervalPoint) else IntervalPoint(vec(x))
    order = dmap.levels if dmap.direction == PUSH else list(reversed(dmap.levels))
    for units in order:
        near = [u for u in units if _ref_meets(u, box)]
        if box.width == 0:
            p = box.mid()
            if any(not u.is_ball and u.outer.geometry.contains(p)
                   and not u.outer.geometry.contains_open(p) for u in near):
                continue
            if any((u.is_ball and p == u.outer.center)
                   or (not u.is_ball and u.outer.geometry.contains_open(p)) for u in near):
                raise OutOfDomain("map is undefined on the carved cell itself")
        candidates, identity_possible = [], True
        for u in near:
            data = _ref_box_data(u, box)
            if _ref_certainly_outside_outer(u, data):
                continue
            candidates.append(_ref_map_box(u, box, data, dmap.direction, bits))
            if _ref_certainly_inside_outer_open(u, data):
                identity_possible = False
        if identity_possible:
            candidates.append(box)
        box = IntervalPoint([Interval(min(c[k].lo for c in candidates),
                                      max(c[k].hi for c in candidates))
                             for k in range(len(box))])
    return box


def _outcome(evaluate, x):
    """An enclosure's (lo, hi) per coordinate, or the type of the refusal."""
    try:
        box = evaluate(x)
    except (OutOfDomain, ZeroDivisionError) as refusal:
        return type(refusal).__name__
    assert all(type(end) is F for c in box.coords for end in (c.lo, c.hi))
    return [(c.lo, c.hi) for c in box.coords]


def test_integer_maps_match_the_fraction_interval_route():
    # every enclosure of the integer kernel is the rational box of the
    # Fraction interval route, bound for bound, and both refuse the same
    # points: at seeded points near every unit, on each carved cell and on
    # a tube's base boundary, and at the boxes that a round trip and a
    # fattened point hand to a map
    from saet.intervals import IntervalPoint

    inputs = [grid_cut(6), grid_punctured(6, [(1, 1), (3, 4), (4, 2)])]
    inputs += [s for _, seed, s in _generated_marked_sets() if seed % 5 == 0]
    rng = random.Random(17)
    seen, checked = set(), 0

    def same(dmap, x, bits):
        got = _outcome(lambda p: dmap.evaluate(p, bits=bits), x)
        assert got == _outcome(lambda p: _ref_evaluate(dmap, p, bits), x)
        seen.add(got if isinstance(got, str) else "box")
        return got

    for s in inputs:
        try:
            res = appropriate_embed(s)
        except CertificationFailure:  # the refusals of the carving pin
            continue
        points = _probe_pool(res, rng)
        for u in res.carved.units:
            verts = u.outer.vertices
            points += [verts[0], tuple(sum(axis) / len(verts) for axis in zip(*verts))]
        for x in points:
            fat = [IntervalPoint([Interval(c - w, c + w) for c in x])
                   for w in (F(1, 2**12), F(1, 2**5))]
            for bits in (64, 128):
                for first, second in ((res.pull, res.push), (res.push, res.pull)):
                    image = same(first, x, bits)
                    if not isinstance(image, str):
                        same(second, IntervalPoint([Interval(*c) for c in image]), bits)
                    for box in fat:
                        same(first, box, bits)
                    checked += 1
    assert checked > 1000
    assert seen == {"box", "OutOfDomain", "ZeroDivisionError"}


@pytest.mark.parametrize("x", [(F(1, 16), F(1, 16), 0), (F(1, 2), F(1, 2), 0), (F(1, 2),)])
def test_maps_reject_points_of_the_wrong_dimension(x):
    from saet.intervals import IntervalPoint

    res = appropriate_embed(grid_cut(4))
    for dmap in (res.push, res.pull):
        for arg in (x, IntervalPoint(x)):
            with pytest.raises(ValueError, match=f"a {len(x)}-dimensional point or box "
                                                 "cannot be mapped in 2-dimensional space"):
                dmap.evaluate(arg)
