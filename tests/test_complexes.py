import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest
from complex_generators import (flat_grid_tops, grid_tops, perturbed_complex, polyline_tops,
                                wedge_stack_tops)
from hypothesis_or_skip import assume, example, given, settings, st

from saet import complexes, geometry
from saet.complexes import (
    PLSet,
    Simplex,
    barycentric_subdivide,
    build_complex,
    closure,
    eta,
    germ_connected,
    is_appropriately_embedded,
    lc_part,
    local_dim,
    rho,
)
from saet.errors import BadGlue, DegenerateSimplex, NotInClosure
from saet.fixtures import fix_a as make_fix_a
from saet.geometry import SimplexGeometry, common_face
from saet.intervals import BoxNumerators
from saet.lp import intersection_excess
from saet.rationals import affinely_independent


def brute_closure(s: PLSet) -> frozenset:
    # independent oracle: faces by direct vertex-subset enumeration
    out = set()
    for sid in s.members:
        ids = s.complex.simplex(sid).vertex_ids
        for mask in range(1, 1 << len(ids)):
            sub = tuple(v for i, v in enumerate(ids) if mask >> i & 1)
            out.add(s.complex.index[sub])
    return frozenset(out)


def brute_rho(s: PLSet) -> frozenset:
    # Cl(Cl(S) \ S) ∩ S, every step by the brute closure
    cl = brute_closure(s)
    diff = PLSet(s.complex, cl - s.members)
    return brute_closure(diff) & s.members


def test_square_complex_counts(square):
    dims = {}
    for s in square.simplices:
        dims[s.dim] = dims.get(s.dim, 0) + 1
    assert dims == {0: 9, 1: 16, 2: 8}


def test_two_triangles_sharing_edge_valid():
    k = build_complex([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 2, 3)])
    assert len(k.top_ids) == 2


def test_half_edge_overlap_rejected():
    with pytest.raises(BadGlue):
        build_complex(
            [(0, 0), (2, 0), (0, 2), (1, 0), (3, 0), (1, -2)],
            [(0, 1, 2), (3, 4, 5)],
        )


@pytest.mark.parametrize("top, named", [((-1, 0, 1), "Simplex(-1, 0, 1)"), ((), "Simplex()")])
def test_bad_top_vertex_ids_rejected(top, named):
    # a negative id would wrap around to the last vertex
    with pytest.raises(ValueError, match=re.escape(named)):
        build_complex([(0, 0), (1, 0), (0, 1)], [top])


def test_point_complex_in_r0():
    # no axes to sweep: the single vertex of R^0 is a valid complex
    k = build_complex([()], [(0,)])
    assert k.n == 0 and len(k.simplices) == 1


def test_degenerate_simplex_rejected():
    with pytest.raises(DegenerateSimplex):
        build_complex([(0, 0), (1, 1), (2, 2)], [(0, 1, 2)])


def test_closure_of_triangle():
    k = build_complex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    s = PLSet(k, [k.id_of((0, 1, 2))])
    assert closure(s).members == set(range(7))


def test_closure_of_interior_is_everything(square, fix_a):
    tris = [i for i in range(len(square.simplices)) if square.dim_of(i) == 2]
    s = PLSet(square, tris)
    assert closure(s).members == set(range(len(square.simplices)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**33 - 1), st.data())
def test_closure_idempotent_and_rho_subset(seed, data):
    k = make_fix_a().complex
    rng = random.Random(seed)
    members = rng.sample(range(len(k.simplices)), rng.randint(1, 25))
    s = PLSet(k, members)
    cl = closure(s)
    assert closure(cl) == cl
    assert cl.members >= s.members
    r = rho(s)
    assert r.members <= s.members
    assert r.members == brute_rho(s)
    lc = lc_part(s)
    assert not (lc.members & r.members)
    assert not rho(lc).members  # the locally closed part is locally closed


def test_rho_examples(square, fix_a):
    open_square = PLSet(
        square, [i for i in range(len(square.simplices)) if square.dim_of(i) == 2]
    )
    assert not rho(open_square).members
    corner = PLSet(square, sorted(open_square.members) + [square.id_of((2,))])
    assert rho(corner).members == {square.id_of((2,))}
    assert rho(fix_a).members == {square.id_of((0,))}


def test_lc_part_examples(square, fix_a):
    lc = lc_part(fix_a)
    origin = square.id_of((0,))
    assert lc.members == fix_a.members - {origin}
    closed = closure(fix_a)
    assert lc_part(closed) == closed


def test_local_dim(square, fix_a, fix_c):
    assert local_dim(fix_a, square.id_of((0,))) == 2
    kc = fix_c.complex
    assert local_dim(fix_c, kc.id_of((0,))) == 3
    edge = build_complex([(0, 0), (1, 0)], [(0, 1)])
    s = PLSet(edge, [edge.id_of((0, 1))])
    assert local_dim(s, edge.id_of((0,))) == 1
    with pytest.raises(NotInClosure):
        k2 = build_complex([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2), (3,)])
        local_dim(PLSet(k2, [k2.id_of((0, 1, 2))]), k2.id_of((3,)))


def test_germ_connectivity(square, fix_a, fix_b):
    assert not germ_connected(fix_a, square.id_of((0, 1)))
    assert germ_connected(fix_a, square.id_of((0,)))
    assert germ_connected(fix_b, square.id_of((0, 2)))  # wall edge, single cone


def test_eta_fixtures(square, fix_a, fix_b, fix_c):
    axis_minus_origin = {
        i
        for i, s in enumerate(square.simplices)
        if all(square.vertices[v][1] == 0 for v in s.vertex_ids)
    } - {square.id_of((0,))}
    assert eta(fix_a).members == axis_minus_origin
    assert not eta(fix_b).members
    assert not eta(fix_c).members
    assert is_appropriately_embedded(fix_c)
    assert not is_appropriately_embedded(fix_a)
    assert is_appropriately_embedded(closure(fix_a))


def test_eta_inside_boundary(square, fix_a):
    e = eta(fix_a)
    boundary = closure(fix_a).members - fix_a.members
    assert e.members <= boundary


def test_subdivision_counts():
    k = build_complex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    sub, _ = barycentric_subdivide(k, PLSet(k, []))
    assert sum(1 for s in sub.simplices if s.dim == 2) == 6
    assert sum(1 for s in sub.simplices if s.dim == 0) == 7


def test_subdivision_preserves_marked_set(square, fix_a):
    sub, marked = barycentric_subdivide(square, fix_a)
    rng = random.Random(3)
    for _ in range(300):
        p = (F(rng.randint(-64, 64), 64), F(rng.randint(-64, 64), 64))
        assert fix_a.contains_point(p) == marked.contains_point(p)


def test_subdivision_preserves_eta(square, fix_a):
    sub, marked = barycentric_subdivide(square, fix_a)
    sub2, marked2 = barycentric_subdivide(sub, marked)
    e0, e2 = eta(fix_a), eta(marked2)
    e0_set = PLSet(square, e0.members)
    e2_set = PLSet(sub2, e2.members)
    rng = random.Random(4)
    for _ in range(200):
        p = (F(rng.randint(-64, 64), 64), F(rng.randint(-64, 64), 64))
        assert e0_set.contains_point(p) == e2_set.contains_point(p)


def _strata_mismatches(k, s, sub, marked) -> dict[str, int]:
    """For eta, rho and the closure: how many cells of the subdivision
    ``sub`` of k disagree between the stratum of ``marked`` and the cells
    whose carrier, the largest simplex of their chain, lies in the stratum
    of s."""
    carrier = [max(c.vertex_ids, key=k.dim_of) for c in sub.simplices]
    out = {}
    for stratum in (eta, rho, closure):
        old = stratum(s).members
        want = {i for i, c in enumerate(carrier) if c in old}
        out[stratum.__name__] = len(want ^ stratum(marked).members)
    return out


def test_strata_invariant_under_subdivision():
    # eta, rho and the closure belong to the point set, not to its
    # triangulation: on every generated input of the carving pin, the strata
    # of the subdivided set are the cells whose carrier lies in the original
    # stratum.  Marking a chain by its smallest element, a vertex, instead
    # of its largest breaks this on every input
    from test_carve import _generated_marked_sets

    count = 0
    for kind, seed, s in _generated_marked_sets():
        k = s.complex
        sub, marked = barycentric_subdivide(k, s)
        assert _strata_mismatches(k, s, sub, marked) == {"eta": 0, "rho": 0, "closure": 0}, (
            kind, seed)
        by_vertex = PLSet(sub, {i for i, c in enumerate(sub.simplices)
                                if min(c.vertex_ids, key=k.dim_of) in s.members})
        assert any(_strata_mismatches(k, s, sub, by_vertex).values()), (kind, seed)
        count += 1
    assert count == 80


def test_apex_rule(square, fix_a):
    for sid in fix_a.members:
        assert germ_connected(fix_a, sid)


def all_pairs_first_bad_glue(verts, tops):
    """Positions and BadGlue message of the first offending pair in the
    order of combinations(tops, 2), with one LP per pair; None if none."""
    simplices = [Simplex(t) for t in tops]
    for (i, a), (j, b) in combinations(enumerate(simplices), 2):
        shared = set(a.vertex_ids) & set(b.vertex_ids)
        excess = intersection_excess(
            [verts[v] for v in a.vertex_ids], [verts[v] for v in b.vertex_ids],
            [k for k, v in enumerate(a.vertex_ids) if v in shared],
            [k for k, v in enumerate(b.vertex_ids) if v in shared],
        )
        if excess is not None and excess != 0:
            return i, j, f"{a} and {b} meet outside their common face"
    return None


def test_broad_phase_matches_all_pairs():
    # one vertex of a seeded grid or wedge stack moves part or all of the way
    # to the centroid, or past it; the shuffled input order scatters spatial
    # neighbours across the list
    outcomes, far = set(), 0
    for seed in range(16):
        rng = random.Random(seed)
        kind = "grid" if seed % 2 == 0 else "wedges"
        verts, tops = grid_tops(3) if kind == "grid" else wedge_stack_tops(3)
        centroid = [sum(axis) / len(verts) for axis in zip(*verts)]
        step = F(rng.randint(1, 12), 8)
        v = rng.randrange(len(verts))
        verts[v] = tuple(c + step * (m - c) + F(rng.randint(-4, 4), 64)
                         for c, m in zip(verts[v], centroid))
        rng.shuffle(tops)
        try:
            build_complex(verts, tops, validate=False)
        except (DegenerateSimplex, ValueError):
            continue
        expected = all_pairs_first_bad_glue(verts, tops)
        if expected is None:
            build_complex(verts, tops)
            outcomes.add((kind, "accepted"))
            continue
        i, j, message = expected
        with pytest.raises(BadGlue) as exc:
            build_complex(verts, tops)
        assert str(exc.value) == message
        outcomes.add((kind, "rejected"))
        far += j - i > len(tops) // 2
    assert len(outcomes) == 4 and far


def test_broad_phase_lp_count(monkeypatch):
    # the narrow phase runs on exactly the pairs whose closed boxes meet,
    # in combinations order, not on all 41 328 pairs of the 12 x 12 grid,
    # and a separating plane certifies every one of them without an LP
    verts, tops = grid_tops(12)
    calls, lps = [], []
    original = complexes.common_face
    monkeypatch.setattr(complexes, "common_face", lambda g1, g2, s1, s2: (
        calls.append((list(g1.vertices), list(g2.vertices))) or original(g1, g2, s1, s2)))
    monkeypatch.setattr(geometry, "intersection_excess", lambda *args: lps.append(args))
    build_complex(verts, tops)
    coords = [[verts[v] for v in Simplex(t).vertex_ids] for t in tops]
    boxes = [[(min(axis), max(axis)) for axis in zip(*pts)] for pts in coords]
    meeting = [
        (coords[i], coords[j])
        for i, j in combinations(range(len(tops)), 2)
        if all(a[0] <= b[1] and b[0] <= a[1] for a, b in zip(boxes[i], boxes[j]))
    ]
    assert len(tops) * (len(tops) - 1) // 2 == 41328
    assert calls == meeting
    assert len(calls) == 2168
    assert lps == []


def test_full_suite_glues_without_lp(monkeypatch):
    # every glued pair that run_suite("full") checks, the two triangles of
    # R^3 folded along a common edge included, is certified by a plane
    from saet import verify

    lps = []
    monkeypatch.setattr(geometry, "intersection_excess", lambda *args: lps.append(args))
    verify.run_suite("full")
    assert lps == []


def common_face_against_lp(monkeypatch, verts1, verts2, shared1, shared2) -> tuple[bool, bool]:
    """Run common_face on one pair and check it against the LP oracle;
    return its answer and whether a plane certified it, with no LP."""
    lps = []
    monkeypatch.setattr(geometry, "intersection_excess",
                        lambda *args: lps.append(intersection_excess(*args)) or lps[-1])
    got = common_face(SimplexGeometry(verts1), SimplexGeometry(verts2), shared1, shared2)
    excess = lps[0] if lps else intersection_excess(verts1, verts2, shared1, shared2)
    assert got == (excess is None or excess == 0)
    assert lps or (got and excess in (None, 0))
    return got, not lps


def test_common_face_matches_lp_on_perturbed_complexes(monkeypatch):
    # every box-meeting pair of 100 perturbed grids and wedge stacks; most
    # pairs miss the moved vertex and recur from seed to seed, and since
    # both routes are deterministic each distinct pair is run once
    routes, seen = {}, set()
    for seed in range(100):
        verts, tops = perturbed_complex(seed)
        try:
            rows = build_complex(verts, tops, validate=False).vertex_rows
        except (DegenerateSimplex, ValueError):
            continue
        simplices = [Simplex(t) for t in tops]
        boxes = [BoxNumerators.of_points([rows[v] for v in s.vertex_ids]) for s in simplices]
        for i, j in complexes._meeting_box_pairs(boxes):
            a, b = simplices[i].vertex_ids, simplices[j].vertex_ids
            pair = (tuple(verts[v] for v in a), tuple(verts[v] for v in b))
            if pair in seen:
                continue
            seen.add(pair)
            shared = set(a) & set(b)
            route = common_face_against_lp(
                monkeypatch, list(pair[0]), list(pair[1]),
                [k for k, v in enumerate(a) if v in shared],
                [k for k, v in enumerate(b) if v in shared])
            routes[route] = routes.get(route, 0) + 1
    # (answer, certified): both routes run, and the LP rejects some pairs
    assert (True, True) in routes and (False, False) in routes


coords = st.integers(-2, 2).map(F) | st.fractions(-2, 2, max_denominator=3)


@st.composite
def simplex_pairs(draw):
    """Two simplices of any dimensions up to n in R^2 or R^3, with 0 or
    more shared vertices, from a small lattice so that collinear,
    coplanar, touching and overlapping pairs are common."""
    n = draw(st.sampled_from([2, 3]))
    d1, d2 = draw(st.integers(0, n)), draw(st.integers(0, n))
    k = draw(st.integers(0, min(d1, d2) + 1))
    point = st.tuples(*[coords] * n)
    pts = draw(st.lists(point, min_size=d1 + d2 + 2 - k, max_size=d1 + d2 + 2 - k,
                        unique=True))
    verts1, verts2 = pts[:d1 + 1], pts[:k] + pts[d1 + 1:]
    assume(affinely_independent(verts1) and affinely_independent(verts2))
    return verts1, verts2, list(range(k))


@settings(max_examples=150, deadline=None)
@given(simplex_pairs())
@example(([(0, 0), (1, 0)], [(0, 0), (2, 0)], [0]))  # collinear edges, overlapping
@example(([(0, 0), (1, 0)], [(0, 0), (-1, 0)], [0]))  # collinear edges at a vertex
@example(([(0, 0), (1, 0), (0, 1)], [(0, 0), (-1, 0), (0, -1)], [0]))  # collinear edges
@example(([(0, 0), (1, 0)], [(0, 1), (1, 1)], []))  # disjoint parallel edges
@example(([(0, 0), (2, 0)], [(1, -1), (1, 1)], []))  # crossing edges, no shared vertex
@example(([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 0), (1, 0, 0), (0, -1, 0)], [0, 1]))
@example(([(0, 0, 0), (2, 0, 0), (0, 2, 0)], [(0, 0, 0), (1, 1, 0), (0, 0, 1)], [0]))
@example(([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 1), (1, 0, 1), (0, 1, 1)], []))
def test_common_face_matches_lp_on_generated_pairs(pair):
    verts1, verts2, shared = pair
    with pytest.MonkeyPatch.context() as monkeypatch:
        common_face_against_lp(monkeypatch, verts1, verts2, shared, shared)
        common_face_against_lp(monkeypatch, verts2, verts1, shared, shared)


def brute_star(s: PLSet, sid: int) -> list[int]:
    # members having the simplex as a face, by vertex-subset test
    ids = set(s.complex.simplex(sid).vertex_ids)
    return [c for c in s.members if ids <= set(s.complex.simplex(c).vertex_ids)]


def brute_germ_connected(s: PLSet, sid: int) -> bool:
    # face-incidence graph on the star; a member cell joins every node itself
    nodes = brute_star(s, sid)
    verts = {c: set(s.complex.simplex(c).vertex_ids) for c in nodes}
    seen, queue = {nodes[0]}, [nodes[0]]
    while queue:
        a = queue.pop()
        for b in nodes:
            if b not in seen and (verts[a] <= verts[b] or verts[b] <= verts[a]):
                seen.add(b)
                queue.append(b)
    return len(seen) == len(nodes)


def brute_eta(s: PLSet) -> frozenset:
    k = s.complex
    boundary = PLSet(k, brute_closure(s) - s.members)
    out = set()
    for sid in boundary.members:
        d_in = max(k.dim_of(c) for c in brute_star(s, sid))
        d_out = max(k.dim_of(c) for c in brute_star(boundary, sid))
        if d_out < d_in - 1 or not brute_germ_connected(s, sid):
            out.add(sid)
    return frozenset(out)


def test_germ_calculus_matches_brute_oracle():
    # seeded random marked sets on small grids and wedge stacks: a random
    # subset of the cells, or the top cells plus random lower cells
    seen_rho = seen_eta = seen_outside = 0
    for seed in range(24):
        rng = random.Random(seed)
        if seed % 2 == 0:
            verts, tops = grid_tops(3 + seed // 2 % 3)
        else:
            verts, tops = wedge_stack_tops(2 + seed // 2 % 3)
        k = build_complex(verts, tops, validate=False)
        if seed % 3 == 0:
            lower = [i for i in range(len(k.simplices)) if i not in k.top_ids]
            members = list(k.top_ids) + rng.sample(lower, rng.randint(1, len(lower) // 4))
        else:
            members = rng.sample(range(len(k.simplices)), rng.randint(1, len(k.simplices) // 2))
        s = PLSet(k, members)
        expected = brute_closure(s)
        cl = closure(s)
        assert cl.members == expected and closure(s) is cl
        # the closure's own cache starts empty: this recomputes, it does not echo cl
        again = closure(cl)
        assert again is not cl and again.members == expected
        assert rho(s).members == brute_rho(s)
        assert eta(s).members == brute_eta(s)
        for sid in range(len(k.simplices)):
            if sid in expected:
                star = brute_star(s, sid)
                assert local_dim(s, sid) == max(k.dim_of(c) for c in star)
                assert germ_connected(s, sid) == brute_germ_connected(s, sid)
                continue
            with pytest.raises(NotInClosure):
                local_dim(s, sid)
            with pytest.raises(NotInClosure):
                germ_connected(s, sid)
            seen_outside += 1
        seen_rho += bool(brute_rho(s))
        seen_eta += bool(brute_eta(s))
    assert seen_rho and seen_eta and seen_outside


def test_germ_queries_do_not_rebuild_the_closure(monkeypatch):
    # on the 12 x 12 grid minus y = 1/2, the per-cell germ queries read the
    # star only, and eta and weak_extension each take the closure at most
    # twice, however large the grid
    from saet import extend
    from saet.fixtures import interpolated_pl_function

    verts, tops = grid_tops(12)
    k = build_complex(verts, tops, validate=False)
    m = PLSet(k, [sid for sid, s in enumerate(k.simplices)
                  if any(k.vertices[v][1] != F(1, 2) for v in s.vertex_ids)])
    f = interpolated_pl_function(m, {v: p[0] for v, p in enumerate(k.vertices)})
    boundary = sorted(brute_closure(m) - m.members)
    assert len(boundary) == 25
    original, calls = complexes.closure, []

    def counting(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(complexes, "closure", counting)
    monkeypatch.setattr(extend, "closure", counting)
    for sid in boundary:
        germ_connected(m, sid)
        local_dim(m, sid)
    assert not calls
    eta(m)
    assert len(calls) <= 2
    calls.clear()
    extend.weak_extension(f)
    assert len(calls) <= 2


# --- point location: the bucket grid against an all-simplices reference ------


def closed_boxes(k):
    """The closed box of every simplex of k, as rational (lo, hi) pairs."""
    return [[(min(axis), max(axis)) for axis in zip(*k.coords(sid))]
            for sid in range(len(k.simplices))]


def all_simplices_locate(k, boxes, x):
    """Reference: test the open cell of every simplex of the complex, after
    an exact rejection by its closed bounding box boxes[sid]."""
    found = [sid for sid, box in enumerate(boxes)
             if all(lo <= c <= hi for c, (lo, hi) in zip(x, box))
             and k.geometry(sid).contains_open(x)]
    assert len(found) <= 1  # open cells are disjoint
    return found[0] if found else None


def locate_queries(k, rng, count: int):
    """Every vertex and barycenter, then seeded points with coordinates on
    the bucket boundaries of about len(tops) ** (1/n) buckets per axis,
    inside the box of the tops or at most 1/3 past it."""
    pts = list(k.vertices) + [k.barycenter(sid) for sid in range(len(k.simplices))]
    if not k.n:
        return pts
    used = [k.vertices[v] for t in k.top_ids for v in k.simplex(t).vertex_ids]
    lo = [min(p[a] for p in used) for a in range(k.n)]
    hi = [max(p[a] for p in used) for a in range(k.n)]
    per_axis = max(1, round(len(k.top_ids) ** (1 / k.n)))
    walls = [[lo[a] + (hi[a] - lo[a]) * F(i, per_axis) for i in range(per_axis + 1)]
             for a in range(k.n)]
    for _ in range(count):
        x = []
        for a in range(k.n):
            roll = rng.random()
            if roll < 0.5:
                x.append(rng.choice(walls[a]))
            elif roll < 0.9:
                x.append(lo[a] + (hi[a] - lo[a]) * F(rng.randint(0, 48), 48))
            else:
                x.append(rng.choice((lo[a] - F(1, 3), hi[a] + F(1, 3))))
        pts.append(tuple(x))
    return pts


def test_locate_matches_all_simplices_reference():
    complexes_under_test = [grid_tops(n) for n in (3, 4, 5, 6)]
    complexes_under_test += [wedge_stack_tops(p) for p in (2, 3, 4)]
    complexes_under_test += [polyline_tops(5), flat_grid_tops(3), ([()], [(0,)])]
    seen_dims, outside, beyond = set(), 0, 0
    for seed, (verts, tops) in enumerate(complexes_under_test):
        rng = random.Random(seed)
        k = build_complex(verts, tops, validate=False)
        boxes = closed_boxes(k)
        for x in locate_queries(k, rng, 80):
            want = all_simplices_locate(k, boxes, x)
            assert k.locate(x) == want, (seed, x)
            if want is None:
                outside += 1
                beyond += any(c < min(p[a] for p in k.vertices)
                              or c > max(p[a] for p in k.vertices)
                              for a, c in enumerate(x))
            else:
                seen_dims.add(k.dim_of(want))
    assert seen_dims == {0, 1, 2, 3} and outside > beyond > 0


def test_locate_makes_few_exact_solves(monkeypatch):
    # on the 12 x 12 grid (913 simplices) each query evaluates the integer
    # kernel of at most 4 top cells, not of every cell; locate, tube
    # membership and the germ cell search never form Fraction coordinates
    from saet.germs import PathGerm, eventual_simplex
    from saet.tubes import Tube, membership

    verts, tops = grid_tops(12)
    k = build_complex(verts, tops, validate=False)
    kernel, calls = SimplexGeometry.numerators, []
    wrapper, fraction_calls = SimplexGeometry.coords_and_height_sq, []

    def counting(geo, h):
        calls.append(h)
        return kernel(geo, h)

    def counting_fractions(geo, x):
        fraction_calls.append(x)
        return wrapper(geo, x)

    monkeypatch.setattr(SimplexGeometry, "numerators", counting)
    monkeypatch.setattr(SimplexGeometry, "coords_and_height_sq", counting_fractions)
    rng = random.Random(12)
    pts = list(k.vertices) + [k.barycenter(sid) for sid in range(len(k.simplices))]
    pts += [(F(rng.randint(-8, 104), 96), F(rng.randint(-8, 104), 96)) for _ in range(300)]
    assert len(k.simplices) == 913
    worst = 0
    for x in pts:
        calls.clear()
        k.locate(x)
        worst = max(worst, len(calls))
    assert 1 <= worst <= 4
    tube = Tube(k.coords(k.id_of((13, 27))), F(1, 4))  # a diagonal edge near the corner
    for x in pts:
        membership(tube, x)
        eventual_simplex(PathGerm.linear(x, (F(1, 7), F(-1, 3))), k)
    assert calls and not fraction_calls


def test_bucket_counts_follow_the_tops_widths():
    # the wedge stack is a slab of prisms that each span the whole (x, y)
    # cross-section: its grid cuts only along z, so no bucket lists more
    # than the 6 tetrahedra of two prisms; the 12 x 12 grid keeps 17 x 17
    # buckets; and points on the new bucket walls locate as the
    # all-simplices reference does
    verts, tops = wedge_stack_tops(16)
    k = build_complex(verts, tops, validate=False)
    grid = complexes._BucketGrid(k)
    assert [axis[3] + 1 for axis in grid.axes] == [1, 1, 23]
    assert max(len(listed) for listed in grid.buckets.values()) <= 6
    square = complexes._BucketGrid(build_complex(*grid_tops(12), validate=False))
    assert [axis[3] + 1 for axis in square.axes] == [17, 17]
    rng = random.Random(16)
    boxes = closed_boxes(k)
    for i in range(24):
        for _ in range(6):
            x = (F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8), F(16 * i, 23))
            assert k.locate(x) == all_simplices_locate(k, boxes, x), x


def test_locate_checks_dimension():
    k = build_complex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    s = PLSet(k, [k.id_of((0, 1, 2))])
    for x in ((5, 5, 0), (5,), (F(1, 4), F(1, 4), 0), ()):
        with pytest.raises(ValueError, match=f"{len(x)}-dimensional point.* 2-dimensional"):
            k.locate(x)
        with pytest.raises(ValueError, match="dimensional"):
            s.contains_point(x)
    assert k.locate((F(1, 4), F(1, 4))) == k.id_of((0, 1, 2))
    point = build_complex([()], [(0,)])
    assert point.locate(()) == 0
    with pytest.raises(ValueError, match="1-dimensional point.* 0-dimensional"):
        point.locate((0,))


def test_locate_on_a_complex_with_no_top():
    # a complex of vertices and no simplex has no bucket and no cell
    k = build_complex([(0, 0), (1, 0)], [])
    for h in ((1, 0, 0), (2, 1, 0), (1, 5, 5)):
        assert k.locate_top(h) is None
        assert k.locate(tuple(F(c, h[0]) for c in h[1:])) is None


def test_meeting_box_pairs_over_mixed_denominators():
    # the sweep against every pair tested over Fractions, on boxes whose
    # denominators differ, so that their raw numerators sort wrongly
    rng = random.Random(24)
    for trial in range(60):
        n = 1 + trial % 3
        boxes, refs = [], []
        for _ in range(12):
            rows = []
            for _ in range(rng.randint(1, 3)):
                q = rng.choice([1, 2, 3, 4, 6, 12])
                rows.append((q, *(rng.randint(0, 2 * q) for _ in range(n))))
            boxes.append(BoxNumerators.of_points(rows))
            refs.append([(min(axis), max(axis)) for axis in
                         zip(*([F(c, row[0]) for c in row[1:]] for row in rows))])
        want = [(i, j) for i, j in combinations(range(len(refs)), 2)
                if all(a <= d and c <= b for (a, b), (c, d) in zip(refs[i], refs[j]))]
        assert complexes._meeting_box_pairs(boxes) == want, trial


def probe_like_walk(k, rng, count: int):
    """Seeded points in the order a shell probe asks them: short steps
    along random segments, with jumps to a new start, which may lie past
    the box of the tops, vertices, and points of the closed lower faces,
    which several tops share.  A step leaves an axis of zero extent only
    now and then, so a flat complex is walked on as well as left."""
    used = [k.vertices[v] for t in k.top_ids for v in k.simplex(t).vertex_ids]
    lo = [min(p[a] for p in used) for a in range(k.n)]
    hi = [max(p[a] for p in used) for a in range(k.n)]
    faces = [sid for sid in range(len(k.simplices)) if sid not in k.top_ids]

    def anywhere():
        return tuple(a + (b - a) * F(rng.randint(-8, 72), 64) for a, b in zip(lo, hi))

    x, pts = anywhere(), []
    while len(pts) < count:
        roll = rng.random()
        if roll < 0.1:
            x = anywhere()
        elif roll < 0.15:
            x = rng.choice(k.vertices)
        elif roll < 0.3 and faces:
            corners = k.coords(rng.choice(faces))
            w = [rng.randint(0, 3) for _ in corners]
            w[rng.randrange(len(w))] += 1
            x = tuple(sum(c * wi for c, wi in zip(axis, w)) / sum(w) for axis in zip(*corners))
        else:
            x = tuple(c + F(rng.randint(-3, 3), 64) * ((b - a) or (rng.random() < 0.2))
                      for c, a, b in zip(x, lo, hi))
        pts.append(x)
    return pts


def test_hinted_location_matches_hint_free_locate():
    # a location started from the top that held the previous point finds
    # the cell the hint-free search finds, on probe-like walks over every
    # generated complex; a carved set, which keeps its own hint between
    # queries, answers as the hint-free cells say
    from saet.carve import CarvedSet
    from saet.rationals import homogeneous

    complexes_under_test = [grid_tops(n) for n in (3, 4, 6)]
    complexes_under_test += [wedge_stack_tops(p) for p in (2, 4)]
    complexes_under_test += [polyline_tops(5), flat_grid_tops(3), ([()], [(0,)])]
    held = moved = outside = 0
    for seed, (verts, tops) in enumerate(complexes_under_test):
        rng = random.Random(40 + seed)
        k = build_complex(verts, tops, validate=False)
        s = PLSet(k, [sid for sid in range(len(k.simplices)) if rng.random() < 0.6])
        carved, cl = CarvedSet(s, []), closure(s).members
        hint = None
        for x in probe_like_walk(k, rng, 300):
            h = tuple(rng.choice([1, 1, 3]) * c for c in homogeneous(x))
            want = k.locate_h(h)
            found = k.locate_top(h, hint)
            if found is None:
                assert want is None, (seed, x)
                outside += 1
            else:
                top, nums = found
                assert k.open_face(top, nums) == want, (seed, x, hint)
                assert want in k.faces[top] and nums == k.geometry(top).numerators(h)[0]
                held += top == hint
                moved += top != hint
                hint = top
            assert carved.member_h(h) == (want in s.members)
            assert carved.closure_member_h(h) == (want in cl)
    # the walks stay in the hint's top, leave it for another, and leave |K|
    assert held > 300 and moved > 300 and outside > 100


def test_hinted_location_checks_dimension_first():
    # a warm hint does not skip the dimension check, in the complex or in a
    # carved set that keeps one
    from saet.carve import CarvedSet

    k = build_complex(*grid_tops(3), validate=False)
    top = k.top_ids[0]
    carved = CarvedSet(PLSet(k, range(len(k.simplices))), [])
    assert carved.member((F(1, 9), F(1, 18)))
    for h in ((9, 1, 1, 0), (9, 1), (1,)):
        with pytest.raises(ValueError, match=f"{len(h) - 1}-dimensional point.* 2-dimensional"):
            k.locate_top(h, top)
        with pytest.raises(ValueError, match=f"{len(h) - 1}-dimensional point"):
            carved.member_h(h)
        with pytest.raises(ValueError, match=f"{len(h) - 1}-dimensional point"):
            carved.closure_member_h(h)


def test_validated_build_keeps_its_glue_geometries(monkeypatch):
    # the geometries built for the glue check are the ones Complex.geometry
    # hands out afterwards; a top's barycentric forms are solved for once
    built = []

    class Recording(SimplexGeometry):
        def __init__(self, vertices):
            super().__init__(vertices)
            built.append(self)

    monkeypatch.setattr(complexes, "SimplexGeometry", Recording)
    verts, tops = wedge_stack_tops(3)
    k = build_complex(verts, tops)
    glue = {geo.vertices: geo for geo in built}
    assert len(built) == len(glue) == len(tops)
    for sid in k.top_ids:
        assert k.geometry(sid) is glue[k.coords(sid)]
    assert len(built) == len(tops)
    k.geometry(0)  # a vertex: built on demand
    assert len(built) == len(tops) + 1
    unvalidated = build_complex(verts, tops, validate=False)
    assert unvalidated.geometry(unvalidated.top_ids[0]) is not glue[k.coords(k.top_ids[0])]


def test_unvalidated_build_solves_each_top_once(monkeypatch):
    # without the glue check the degeneracy check is still each top's own
    # geometry solve, kept for Complex.geometry: no rank elimination, and
    # one barycentric table per top with every later geometry touch counted
    from saet import rationals

    ranks, tables = [], []
    rank, table = rationals.rank, geometry.barycentric_table
    monkeypatch.setattr(rationals, "rank", lambda rows: ranks.append(rows) or rank(rows))
    monkeypatch.setattr(geometry, "barycentric_table",
                        lambda verts: tables.append(verts) or table(verts))
    k = build_complex(*grid_tops(8), validate=False)
    for sid in k.top_ids:
        k.geometry(sid)
    assert len(k.top_ids) == 128
    assert ranks == [] and len(tables) == 128
    with pytest.raises(DegenerateSimplex, match="affinely dependent"):
        build_complex([(0, 0), (1, 1), (2, 2)], [(0, 1, 2)], validate=False)
