"""The integer point kernel of ``SimplexGeometry`` against the Fraction
Gram solve it replaced, on seeded simplices of every (d, n) with
0 <= d <= n <= 3, and its fraction-free solve and integer glue planes
against the Fraction Gram-inverse route kept in geometry_reference.py."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest
from complex_generators import grid_tops, perturbed_complex, wedge_stack_tops

from saet.complexes import build_complex
from saet.errors import DegenerateSimplex
from saet.geometry import SimplexGeometry, homogeneous
from saet.germs import PathGerm, eventual_simplex
from saet.rationals import affinely_independent, dot, norm_sq, solve, vec, vsub

from geometry_reference import gram

SHAPES = [(d, n) for n in range(4) for d in range(n + 1)]


def gram_coords_and_height_sq(vertices, x):
    """Reference: the barycentric coordinates of the projection of x onto
    the affine hull and the squared height, from the Gram system G t = r
    with r_j = (x - base) . e_j, solved in Fractions; the height is
    ||x - base||^2 - t . r."""
    base = vertices[-1]
    diff = vsub(x, base)
    edges = [vsub(v, base) for v in vertices[:-1]]
    if not edges:
        return [F(1)], norm_sq(diff)
    r = [dot(diff, e) for e in edges]
    t = solve(gram(edges), r)
    return t + [1 - sum(t)], norm_sq(diff) - dot(tuple(t), tuple(r))


def seeded_simplex(rng, d, n):
    """d + 1 affinely independent rational points of Q^n with mixed denominators."""
    while True:
        verts = [tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(n))
                 for _ in range(d + 1)]
        if len(set(verts)) == len(verts) and affinely_independent(verts):
            return verts


def combination(verts, weights):
    total = sum(weights)
    return tuple(sum(w * v[k] for w, v in zip(weights, verts)) / total
                 for k in range(len(verts[0])))


def query_points(rng, verts, count):
    """The vertices; points on every face (positive weights on its
    vertices); points of the hull outside the simplex (a negative weight);
    points off the hull; and points far outside the vertices' box."""
    n = len(verts[0])
    pts = list(verts)
    for size in range(1, len(verts) + 1):
        for face in combinations(verts, size):
            pts.append(combination(face, [F(rng.randint(1, 6)) for _ in face]))
    for _ in range(count):
        weights = [F(rng.randint(-3, 6)) for _ in verts]
        if sum(weights) == 0:
            weights[0] += 1
        in_hull = combination(verts, weights)
        pts.append(in_hull)
        if n:
            off = tuple(F(rng.randint(-4, 4), rng.randint(1, 9)) for _ in range(n))
            pts.append(tuple(a + b for a, b in zip(in_hull, off)))
            pts.append(tuple(F(rng.randint(-99, 99), rng.randint(1, 4)) for _ in range(n)))
    return pts


def cases():
    for d, n in SHAPES:
        for seed in range(6):
            rng = random.Random(1000 * d + 100 * n + seed)
            verts = seeded_simplex(rng, d, n)
            yield d, n, verts, query_points(rng, verts, 12)


def test_kernel_matches_the_gram_solve():
    kinds = {shape: set() for shape in SHAPES}
    for d, n, verts, pts in cases():
        geo = SimplexGeometry(verts)
        table = geo.integral
        for x in pts:
            want_bary, want_h2 = gram_coords_and_height_sq(verts, x)
            bary, h2 = geo.coords_and_height_sq(x)
            assert (bary, h2) == (want_bary, want_h2), (verts, x)
            h = homogeneous(x)
            nums, height = geo.numerators(h)
            assert sum(nums) == table.d_scale * h[0]
            assert (height == 0) == (want_h2 == 0)
            closed = want_h2 == 0 and min(want_bary) >= 0
            assert geo.contains(x) == closed
            assert geo.contains_open(x) == (want_h2 == 0 and min(want_bary) > 0)
            assert geo.barycentric(x) == (want_bary if want_h2 == 0 else None)
            if want_h2:
                kinds[(d, n)].add("off hull")
            elif not closed:
                kinds[(d, n)].add("outside")
            elif min(want_bary) == 0:
                kinds[(d, n)].add("face")
            else:
                kinds[(d, n)].add("open")
    for (d, n), seen in kinds.items():
        want = {"open"} | ({"face", "outside"} if d else set()) | ({"off hull"} if d < n else set())
        assert seen == want, (d, n, seen)


def gram_carrier(k, c):
    """Reference: the cell whose open part holds c, on the Gram solve."""
    for sid in range(len(k.simplices)):
        bary, h2 = gram_coords_and_height_sq(k.coords(sid), c)
        if h2 == 0 and min(bary) > 0:
            return sid
    return None


def three_point_eventual_simplex(alpha, k, carrier):
    """Reference: the rule the kernel replaced, on the Gram solve.  In the
    open star of the carrier of c the germ settles into the cell whose
    squared height, a quadratic in t, vanishes at t = 0, 1, 2 and whose
    coordinates are lexicographically positive in (value at c, slope)."""
    if carrier is None:
        return None
    c, v = alpha.germ()
    xs = [tuple(ci + t * vi for ci, vi in zip(c, v)) for t in (0, 1, 2)]
    for sid in k.cofaces[carrier]:
        data = [gram_coords_and_height_sq(k.coords(sid), x) for x in xs]
        if any(h != 0 for _, h in data):
            continue
        (b0, _), (b1, _), _ = data
        if all(x > 0 or (x == 0 and y - x > 0) for x, y in zip(b0, b1)):
            return sid
    return None


def test_two_point_germ_cell_matches_the_three_point_rule():
    found = {shape: set() for shape in SHAPES}
    for d, n, verts, pts in cases():
        k = build_complex(verts, [tuple(range(d + 1))], validate=False)
        rng = random.Random(d * 10 + n)
        for c in pts:
            carrier = gram_carrier(k, c)
            for v in [(F(0),) * n] + [vsub(rng.choice(pts), c) for _ in range(2)]:
                alpha = PathGerm.linear(c, v)
                want = three_point_eventual_simplex(alpha, k, carrier)
                assert eventual_simplex(alpha, k) == want, (verts, c, v)
                found[(d, n)].add(None if want is None else k.dim_of(want))
    for (d, n), dims in found.items():
        assert set(range(d + 1)) <= dims and (None in dims or d == n == 0), (d, n, dims)


@pytest.mark.parametrize("d, n", [(1, 2), (2, 3), (3, 3)])
def test_integer_table_rows_give_the_forms(d, n):
    # rows / D are the barycentric forms and points / V the vertices
    verts = seeded_simplex(random.Random(d + n), d, n)
    geo = SimplexGeometry(verts)
    table = geo.integral
    for row, form in zip(table.rows, geo.forms, strict=True):
        assert tuple(F(c, table.d_scale) for c in row) == (form.c0, *form.c)
    for point, v in zip(table.points, verts, strict=True):
        assert point[0] == table.v_scale and tuple(F(c, table.v_scale) for c in point[1:]) == v


def test_ball_membership_matches_the_fraction_distance():
    # the dimension-0 kernel: H / (D q V)^2 is the squared distance to the
    # center, compared with r^2 over the integers; boundary points included
    from saet.tubes import INSIDE_OPEN, ON_BOUNDARY, OUTSIDE, VertexBall, membership

    rng = random.Random(3)
    seen = set()
    for n in (1, 2, 3):
        center = tuple(F(rng.randint(-9, 9), rng.choice((1, 3, 4))) for _ in range(n))
        r = F(rng.randint(1, 5), rng.choice((2, 3, 7)))
        ball = VertexBall(center, r * r)
        pts = [tuple(c + (r if k == a else 0) * s for k, c in enumerate(center))
               for a in range(n) for s in (1, -1)]
        pts += [tuple(c + F(rng.randint(-9, 9), rng.randint(1, 8)) for c in center)
                for _ in range(40)]
        for x in pts:
            d2 = norm_sq(vsub(x, center))
            want = OUTSIDE if d2 > r * r else ON_BOUNDARY if d2 == r * r else INSIDE_OPEN
            assert membership(ball, x) == want, (center, r, x)
            seen.add(want)
    assert seen == {OUTSIDE, ON_BOUNDARY, INSIDE_OPEN}


# --- the fraction-free solve against the Gram inverse it replaced -----------


def agrees_with_gram_inverse(verts):
    """``integral``, ``forms`` and ``norm_sq`` equal those of the Fraction
    Gram-inverse route kept in geometry_reference.py."""
    from geometry_reference import ReferenceGeometry
    from saet.metric import FaceFunctionals

    geo, ref = SimplexGeometry(verts), ReferenceGeometry(tuple(map(vec, verts)))
    assert geo.integral == ref.integral, verts
    assert geo.forms == ref.forms, verts
    if geo.d:
        assert FaceFunctionals(geo).norm_sq == ref.norm_sq, verts
        assert FaceFunctionals(verts).norm_sq == ref.norm_sq, verts


def test_solve_matches_gram_inverse_on_grids_and_wedge_stacks():
    # every simplex, faces included, of the 3 x 3 to 8 x 8 grids and of the
    # stacks of 2 to 4 wedge prisms
    checked = 0
    for verts, tops in [grid_tops(n) for n in range(3, 9)] + [wedge_stack_tops(p)
                                                               for p in (2, 3, 4)]:
        k = build_complex(verts, tops, validate=False)
        for sid in range(len(k.simplices)):
            agrees_with_gram_inverse(k.coords(sid))
            checked += 1
    assert checked > 1300


DENOMINATORS = (1, 2, 3, 7, 9, 11, 25, 2**61 - 1, 10**18 + 9)


def large_simplex(rng, d, n):
    """d + 1 affinely independent points of Q^n whose denominators are
    small, odd and composite, or large primes, with large numerators."""
    while True:
        verts = [tuple(F(rng.randint(-10**6, 10**6) * rng.choice((1, 1, 10**9 + 7)),
                         rng.choice(DENOMINATORS)) for _ in range(n)) for _ in range(d + 1)]
        if len(set(verts)) == len(verts) and affinely_independent(verts):
            return verts


def test_solve_matches_gram_inverse_on_seeded_simplices():
    shapes = [(d, n) for n in range(5) for d in range(n + 1)]
    for d, n in shapes:
        for seed in range(12):
            rng = random.Random(4000 + 100 * n + 10 * d + seed)
            make = seeded_simplex if seed % 2 else large_simplex
            agrees_with_gram_inverse(make(rng, d, n))
    # a simplex far from the origin and a thin one (nearly dependent edges)
    agrees_with_gram_inverse([(F(10**30 + 1, 3), F(7, 10**20)), (F(10**30, 3), 0),
                              (F(10**30, 3), F(1, 10**20))])
    agrees_with_gram_inverse([(0, 0, 0), (1, F(1, 10**12), 0), (2, F(3, 10**12), F(1, 10**15))])


def test_dependent_vertices_raise_degenerate_simplex():
    from geometry_reference import ReferenceGeometry

    rng = random.Random(1968)
    cases = 0
    for n in range(1, 5):
        for d in range(1, n + 3):
            for _ in range(6):
                verts = seeded_simplex(rng, min(d, n), n)
                if d > n:  # more than n + 1 points of Q^n
                    verts += [tuple(F(rng.randint(-9, 9), 7) for _ in range(n))
                              for _ in range(d - n)]
                elif d >= 2 and rng.random() < 0.5:  # an affine combination
                    weights = [F(rng.randint(-3, 3)) for _ in range(d)]
                    weights[-1] = 1 - sum(weights[:-1])
                    verts[-1] = tuple(sum(w * v[k] for w, v in zip(weights, verts[:-1]))
                                      for k in range(n))
                else:  # a repeated vertex
                    verts[-1] = verts[rng.randrange(d)]
                for make in (SimplexGeometry, ReferenceGeometry):
                    with pytest.raises(DegenerateSimplex, match="affinely dependent"):
                        make(verts)
                cases += 1
    assert cases > 100
    with pytest.raises(DegenerateSimplex):
        SimplexGeometry([(), ()])


def test_vertices_are_coerced_strictly():
    # booleans and floats are type errors, not the numbers 0, 1 and 0.5
    with pytest.raises(TypeError):
        SimplexGeometry([(False, 0), (True, 0), (0, True)])
    with pytest.raises(TypeError):
        SimplexGeometry([(0, 0), (0.5, 0), (0, 1)])
    with pytest.raises(TypeError):
        SimplexGeometry([(True,)])
    # vertices of mixed lengths are a ValueError, not a degenerate simplex
    for verts in ([(0, 0), (1, 0, 0)], [(0, 0), (1,), (0, 1)], [(0, 0, 0), (1, 0), (0, 1, 0)]):
        with pytest.raises(ValueError, match="different dimensions"):
            SimplexGeometry(verts)
    geo = SimplexGeometry([(0, 0), ("1/2", 0), (0, 1)])
    assert geo.vertices == ((0, 0), (F(1, 2), 0), (0, 1))
    assert all(type(c) is F for v in geo.vertices for c in v)


def same_plane(row, form) -> bool:
    """Whether an integer row is a positive multiple of a form's row, or
    both are None."""
    if row is None or form is None:
        return row is None and form is None
    want = form.row[1:]
    g, h = gcd(*row), gcd(*want)
    return tuple(c // g for c in row) == tuple(c // h for c in want)


def test_glue_planes_are_multiples_of_the_fraction_planes():
    # the integer rows of _shared_face_plane and _hull_normal_plane are
    # positive multiples of the Fraction planes, so _separates decides alike
    from geometry_reference import hull_normal_plane, shared_face_plane
    from saet import geometry

    inputs = [grid_tops(3), wedge_stack_tops(2)] + [perturbed_complex(s) for s in range(24)]
    inputs.append(([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (2, 0, 1)],
                   [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 4, 5), (1, 3, 5)]))
    seen = {"shared": 0, "face": 0, "apart": 0, "hull": 0, "none": 0}
    for verts, tops in inputs:
        try:
            k = build_complex(verts, tops, validate=False)
        except (DegenerateSimplex, ValueError):
            continue
        for a, b in combinations(k.top_ids, 2):
            geo1, geo2 = k.geometry(a), k.geometry(b)
            ids1, ids2 = k.simplices[a].vertex_ids, k.simplices[b].vertex_ids
            shared1 = [i for i, v in enumerate(ids1) if v in ids2]
            shared2 = [ids2.index(ids1[i]) for i in shared1]
            row = geometry._shared_face_plane(geo1, geo2, shared1)
            assert same_plane(row, shared_face_plane(geo1, geo2, shared1)), (a, b)
            hull = geometry._hull_normal_plane(geo1, geo2, shared2)
            assert same_plane(hull, hull_normal_plane(geo1, geo2, shared2)), (a, b)
            seen["face" if len(shared1) > 1 else "shared" if shared1 else "apart"] += 1
            seen["hull"] += hull is not None
            seen["none"] += row is None or hull is None
    assert min(seen.values()) > 0, seen
