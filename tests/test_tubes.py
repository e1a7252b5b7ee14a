import random
from fractions import Fraction as F

from saet.fixtures import fix_t
from saet.tubes import (
    INSIDE_OPEN,
    ON_BOUNDARY,
    OUTSIDE,
    Tube,
    VertexBall,
    hat_lift_membership,
    membership,
)


def test_segment_tube_trichotomy():
    t = fix_t()  # eps^2 = 1/5, so eps*^2 = 1/4
    assert t.eps_star_sq == F(1, 4)
    assert membership(t, (F(1, 2), F(1, 4))) == ON_BOUNDARY
    assert membership(t, (F(1, 2), F(1, 5))) == INSIDE_OPEN
    assert membership(t, (F(1, 2), F(3, 10))) == OUTSIDE
    assert membership(t, (F(1, 2), -F(1, 5))) == INSIDE_OPEN


def test_base_vertices_on_boundary():
    t = fix_t()
    assert membership(t, (0, 0)) == ON_BOUNDARY
    assert membership(t, (1, 0)) == ON_BOUNDARY
    assert membership(t, (F(1, 2), 0)) == INSIDE_OPEN  # open base cell


def random_tube(rng, n):
    from saet.rationals import affinely_independent

    dim = rng.randint(1, min(2, n - 1))
    while True:
        verts = [
            tuple(F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n))
            for _ in range(dim + 1)
        ]
        if len(set(verts)) == dim + 1 and affinely_independent(verts):
            break
    eps_sq = F(rng.randint(1, 9), rng.randint(10, 24))
    return Tube(verts, eps_sq)


def test_hat_lift_agreement_sampled():
    # the dual-predicate oracle: ratio route vs hat-simplex route
    rng = random.Random(123)
    for _ in range(6):
        n = rng.randint(2, 3)
        tube = random_tube(rng, n)
        for _ in range(400):
            x = tuple(F(rng.randint(-40, 40), 16) for _ in range(n))
            assert (membership(tube, x) != OUTSIDE) == hat_lift_membership(tube, x)


def test_hat_lift_outside_cylinder():
    t = fix_t()
    assert hat_lift_membership(t, (2, F(1, 100))) is False


def test_slice_simplex_inside_tube():
    # the slice of fix_t through (1/2, 1) has its apex at (1/2, 1/4); a
    # rational apex strictly below it is in the open tube, hence the whole
    # slice simplex is inside (the tube is convex)
    t = fix_t()
    q_inner = (F(1, 2), F(15, 64))
    assert membership(t, q_inner) == INSIDE_OPEN
    rng = random.Random(3)
    verts = list(t.vertices) + [q_inner]
    for _ in range(100):
        w = [F(rng.randint(0, 8)) for _ in verts]
        if sum(w) == 0:
            continue
        tot = sum(w)
        p = tuple(sum(wi * v[c] for wi, v in zip(w, verts)) / tot for c in range(2))
        assert membership(t, p) != OUTSIDE
    # beyond the apex slab: outside
    assert membership(t, (F(1, 2), F(17, 64))) == OUTSIDE


def test_tube_monotone_in_eps():
    t_small, t_big = Tube([(0, 0), (1, 0)], F(1, 20)), fix_t()
    rng = random.Random(8)
    for _ in range(400):
        x = (F(rng.randint(-8, 40), 32), F(rng.randint(-16, 16), 32))
        small = membership(t_small, x)
        if small != OUTSIDE:
            assert membership(t_big, x) != OUTSIDE
        if small == ON_BOUNDARY:
            assert membership(t_big, x) == INSIDE_OPEN or x in [(0, 0), (1, 0)]


def test_half_tube_strictly_inside():
    # eps^2 = 4/17 puts rational points on the half-tube wall: the half
    # parameter has (eps/2)*^2 = 1/16, slope 1/4 over the base
    t = Tube([(0, 0), (1, 0)], F(4, 17))
    half = t.shrink_half()
    assert half.eps_star_sq == F(1, 16)
    hits = 0
    for i in range(1, 32):
        x = F(i, 64)  # active facet is the near endpoint: dist = x
        for sign in (1, -1):
            p = (x, sign * x / 4)
            assert membership(half, p) == ON_BOUNDARY
            assert membership(t, p) == INSIDE_OPEN
            hits += 1
    assert hits == 62


def test_vertex_ball():
    b = VertexBall((0, 0), F(1, 16))
    assert membership(b, (0, 0)) == INSIDE_OPEN
    assert membership(b, (F(1, 4), 0)) == ON_BOUNDARY
    assert membership(b, (F(1, 2), 0)) == OUTSIDE
