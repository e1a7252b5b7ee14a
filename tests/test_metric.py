import random
from fractions import Fraction as F

import pytest

from saet import metric
from saet.carve import appropriate_embed
from saet.errors import CertificationFailure, NotCommonFace, PreconditionViolated
from saet.intervals import Interval, sqrt_enclosure
from saet.metric import (
    _EPS_SQ_CANDIDATES,
    FaceFunctionals,
    certificate_for,
    certify_epsilon,
    incenter,
    separating_hyperplane,
)
from saet.rationals import affinely_independent, dot


def random_simplex(rng, dim, n):
    while True:
        verts = [
            tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            for _ in range(dim + 1)
        ]
        if len(set(verts)) == dim + 1 and affinely_independent(verts):
            return verts


def interior_point(rng, verts):
    w = [F(rng.randint(1, 12)) for _ in verts]
    t = sum(w)
    return tuple(sum(wi * v[c] for wi, v in zip(w, verts)) / t for c in range(len(verts[0])))


def overlaps(a: Interval, b: Interval) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def test_reference_triangle_functionals():
    ff = FaceFunctionals([(0, 0), (1, 0), (0, 1)])
    # barycentric forms in vertex order: 1-x-y, x, y
    assert [f((0, 0)) for f in ff.forms] == [1, 0, 0]
    assert [f((1, 0)) for f in ff.forms] == [0, 1, 0]
    assert [f((0, 1)) for f in ff.forms] == [0, 0, 1]
    assert set(ff.norm_sq) == {F(2), F(1)}
    assert ff.norm_sq[0] == 2  # normal of the hypotenuse form


def test_unit_segment_functionals():
    ff = FaceFunctionals([(0,), (1,)])
    vals = sorted((f((F(1, 3),)), q) for f, q in zip(ff.forms, ff.norm_sq))
    assert vals == [(F(1, 3), 1), (F(2, 3), 1)]


def test_partition_of_unity_random():
    rng = random.Random(11)
    for _ in range(25):
        verts = random_simplex(rng, rng.randint(1, 3), 4)
        ff = FaceFunctionals(verts)
        for _ in range(10):
            x = interior_point(rng, verts)
            assert sum(f(x) for f in ff.forms) == 1
        # symbolic: the sum is the constant-1 affine form
        total = ff.forms[0]
        for f in ff.forms[1:]:
            total = total + f
        assert total.c0 == 1 and all(c == 0 for c in total.c)


def test_incenter_unit_segment():
    p, r = incenter([(0,), (1,)])
    assert p[0].contains(F(1, 2)) and r.contains(F(1, 2))
    assert r.lo == r.hi


def test_incenter_right_triangle():
    p, r = incenter([(0, 0), (1, 0), (0, 1)], F(1, 2**60))
    # p = (1 - sqrt(2)/2, same), r = 1 - sqrt(2)/2
    s2 = sqrt_enclosure(2, 80)
    expect = 1 - s2 * F(1, 2)
    assert overlaps(p[0], expect) and overlaps(p[1], expect) and overlaps(r, expect)
    assert r.width <= F(1, 2**60)
    # equidistance: facet-distance intervals pairwise overlap
    ff = FaceFunctionals([(0, 0), (1, 0), (0, 1)])
    dists = []
    for form, nsq in zip(ff.forms, ff.norm_sq):
        val = Interval(form.c0)
        for c, coord in zip(form.c, p.coords):
            val = val + coord * c
        dists.append(val / sqrt_enclosure(nsq, 80))
    for i in range(3):
        for j in range(i + 1, 3):
            assert overlaps(dists[i], dists[j])


def test_incenter_beats_grid():
    # dense-grid oracle: no grid point of the simplex has larger distance
    # to the boundary than the certified inradius (squared comparison)
    rng = random.Random(5)
    for _ in range(6):
        verts = random_simplex(rng, 2, 2)
        ff = FaceFunctionals(verts)
        _, r = incenter(verts, F(1, 2**40))
        best = F(0)
        m = 25
        for i in range(1, m):
            for j in range(1, m - i):
                bary = [F(i, m), F(j, m), F(m - i - j, m)]
                x = tuple(
                    sum(b * v[c] for b, v in zip(bary, verts)) for c in range(2)
                )
                d2 = min(
                    form(x) ** 2 / nsq for form, nsq in zip(ff.forms, ff.norm_sq)
                )
                best = max(best, d2)
        assert best <= r.hi * r.hi


def test_separating_hyperplane_shared_vertex():
    h = separating_hyperplane([(0, 0), (1, 0)], [(0, 0), (0, 1)])
    assert h.form((0, 0)) == 0
    assert h.form((1, 0)) <= -1
    assert h.form((0, 1)) >= 1


def test_separating_hyperplane_disjoint_slabs():
    h = separating_hyperplane([(0, 0), (1, 0)], [(0, 1), (1, 1)])
    assert h.form((0, 0)) <= -1 and h.form((1, 0)) <= -1
    assert h.form((0, 1)) >= 1 and h.form((1, 1)) >= 1


def test_separating_hyperplane_rejects_overlap():
    with pytest.raises(NotCommonFace):
        separating_hyperplane([(0, 0), (2, 0)], [(1, 0), (3, 0)])


def glued_pair(rng):
    # shared face plus one extra vertex on each side of a separating axis
    n = 3
    dim_shared = rng.randint(1, 2)
    while True:
        shared = [
            tuple(F(rng.randint(-4, 4), 2) for _ in range(n - 1)) + (F(0),)
            for _ in range(dim_shared)
        ]
        e1 = tuple(F(rng.randint(-4, 4), 2) for _ in range(n - 1)) + (F(rng.randint(1, 4)),)
        e2 = tuple(F(rng.randint(-4, 4), 2) for _ in range(n - 1)) + (F(-rng.randint(1, 4)),)
        v1, v2 = shared + [e1], shared + [e2]
        if (
            len(set(v1)) == len(v1)
            and len(set(v2)) == len(v2)
            and affinely_independent(v1)
            and affinely_independent(v2)
        ):
            return v1, v2, shared


def test_separation_on_random_glued_pairs():
    rng = random.Random(7)
    for _ in range(40):
        v1, v2, shared = glued_pair(rng)
        h = separating_hyperplane(v1, v2)
        assert all(h.form(v) == 0 for v in shared)
        assert all(h.form(v) <= -1 for v in v1 if v not in shared)
        assert all(h.form(v) >= 1 for v in v2 if v not in shared)


def test_certify_epsilon_diagonal(square):
    tau = square.id_of((0, 2))
    eps = certify_epsilon(square, tau)
    assert 0 < eps < 1
    # recheck at the returned value and at a 10x finer snapped value
    certificate_for(square, tau, eps)
    certificate_for(square, tau, eps / 4)


def test_certify_epsilon_vertex(square):
    eps = certify_epsilon(square, square.id_of((0,)))
    assert 0 < eps < 1
    recs = certificate_for(square, square.id_of((0,)), eps)
    assert all(r["kind"] == "face_clearance" for r in recs)


def test_certify_epsilon_with_peer(square):
    t1, t2 = square.id_of((0, 1)), square.id_of((0, 5))
    eps = certify_epsilon(square, t1, peers=[t2])
    recs = certificate_for(square, t1, eps, peers=[t2])
    kinds = {r["kind"] for r in recs}
    assert "apex_ball_clearance" in kinds


def test_certify_epsilon_rejects_nested_peer(square):
    with pytest.raises(PreconditionViolated):
        certify_epsilon(square, square.id_of((0, 1)), peers=[square.id_of((0,))])


def test_certification_failure_names_the_inequality(square):
    # a peer held at eps^2 = 1/2 fails its side of the separating plane at
    # every candidate eps of tau; a given eps^2 = 1/2 fails tau's first
    # face clearance
    t1, t2 = square.id_of((0, 1)), square.id_of((0, 5))
    with pytest.raises(CertificationFailure) as failure:
        certify_epsilon(square, t1, peers=[(t2, F(1, 2))])
    assert str(failure.value).endswith(
        f": apex_ball_clearance of peer {t2} against simplex {t1} fails at the last candidate"
    )
    with pytest.raises(CertificationFailure) as failure:
        certificate_for(square, t1, F(1, 2))
    assert str(failure.value).endswith(f": face_clearance of simplex {t1} opposite vertex 0 fails")


def test_certificate_needs_eps_sq_in_the_unit_interval(square):
    # eps^2 / (1 - eps^2) is negative above 1 and undefined at 1; no tube
    # has such an eps, and a negative left side would pass every clearance
    t1 = square.id_of((0, 1))
    assert len(certificate_for(square, t1, F(1, 4), peers=[(0, 5)])) == 8
    for eps_sq in (F(2), F(-1), F(0), F(1)):
        with pytest.raises(PreconditionViolated, match=r"not in \(0, 1\)"):
            certificate_for(square, t1, eps_sq, peers=[(0, 5)])


def test_peer_pair_of_vertex_ids_names_a_segment(square):
    # (0, 5) is the segment with vertex ids 0 and 5, not simplex 0 at eps^2 = 5;
    # an (id, eps^2) pair needs an int id and a Fraction eps^2 in (0, 1)
    tau, seg = square.id_of((1, 2)), square.id_of((0, 5))
    eps = certify_epsilon(square, tau, peers=[seg])
    assert certify_epsilon(square, tau, peers=[(0, 5)]) == eps
    recs = certificate_for(square, tau, eps, peers=[seg])
    assert certificate_for(square, tau, eps, peers=[(0, 5)]) == recs
    assert certificate_for(square, tau, eps, peers=[(seg, eps)]) == recs
    assert any(r.get("peer") == seg for r in recs)


def test_perpendicular_segments_tubes_meet_in_vertex(square):
    # certified eps keeps the two tubes apart except at the shared vertex
    from saet.tubes import ON_BOUNDARY, OUTSIDE, Tube, membership

    t1, t2 = square.id_of((0, 1)), square.id_of((0, 3))
    eps = min(
        certify_epsilon(square, t1, peers=[t2]),
        certify_epsilon(square, t2, peers=[t1]),
    )
    tube1 = Tube(square.coords(t1), eps)
    tube2 = Tube(square.coords(t2), eps)
    rng = random.Random(9)
    for _ in range(500):
        x = (F(rng.randint(-8, 40), 32), F(rng.randint(-8, 40), 32))
        if membership(tube1, x) != OUTSIDE and membership(tube2, x) != OUTSIDE:
            assert x == (0, 0)


# The Fraction-interval decision of ``metric._Clearance`` before its integer
# enclosures, kept verbatim as the reference: the sum over the base vertices
# of sqrt_enclosure(q_i, bits) * form(v_i), decided at the first precision
# that decides.
REFERENCE_BITS = (64, 128, 256, 512)


def reference_decide_strict_less(lhs, rhs_factory):
    """Decide lhs < rhs where rhs_factory(bits) -> Interval enclosing rhs."""
    for bits in REFERENCE_BITS:
        rhs = rhs_factory(bits)
        if lhs < rhs.lo:
            return True
        if rhs.hi <= lhs:
            return False
    return None


def reference_sum(ff, form, bits):
    """Enclosure of sum_i ||u_i|| form(v_i) over the simplex vertices."""
    acc = Interval(0)
    for q, v in zip(ff.norm_sq, ff.vertices, strict=True):
        acc = acc + sqrt_enclosure(q, bits) * form(v)
    return acc


def built_clearances(monkeypatch, marked_sets):
    """Every clearance that appropriate_embed builds on the marked sets, with
    its arguments, and the eps^2 of every level."""
    built, eps_values = [], set()
    original = metric._Clearance.__init__

    def recording(self, base, form, q, side=0):
        original(self, base, form, q, side)
        built.append((self, base, form, q, side))

    monkeypatch.setattr(metric._Clearance, "__init__", recording)
    for s in marked_sets:
        eps_values.update(F(level["eps_sq"]) for level in appropriate_embed(s).levels)
    return built, eps_values


def test_integer_clearance_matches_fraction_intervals(monkeypatch):
    # the side check and the test of every clearance carved on the 8 x 8 cut
    # grid, the punctured 6 x 6 grid, the 2 x 2 x 2 cut cube and 20 seeded
    # wedge stacks, at every candidate eps^2 and every level's snapped
    # eps^2: the same True, False and undecided answers as the Fraction
    # intervals
    from test_carve import _generated_marked_sets, cut_cube, grid_cut, grid_punctured

    wedges = [s for kind, _, s in _generated_marked_sets() if kind == "wedges"]
    marked = [grid_cut(8), grid_punctured(6, [(1, 1), (3, 4), (4, 2)]), cut_cube(2)] + wedges
    built, eps_values = built_clearances(monkeypatch, marked)
    eps_values = sorted(eps_values | set(_EPS_SQ_CANDIDATES))
    answers = {}
    for clearance, base, form, q, side in built:
        if clearance.ff is None:
            value = form(base)
            sign_ok = not side or value * side > 0
            assert clearance.sign_ok == sign_ok
            for eps_sq in eps_values:
                assert clearance.holds(eps_sq) == (sign_ok and eps_sq * q < value * value)
            continue
        sums = {}

        def total(bits, ff=clearance.ff, form=form):
            return sums.setdefault(bits, reference_sum(ff, form, bits))

        side_answer = reference_decide_strict_less(F(0), lambda bits: total(bits) * side)
        if side:
            assert clearance.side_decision() == side_answer
        sign_ok = not side or side_answer is True
        assert clearance.sign_ok == sign_ok
        for eps_sq in eps_values:
            lhs = eps_sq / (1 - eps_sq) * q
            want = reference_decide_strict_less(lhs, lambda bits: total(bits).square())
            assert clearance.less_decision(lhs.numerator, lhs.denominator) == want
            assert clearance.holds(eps_sq) == (sign_ok and want is True)
            answers[want] = answers.get(want, 0) + 1
    # certified, refused and undecided answers all occur; the undecided ones
    # have S = sqrt(q_i) form(v_i) with (eps*)^2 q = S^2 exactly
    assert len(built) > 800 and set(answers) == {True, False, None}
