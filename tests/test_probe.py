"""The integer shell probe against the Fraction probe it replaced
(``probe_reference``), its count guards and the checks on its inputs."""

import random
from fractions import Fraction as F

import pytest
from probe_reference import probe_germ_reference
from test_carve import _generated_marked_sets, grid_cut, grid_punctured

from saet import fixtures, probe
from saet.carve import CarvedSet, appropriate_embed, probe_germ
from saet.cli import _wall_probe_points
from saet.complexes import closure
from saet.errors import CertificationFailure, PreconditionViolated
from saet.rationals import AffineForm, homogeneous


def _boundary_centers(carved: CarvedSet, rng, count: int) -> list[tuple]:
    """Up to count seeded points of closure minus set: in seeded boundary
    cells of the base, the barycenter or a seeded interior point, kept when
    the carving left it on the boundary."""
    k, base = carved.base.complex, carved.base
    cells = sorted(closure(base).members - base.members)
    out = []
    for sid in rng.sample(cells, min(count, len(cells))):
        pts = k.coords(sid)
        w = [rng.randint(1, 4) if rng.random() < 0.5 else 1 for _ in pts]
        x = tuple(sum(c * wi for c, wi in zip(axis, w)) / F(sum(w)) for axis in zip(*pts))
        if carved.closure_member(x) and not carved.member(x):
            out.append(x)
    return out


def _wall_centers(carved: CarvedSet, count: int) -> list[tuple]:
    """The `saet carve --probe` centers on every unit's inner wall, with their radii."""
    return [(q, min(F(1, 64), d / 2)) for u in carved.units
            for q, d in _wall_probe_points(carved, u, count)]


def _probe_cases():
    """(carved set, center, radius, samples, seed): the walls of the cut and
    punctured 6-grids and of the fixtures, and boundary points of the bare
    and the carved sets of the fixtures and the generated inputs."""
    rng = random.Random(23)
    marked = [grid_cut(6), grid_punctured(6, [(1, 1), (3, 4), (4, 2)]), fixtures.fix_a(),
              fixtures.fix_b(), fixtures.fix_c(), fixtures.fix_c_without_origin(),
              fixtures.punctured_square()]
    generated = [s for _, _, s in _generated_marked_sets()]
    cases = []
    for i, s in enumerate(marked + generated):
        few = i >= len(marked)
        try:
            carved = appropriate_embed(s).carved
        except CertificationFailure:  # the refusals of the carving pin
            carved = None
        walls = [] if carved is None else _wall_centers(carved, 1 if few else 4)
        if few:
            walls = rng.sample(walls, min(1, len(walls)))
        for n, count in ((carved, 1 if few else 2), (CarvedSet(s, []), 2 if few else 3)):
            if n is None:
                continue
            centers = [(q, r) for q, r in walls if n is carved]
            radii = [F(1, 16), F(1, 32), F(1, 64)] + ([F(1, 2), F(1, 4)] if n is not carved else [])
            centers += [(q, rng.choice(radii)) for q in _boundary_centers(n, rng, count)]
            cases += [(n, q, r, rng.choice([8, 16, 32]), rng.randrange(1000))
                      for q, r in centers]
    return cases


def test_integer_probe_matches_the_fraction_probe():
    # every report of the integer probe equals the Fraction reference's,
    # count for count, on walls, rational sphere points and boundary cells
    cases = _probe_cases()
    assert len(cases) > 250
    reports = []
    for n, q, r, samples, seed in cases:
        rep = probe_germ(n, q, r, samples, seed=seed)
        assert rep == probe_germ_reference(n, q, r, samples, seed=seed), (q, r, samples, seed)
        reports.append(rep)
    assert {rep.status for rep in reports} == {probe.CONNECTED, probe.DISCONNECTED,
                                               probe.INCONCLUSIVE}
    assert {len(rep.center) for rep in reports} == {2, 3}
    for count in ("boundary_witnesses", "exits_detected", "outside_count"):
        assert sum(getattr(rep, count) for rep in reports), count
    assert {rep.complement_codim_estimate for rep in reports} >= {"1", ">=2 or empty"}


def test_probe_forms_each_distance_once_and_evaluates_no_affine_form(monkeypatch):
    # a probe writes each unordered pair's squared distance once, for the
    # neighbour pass and every bridging round, and reads the crossing forms
    # as integer rows only
    bare = CarvedSet(fixtures.fix_a(), [])
    emb = appropriate_embed(grid_cut(4)).carved
    cases = [(bare, (F(1, 2), 0), F(1, 32), 40, 5)]
    cases += [(emb, q, r, 32, i) for i, (q, r) in enumerate(_wall_centers(emb, 2))]
    pairs = []
    original = probe._dist_sq

    def counting(a, b):
        pairs.append(frozenset((id(a), id(b))))
        return original(a, b)

    def refused(form, x):
        raise AssertionError("AffineForm evaluated during a probe")

    monkeypatch.setattr(probe, "_dist_sq", counting)
    monkeypatch.setattr(AffineForm, "__call__", refused)
    bridged = 0
    for n, q, r, samples, seed in cases:
        pairs.clear()
        rep = probe_germ(n, q, r, samples, seed=seed)
        m = rep.member_count
        assert len(pairs) == len(set(pairs)) == m * (m - 1) // 2
        bridged += rep.components > 1
    assert bridged  # the disconnected germ runs bridging rounds


@pytest.mark.parametrize("radius", [0.03, True, 1.0])
def test_probe_germ_refuses_a_float_or_bool_radius(fix_a_embedded, radius):
    q = _wall_centers(fix_a_embedded.carved, 1)[0][0]
    with pytest.raises(TypeError):
        probe_germ(fix_a_embedded.carved, q, radius, 16)


@pytest.mark.parametrize("radius, samples, message", [
    (F(0), 16, "radius must be positive, got 0"),
    (F(-1, 32), 16, "radius must be positive, got -1/32"),
    (F(1, 64), 0, "at least 1 sample, got 0"),
    (F(1, 64), -3, "at least 1 sample, got -3"),
])
def test_probe_germ_checks_radius_and_samples(fix_a_embedded, radius, samples, message):
    q = _wall_centers(fix_a_embedded.carved, 1)[0][0]
    with pytest.raises(PreconditionViolated, match=message):
        probe_germ(fix_a_embedded.carved, q, radius, samples)
    with pytest.raises(TypeError):
        probe_germ(fix_a_embedded.carved, q, F(1, 64), 16.0)


def test_predicates_read_unreduced_integer_points(fix_a_embedded):
    # the integer bodies are homogeneous in (q, p): a point written over any
    # positive multiple of its denominator gets the same answers
    carved = fix_a_embedded.carved
    rng = random.Random(9)
    k = carved.base.complex
    for _ in range(200):
        x = (F(rng.randint(-70, 70), 64), F(rng.randint(-70, 70), 64))
        h = homogeneous(x)
        for scale in (1, 3, 2**40 + 1):
            g = tuple(scale * c for c in h)
            assert k.locate_h(g) == k.locate(x)
            assert carved.member_h(g) == carved.member(x)
            assert carved.closure_member_h(g) == carved.closure_member(x)
            for u in carved.units:
                assert u.reaches_h(g) == u.reaches_h(h)
                assert u.removal(g) == u.removal(h)


def _seeded_point(rng, n: int) -> tuple:
    return tuple(F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n))


def test_checkpoints_match_the_fraction_reference():
    # the integer checkpoints are the reference's points a + t (b - a), in
    # its order, from ends in lowest terms or not: with forms vanishing at
    # t = 1/2, 1/3 or 2/5 (where a uniform t may coincide), forms equal at
    # both ends, forms outside (0, 1), and one zero set under two rows
    import probe_reference

    rng = random.Random(31)
    crossings = 0
    for _ in range(400):
        n = rng.choice([2, 3])
        a, b = _seeded_point(rng, n), _seeded_point(rng, n)
        forms = []
        for _ in range(rng.randint(0, 6)):
            grad = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            kind = rng.random()
            if kind < 0.4:
                t = rng.choice([F(1, 2), F(1, 3), F(2, 5), F(7, 3)])
                through = tuple(x + t * (y - x) for x, y in zip(a, b))
                c0 = -sum(g * c for g, c in zip(grad, through))
            elif kind < 0.5:
                grad, c0 = [0] * n, F(rng.randint(-3, 3))
            else:
                c0 = F(rng.randint(-40, 40), rng.randint(1, 6))
            forms.append(AffineForm(c0, grad))
            if rng.random() < 0.2:
                forms.append(forms[-1].scale(F(-3, 2)))
        scale = rng.choice([1, 1, 7])
        ha, hb = (tuple(scale * c for c in homogeneous(x)) for x in (a, b))
        rows = [homogeneous((f.c0, *f.c))[1:] for f in forms]
        fa, fb = ([sum(r * c for r, c in zip(row, h)) for row in rows] for h in (ha, hb))
        got = [tuple(F(c, h[0]) for c in h[1:]) for h in probe._checkpoints(ha, hb, fa, fb)]
        ts = probe_reference._checkpoints(a, b, forms)
        assert got == [tuple(x + t * (y - x) for x, y in zip(a, b)) for t in ts]
        crossings += len(ts) - 4
    assert crossings > 300


def test_meeting_rows_match_the_fraction_reference():
    # a row is kept exactly when its form f has f(c)^2 <= r^2 |grad f|^2,
    # the reference's test; tangent zero sets, at distance r, are kept
    rng = random.Random(37)
    kept = tangent = 0
    for _ in range(300):
        n = rng.choice([2, 3])
        center = _seeded_point(rng, n)
        radius = F(1, rng.choice([4, 16, 64]))
        # gradients of rational length, so that some zero sets touch the ball
        triple, norm = rng.choice([((3, 4), 5), ((0, 1), 1), ((5, 12), 13)] if n == 2 else
                                  [((1, 2, 2), 3), ((2, 3, 6), 7), ((0, 0, 1), 1)])
        k = rng.randint(1, 3)
        grad = [F(c, k) for c in triple]
        offset = rng.choice([radius, -radius, radius * F(rng.randint(0, 8), 4)])
        c0 = -sum(g * c for g, c in zip(grad, center)) + offset * F(norm, k)
        form = AffineForm(c0, grad)
        fc = form(center)
        want = fc * fc <= radius * radius * sum(g * g for g in grad)
        row = homogeneous((form.c0, *form.c))[1:]
        scale = rng.choice([1, 5])
        got = probe._meeting_rows([row], tuple(scale * c for c in homogeneous(center)), radius)
        assert got == ([row] if want else [])
        kept += want
        tangent += want and fc * fc == radius * radius * sum(g * g for g in grad)
    assert 0 < kept < 300 and tangent > 20


def test_probe_points_mostly_skip_the_bucket_search(monkeypatch):
    # the probes of the carved 6-grid cut locate 7908 points, and each
    # starts from the top that held the last one; 538 of them (6.8%) fall
    # back to the bucket search, where every point took it before
    from saet import complexes

    carved = appropriate_embed(grid_cut(6)).carved
    cases = _wall_centers(carved, 2)
    queries, searches = [], []
    locate_top, candidates = complexes.Complex.locate_top, complexes._BucketGrid.candidates

    def counting_locate(k, h, hint=None):
        queries.append(h)
        return locate_top(k, h, hint)

    def counting_search(grid, h):
        searches.append(h)
        return candidates(grid, h)

    monkeypatch.setattr(complexes.Complex, "locate_top", counting_locate)
    monkeypatch.setattr(complexes._BucketGrid, "candidates", counting_search)
    for i, (q, r) in enumerate(cases):
        probe_germ(carved, q, r, 32, seed=i)
    assert len(cases) == 24 and len(queries) > 7000
    assert 10 * len(searches) <= len(queries)
