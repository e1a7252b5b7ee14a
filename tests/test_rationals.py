import random
from fractions import Fraction as F

import pytest

from saet.carve import _rational_normal
from saet.lp import OPTIMAL, linear_feasible, solve_max
from saet.rationals import dot, invert, rank, rational_sqrt, solve
from saet.tubes import Tube


def _random_matrix(rng, n):
    return [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def _mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_invert_and_solve_random():
    rng = random.Random(1309)
    nonsingular = 0
    for n in range(1, 5):
        for _ in range(25):
            a = _random_matrix(rng, n)
            b = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            if rank(a) < n:
                with pytest.raises(ZeroDivisionError):
                    invert(a)
                continue
            nonsingular += 1
            ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            assert _mat_mul(invert(a), a) == ident
            x = solve(a, b)
            assert [dot(tuple(row), tuple(x)) for row in a] == b
    assert nonsingular > 80


def test_rank_of_dependent_rows():
    a = (F(1), F(2), F(-1))
    b = (F(0), F(1, 3), F(5))
    rows = [a, b, tuple(x + y for x, y in zip(a, b)), tuple(2 * x for x in a)]
    assert rank(rows) == 2
    assert rank(rows[:1]) == 1
    assert rank([(F(0), F(0))] * 3) == 0
    assert rank([]) == 0


def test_singular_input_raises():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(ZeroDivisionError):
        solve(a, [F(1), F(2)])
    with pytest.raises(ZeroDivisionError):
        invert(a)


def test_solve_max_known_optimum():
    # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6  (slacks s1, s2)
    status, value, x = solve_max(
        [1, 1, 0, 0], [[1, 2, 1, 0], [3, 1, 0, 1]], [4, 6]
    )
    assert status == OPTIMAL
    assert value == F(14, 5)
    assert x[:2] == [F(8, 5), F(6, 5)]


def test_rational_normal_on_fix_a_tubes(fix_a_embedded):
    tubes = [u.inner for u in fix_a_embedded.carved.units if not u.is_ball]
    assert tubes
    for tube in tubes:
        normal, length = _rational_normal(tube)
        assert any(c != 0 for c in normal)
        assert all(dot(normal, e) == 0 for e in tube.geometry.edges)
        assert length * length == dot(normal, normal)


def test_rational_normal_rational_length():
    normal, length = _rational_normal(Tube([(0, 0), (4, -3)], F(1, 5)))
    assert normal == (1, F(4, 3)) and length == F(5, 3)


def test_rational_normal_none():
    assert _rational_normal(Tube([(0, 0), (1, 2)], F(1, 5))) is None  # length sqrt(5)
    assert _rational_normal(Tube([(0, 0, 0), (1, 0, 0)], F(1, 5))) is None  # codim 2


def _lp_normal(tube):
    """The first normal the pinned LP finds: the independent route."""
    n = tube.ff.n
    eqs = [(list(e), F(0)) for e in tube.geometry.edges]
    for k in range(n):
        pin = [F(int(j == k)) for j in range(n)]
        sol = linear_feasible(n, eqs + [(pin, F(1))], [])
        if sol is not None:
            return tuple(sol)
    return None


def test_rational_normal_matches_lp():
    rng = random.Random(3743)
    checked = 0
    for n in (2, 3):
        for _ in range(30):
            pts = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)]
            edges = [tuple(a - b for a, b in zip(p, pts[-1])) for p in pts[:-1]]
            if rank(edges) < n - 1:
                continue
            tube = Tube(pts, F(1, 5))
            want = _lp_normal(tube)
            found = _rational_normal(tube)
            if found is None:
                assert rational_sqrt(dot(want, want)) is None
            else:
                assert found[0] == want
                checked += 1
    assert checked > 10


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(49)) == 7
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(1, 2)) is None
    assert rational_sqrt(F(4, 3)) is None
    assert rational_sqrt(F(-4)) is None
