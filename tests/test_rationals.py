import random
from fractions import Fraction
from fractions import Fraction as F
from typing import Sequence

import pytest

from saet import lp, metric, rationals, verify
from saet.carve import _rational_normal, appropriate_embed
from saet.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, linear_feasible, solve_max
from saet.rationals import dot, invert, rank, rat, rational_sqrt, solve
from saet.tubes import Tube
from test_carve import cut_cube, grid_cut


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


def test_int_entries_give_fractions():
    x = solve([[2, 0], [0, 3]], [1, 1])
    assert x == [F(1, 2), F(1, 3)] and all(type(v) is Fraction for v in x)
    inv = invert([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]] and all(type(v) is Fraction for row in inv for v in row)
    assert solve([["1/2"]], ["1/3"]) == [F(2, 3)]


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        solve([[2.0, 0], [0, 3]], [1, 1])
    with pytest.raises(TypeError):
        solve([[2, 0], [0, 3]], [1, 0.5])
    with pytest.raises(TypeError):
        invert([[1.5]])
    with pytest.raises(TypeError):
        rank([[1, 0.25]])


def test_non_square_or_ragged_rejected():
    with pytest.raises(ValueError):
        solve([[1, 0, 0], [0, 1, 0]], [1, 2])
    with pytest.raises(ValueError):
        solve([[1, 0], [0, 1]], [1, 2, 3])
    with pytest.raises(ValueError):
        solve([[1, 0], [0]], [1, 2])
    with pytest.raises(ValueError):
        invert([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        invert([[1, 2], [3]])
    with pytest.raises(ValueError):
        rank([[1, 2], [3]])


def test_solve_max_without_constraints():
    assert solve_max([1, 1], [], []) == (UNBOUNDED, None, None)
    assert solve_max([0, -1], [], []) == (OPTIMAL, 0, [0, 0])
    assert solve_max([], [], []) == (OPTIMAL, 0, [])
    assert linear_feasible(2, [], []) == [0, 0]


def test_solve_max_rejects_ragged_input():
    with pytest.raises(ValueError):
        solve_max([1, 1], [[1, 1, 1]], [1])
    with pytest.raises(ValueError):
        solve_max([1, 1], [[1, 1], [1]], [1, 1])
    with pytest.raises(ValueError):
        solve_max([1, 1], [[1, 1]], [1, 2])
    with pytest.raises(ValueError):
        solve_max([1, 1], [[1, 1]], [])


# ---------------------------------------------------------------------------
# differential tests against the Fraction Gauss-Jordan kernel the integer
# kernel replaced; the reference bodies below are that code, unchanged


def fraction_pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss–Jordan step, in place: scale row r so that rows[r][c] == 1,
    then clear column c from every other row."""
    inv = 1 / rows[r][c]
    prow = rows[r] = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [x - f * y for x, y in zip(row, prow)]


def fraction_rref(rows: list[list[Fraction]], ncols: int) -> int:
    """Reduce rows in place to reduced row echelon form over their first
    ncols columns, pivoting on the first nonzero entry; return the rank."""
    rk = 0
    for c in range(ncols):
        if rk == len(rows):
            break
        p = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[rk], rows[p] = rows[p], rows[rk]
        fraction_pivot(rows, rk, c)
        rk += 1
    return rk


def fraction_solve(matrix, rhs):
    n = len(matrix)
    a = [list(row) + [r] for row, r in zip(matrix, rhs, strict=True)]
    if fraction_rref(a, n) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n] for row in a]


def fraction_invert(matrix):
    n = len(matrix)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    if fraction_rref(a, n) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a]


def fraction_rank(rows):
    a = [list(r) for r in rows]
    return fraction_rref(a, len(a[0])) if a else 0


def fraction_lp(pivots: list):
    """The Fraction two-phase simplex, recording each pivot (row, column)."""

    def pivot(tableau, r, c):
        pivots.append((r, c))
        fraction_pivot(tableau, r, c)

    def _simplex(tableau, basis, cost):
        """Maximize; returns status. tableau rows are constraints, last col rhs."""
        m = len(tableau)
        width = len(tableau[0]) - 1
        while True:
            # reduced costs: c_j - c_B . B^{-1} A_j
            reduced = []
            for j in range(width):
                rj = cost[j] - sum(cost[basis[r]] * tableau[r][j] for r in range(m))
                reduced.append(rj)
            enter = next((j for j in range(width) if reduced[j] > 0), None)  # Bland
            if enter is None:
                return OPTIMAL
            ratios = [
                (tableau[r][width] / tableau[r][enter], basis[r], r)
                for r in range(m)
                if tableau[r][enter] > 0
            ]
            if not ratios:
                return UNBOUNDED
            _, _, leave = min(ratios)  # ties broken by smallest basis index (Bland)
            pivot(tableau, leave, enter)
            basis[leave] = enter

    def solve_max(
        c: Sequence, a_eq: Sequence[Sequence], b_eq: Sequence
    ) -> tuple[str, Fraction | None, list[Fraction] | None]:
        """Maximize c.x subject to a_eq x = b_eq, x >= 0 (all exact rationals)."""
        c = [rat(x) for x in c]
        rows = [[rat(x) for x in row] for row in a_eq]
        rhs = [rat(x) for x in b_eq]
        n = len(c)
        m = len(rows)
        for i in range(m):
            if rhs[i] < 0:
                rows[i] = [-x for x in rows[i]]
                rhs[i] = -rhs[i]
        # phase 1: artificials
        tableau = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
        basis = [n + i for i in range(m)]
        p1_cost = [Fraction(0)] * n + [Fraction(-1)] * m
        status = _simplex(tableau, basis, p1_cost)
        assert status == OPTIMAL  # phase 1 is always bounded
        infeas = -sum(p1_cost[basis[r]] * tableau[r][-1] for r in range(m))
        if infeas != 0:
            return INFEASIBLE, None, None
        # drive artificials out of the basis when possible; drop their columns
        for r in range(m):
            if basis[r] >= n:
                col = next((j for j in range(n) if tableau[r][j] != 0), None)
                if col is not None:
                    pivot(tableau, r, col)
                    basis[r] = col
        keep = [r for r in range(m) if basis[r] < n]
        tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]
        status = _simplex(tableau, basis, c)
        if status != OPTIMAL:
            return status, None, None
        x = [Fraction(0)] * n
        for r, b in enumerate(basis):
            x[b] = tableau[r][-1]
        value = sum(ci * xi for ci, xi in zip(c, x))
        return OPTIMAL, value, x

    return solve_max


def _entry(rng):
    return F(rng.choice([0, 0, 0, 1, 1, -1, 2, -2, 3, -3]), rng.choice([1, 1, 1, 2, 3]))


def _random_lp(rng):
    """A small LP with many zeros, zero right-hand sides (degenerate ratio
    ties) and, sometimes, a repeated or negated equation."""
    n, m = rng.randint(1, 6), rng.randint(1, 4)
    a = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    b = [rng.choice([F(0), F(0), F(1), F(2), F(-1), F(3, 2)]) for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        k = rng.randrange(m - 1)
        sign = rng.choice([1, -1, 2])
        a[-1], b[-1] = [sign * x for x in a[k]], sign * b[k]
    c = [_entry(rng) for _ in range(n)]
    return c, a, b


def _both_lps(monkeypatch, c, a, b):
    got_pivots, want_pivots = [], []

    def recording(rows, r, col):
        got_pivots.append((r, col))
        rationals.pivot(rows, r, col)

    with monkeypatch.context() as mp:
        mp.setattr(lp, "pivot", recording)
        got = solve_max(c, a, b)
    try:
        want = fraction_lp(want_pivots)(c, a, b)
    except IndexError:
        # the reference fails when phase 1 leaves no row (every equation
        # 0 = 0); the LP is then the one without equations
        assert all(x == 0 for row in a for x in row) and all(x == 0 for x in b)
        want = solve_max(c, [], [])
    return got, want, got_pivots, want_pivots


def test_lp_matches_fraction_simplex(monkeypatch):
    rng = random.Random(14)
    statuses, ties = {}, 0
    for _ in range(600):
        c, a, b = _random_lp(rng)
        got, want, got_pivots, want_pivots = _both_lps(monkeypatch, c, a, b)
        assert got == want, (c, a, b)
        assert got_pivots == want_pivots, (c, a, b)
        statuses[got[0]] = statuses.get(got[0], 0) + 1
        ties += sum(x == 0 for x in b) >= 2 and len(want_pivots) > 0
    assert min(statuses.get(s, 0) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 30, statuses
    assert ties >= 50


def test_lp_matches_fraction_simplex_on_known_ties(monkeypatch):
    # Beale's cycling example (cycles under Dantzig's rule, not under Bland's),
    # with slacks: two zero right-hand sides, so ratio tests tie at 0
    c = [F(3, 4), -150, F(1, 50), -6, 0, 0, 0]
    a = [[F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
         [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
         [0, 0, 1, 0, 0, 0, 1]]
    b = [0, 0, 1]
    got, want, got_pivots, want_pivots = _both_lps(monkeypatch, c, a, b)
    assert got == want and got[0] == OPTIMAL and got[1] == F(1, 20)
    assert got_pivots == want_pivots and len(got_pivots) > 3


def test_separating_planes_match_fraction_simplex(monkeypatch):
    # every plane the carvings of the 8x8 cut grid and the 2x2x2 cut cube
    # and the full verify suite certify with is the plane the Fraction
    # simplex finds
    reference = fraction_lp([])
    original = metric.separating_hyperplane
    planes = []

    def both(simplex1, simplex2):
        h = original(simplex1, simplex2)
        with monkeypatch.context() as mp:
            mp.setattr(lp, "solve_max", reference)
            want = original(simplex1, simplex2)
        assert h.form == want.form
        planes.append(h)
        return h

    monkeypatch.setattr(metric, "separating_hyperplane", both)
    monkeypatch.setattr(verify, "separating_hyperplane", both)
    appropriate_embed(grid_cut(8))
    appropriate_embed(cut_cube(2))
    n_carve = len(planes)
    verify.run_suite("full")
    assert n_carve >= 100 and len(planes) > n_carve


def _random_square(rng, n, singular):
    a = [[_entry(rng) for _ in range(n)] for _ in range(n)]
    if singular and n > 1:
        i, j = rng.sample(range(n), 2)
        k = F(rng.randint(-3, 3), rng.randint(1, 3))
        a[i] = [k * x for x in a[j]]
    return a


def test_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(1968)
    singular_seen = 0
    for n in range(1, 6):
        for trial in range(60):
            a = _random_square(rng, n, singular=trial % 3 == 0)
            b = [_entry(rng) for _ in range(n)]
            r = rank(a)
            assert r == fraction_rank(a)
            assert rank(a[: n - 1] + [b]) == fraction_rank(a[: n - 1] + [b])
            if r < n:
                singular_seen += 1
                with pytest.raises(ZeroDivisionError):
                    solve(a, b)
                with pytest.raises(ZeroDivisionError):
                    invert(a)
                continue
            x, inv = solve(a, b), invert(a)
            assert x == fraction_solve(a, b)
            assert inv == fraction_invert(a)
            assert all(type(v) is Fraction for v in x)
            assert all(type(v) is Fraction for row in inv for v in row)
    assert singular_seen > 60


def test_rank_matches_fraction_gauss_jordan_on_wide_rows():
    rng = random.Random(1967)
    for _ in range(100):
        width = rng.randint(1, 5)
        rows = [[_entry(rng) for _ in range(width)] for _ in range(rng.randint(1, 5))]
        assert rank(rows) == fraction_rank(rows)


def test_elimination_matches_sympy():
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
    rng = random.Random(1309)
    for n in range(1, 6):
        for trial in range(8):
            a = _random_square(rng, n, singular=trial % 4 == 0)
            m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                              for row in a])
            assert rank(a) == m.rank()
            if m.rank() < n:
                continue
            want = m.inv()
            assert invert(a) == [[F(int(want[i, j].p), int(want[i, j].q)) for j in range(n)]
                                 for i in range(n)]
