"""Exact rational linear programming (dense two-phase simplex, Bland's rule).

Small and deterministic; used for strict separating hyperplanes and as the
fallback of the glue check ``geometry.common_face``, which tries separating
planes first and leaves to ``intersection_excess`` only the pairs no plane
certifies; the LP is the one way that check rejects.  The tableau holds
Python ints: each row, the reduced-cost row included, is a positive multiple
of the rational row it stands for, and pivots go through the fraction-free
step ``rationals.pivot``.  Signs and the ratio test read the integers
(cross-multiplied), so the pivots and the vertex are those of the rational
tableau, and feasibility and optimality answers carry no tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .rationals import homogeneous, pivot, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _simplex(rows: list[list[int]], basis: list[int]) -> str:
    """Maximize; returns status.

    ``rows`` holds the len(basis) constraint rows, then any rows carried
    along, then the reduced-cost row; the last column is the right-hand
    side.  The entering column is the first with a positive reduced cost
    (Bland); the leaving row has the least ratio rhs/a over a > 0, ties to
    the smallest basis index.
    """
    m = len(basis)
    width = len(rows[-1]) - 1
    while True:
        cost = rows[-1]
        enter = next((j for j in range(width) if cost[j] > 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        for r in range(m):
            a = rows[r][enter]
            if a <= 0:
                continue
            rhs = rows[r][width]
            # rhs/a against the least ratio so far, by cross-multiplication
            if leave is None or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and basis[r] < basis[leave]):
                leave, best_rhs, best_a = r, rhs, a
        if leave is None:
            return UNBOUNDED
        pivot(rows, leave, enter)
        basis[leave] = enter


def _exact(x):
    """x itself when it is an int or a Fraction, whose numerator and
    denominator ``homogeneous`` reads directly; else ``rat(x)``."""
    return x if type(x) is Fraction or type(x) is int else rat(x)


def solve_max(
    c: Sequence, a_eq: Sequence[Sequence], b_eq: Sequence
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize c.x subject to a_eq x = b_eq, x >= 0 (all exact rationals).

    Raises ValueError when a row of a_eq is not as long as c or b_eq is not
    as long as a_eq.
    """
    c = [*map(_exact, c)]
    n = len(c)
    m = len(a_eq)
    if len(b_eq) != m:
        raise ValueError(f"{len(b_eq)} right-hand sides for {m} equations")
    if any(len(row) != n for row in a_eq):
        raise ValueError(f"every equation needs {n} coefficients")
    # row i: (a_i | e_i | b_i) with b_i >= 0, times the lcm q of its denominators
    rows = []
    for i, (row, b) in enumerate(zip(a_eq, b_eq)):
        q, *ints = homogeneous([*map(_exact, row), _exact(b)])
        if ints[-1] < 0:
            ints = [-x for x in ints]
        rows.append(ints[:n] + [q if j == i else 0 for j in range(m)] + ints[n:])
    # phase 2 costs (c, 0), carried through phase 1 and the drive-out
    p2_cost = list(homogeneous(c)[1:]) + [0] * (m + 1)
    # phase 1 reduced costs: the sum of the rational rows, 0 on artificials;
    # row i is row[n + i] times its rational row
    scale = lcm(*(row[n + i] for i, row in enumerate(rows)))
    p1_cost = [0] * (n + m + 1)
    for i, row in enumerate(rows):
        k = scale // row[n + i]
        p1_cost = [x + k * y for x, y in zip(p1_cost, row)]
    p1_cost[n:n + m] = [0] * m
    tableau = rows + [p2_cost, p1_cost]
    basis = [n + i for i in range(m)]
    status = _simplex(tableau, basis)
    assert status == OPTIMAL  # phase 1 is always bounded
    if tableau.pop()[-1] != 0:  # a positive multiple of the total artificial value
        return INFEASIBLE, None, None
    # drive artificials out of the basis when possible; drop their columns
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                pivot(tableau, r, col)
                basis[r] = col
    keep = [r for r in range(m) if basis[r] < n]
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep + [m]]
    basis = [basis[r] for r in keep]
    status = _simplex(tableau, basis)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        x[b] = Fraction(tableau[r][-1], tableau[r][b])
    value = sum((c[b] * x[b] for b in basis if c[b]), Fraction(0))
    return OPTIMAL, value, x


def intersection_excess(
    verts1: Sequence[Sequence[Fraction]],
    verts2: Sequence[Sequence[Fraction]],
    shared1: Sequence[int],
    shared2: Sequence[int],
) -> Fraction | None:
    """Max total barycentric mass on non-shared vertices over conv1 ∩ conv2.

    None when the hulls are disjoint; 0 exactly when the intersection is the
    face spanned by the shared vertices.
    """
    n = len(verts1[0])
    k1, k2 = len(verts1), len(verts2)
    a_eq, b_eq = [], []
    for coord in range(n):
        a_eq.append([v[coord] for v in verts1] + [-w[coord] for w in verts2])
        b_eq.append(Fraction(0))
    a_eq.append([Fraction(1)] * k1 + [Fraction(0)] * k2)
    b_eq.append(Fraction(1))
    a_eq.append([Fraction(0)] * k1 + [Fraction(1)] * k2)
    b_eq.append(Fraction(1))
    cost = [Fraction(int(i not in shared1)) for i in range(k1)]
    cost += [Fraction(int(j not in shared2)) for j in range(k2)]
    status, value, _ = solve_max(cost, a_eq, b_eq)
    if status == INFEASIBLE:
        return None
    assert status == OPTIMAL  # feasible region is a polytope
    return value


def linear_feasible(
    n_unknowns: int,
    equalities: Sequence[tuple[Sequence, Fraction]],
    lower_bounds: Sequence[tuple[Sequence, Fraction]],
) -> list[Fraction] | None:
    """Find y in Q^n with a.y = b for equalities and a.y >= b for bounds.

    Unknowns are free; returns None when infeasible.
    """
    # y = u - v with u, v >= 0, plus one slack per inequality; ints stay ints
    n_ineq = len(lower_bounds)
    a_eq, b_eq = [], []
    for i, (coeffs, b) in enumerate([*equalities, *lower_bounds]):
        coeffs = [*map(_exact, coeffs)]
        slack = [0] * n_ineq
        if i >= len(equalities):
            slack[i - len(equalities)] = -1
        a_eq.append(coeffs + [-x for x in coeffs] + slack)
        b_eq.append(_exact(b))
    status, _, x = solve_max([0] * (2 * n_unknowns + n_ineq), a_eq, b_eq)
    if status != OPTIMAL:
        return None
    return [x[i] - x[n_unknowns + i] for i in range(n_unknowns)]
