"""Exact rational linear programming (dense two-phase simplex, Bland's rule).

Small and deterministic; used for strict separating hyperplanes and as the
fallback of the glue check ``geometry.common_face``, which tries separating
planes first and leaves to ``intersection_excess`` only the pairs no plane
certifies; the LP is the one way that check rejects.  Tableau pivots go through
``rationals.pivot``, exactly over Fractions, so feasibility and optimality
answers carry no tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rationals import pivot, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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
    # y = u - v with u, v >= 0, plus one slack per inequality
    n_ineq = len(lower_bounds)
    a_eq, b_eq = [], []
    for coeffs, b in equalities:
        coeffs = [rat(x) for x in coeffs]
        a_eq.append(coeffs + [-x for x in coeffs] + [Fraction(0)] * n_ineq)
        b_eq.append(rat(b))
    for i, (coeffs, b) in enumerate(lower_bounds):
        coeffs = [rat(x) for x in coeffs]
        slack = [Fraction(0)] * n_ineq
        slack[i] = Fraction(-1)
        a_eq.append(coeffs + [-x for x in coeffs] + slack)
        b_eq.append(rat(b))
    n_total = 2 * n_unknowns + n_ineq
    status, _, x = solve_max([Fraction(0)] * n_total, a_eq, b_eq)
    if status != OPTIMAL:
        return None
    return [x[i] - x[n_unknowns + i] for i in range(n_unknowns)]
