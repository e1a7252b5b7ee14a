"""Generated complexes for the tests, as (vertices, top simplices) pairs
for ``build_complex``: grids, Kuhn cube grids, wedge stacks, a polyline, a
grid placed flat in R^3, and seeded perturbations of small grids and wedge
stacks.  A plain
module, with no optional dependency, so that every test module can import
it."""

from __future__ import annotations

import random
from itertools import permutations
from fractions import Fraction as F


def grid_tops(n: int):
    """The n x n unit grid, each square split along its rising diagonal."""
    verts = [(F(i, n), F(j, n)) for j in range(n + 1) for i in range(n + 1)]
    tops = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            tops += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
    return verts, tops


def kuhn_cube_tops(n: int):
    """The n x n x n unit cube grid, each cube split into the 6 tetrahedra
    of its Kuhn triangulation: one per order of the axes, along the path
    from the cube's low corner to its high corner that steps one axis at a
    time.  Every cube is split the same way, so the tetrahedra glue along
    common faces."""
    verts = [(F(i, n), F(j, n), F(k, n))
             for k in range(n + 1) for j in range(n + 1) for i in range(n + 1)]
    steps = (1, n + 1, (n + 1) ** 2)
    tops = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                a = i + j * steps[1] + k * steps[2]
                for order in permutations(steps):
                    path = [a]
                    for step in order:
                        path.append(path[-1] + step)
                    tops.append(tuple(path))
    return verts, tops


def wedge_stack_tops(prisms: int):
    """Wedge prisms over 0 <= y <= x <= 1 stacked along z, three tetrahedra each."""
    verts, tops = [], []
    for z in range(prisms + 1):
        verts += [(F(0), F(0), F(z)), (F(1), F(0), F(z)), (F(1), F(1), F(z))]
    for lv in range(prisms):
        a, b, c = 3 * lv, 3 * lv + 1, 3 * lv + 2
        tops += [(a, b, c, c + 3), (a, b, b + 3, c + 3), (a, a + 3, b + 3, c + 3)]
    return verts, tops


def polyline_tops(edges: int):
    """A zigzag path of edges in R^2: a 1-D complex with empty interior."""
    verts = [(F(i, edges), F(i % 2, 3)) for i in range(edges + 1)]
    return verts, [(i, i + 1) for i in range(edges)]


def flat_grid_tops(n: int):
    """The n x n grid placed in the plane z = 1/2 of R^3 (zero z extent)."""
    verts, tops = grid_tops(n)
    return [p + (F(1, 2),) for p in verts], tops


def perturbed_complex(seed: int):
    """The input of test_broad_phase_matches_all_pairs for one seed: a 3 x 3
    grid or 3-prism wedge stack with one vertex moved toward the centroid,
    part of the way, all of it or past it, and the tops shuffled."""
    rng = random.Random(seed)
    verts, tops = grid_tops(3) if seed % 2 == 0 else wedge_stack_tops(3)
    centroid = [sum(axis) / len(verts) for axis in zip(*verts)]
    step = F(rng.randint(1, 12), 8)
    v = rng.randrange(len(verts))
    verts[v] = tuple(c + step * (m - c) + F(rng.randint(-4, 4), 64)
                     for c, m in zip(verts[v], centroid))
    rng.shuffle(tops)
    return verts, tops
