"""Seeded inputs for the saet benchmark.

Every workload is a marked complex and a function on it.  Both are written
as JSON with ``saet.io``, the format the ``saet`` command line reads, and the
benchmark loads them back through ``saet.io`` exactly as the CLI does.  The
seed moves the punctures of ``grid-puncture`` and every query point; the
complexes of the other workloads do not depend on it.

Query inputs (path germs, member-test points, probe points) and the exact
values the answers are checked against are computed here, with plain
``Fraction`` arithmetic and ``math.isqrt``, never with ``saet`` helpers.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from saet import PLSet, build_complex, io
from saet.extend import PLFFunction, RatioForm
from saet.fixtures import interpolated_pl_function, square_complex
from saet.rationals import AffineForm

# full sizes and the smoke sizes used by smoke.py
FULL = {"grid-cut": 8, "grid-puncture": 6, "wedge-stack-3d": 16, "corpus-verify": 0}
SMOKE = {"grid-cut": 2, "grid-puncture": 4, "wedge-stack-3d": 2, "corpus-verify": 0}

_HALF = Fraction(1, 2)


@dataclass
class Inputs:
    """One workload's generated inputs and what the answers must be."""

    name: str
    complex_path: str
    function_path: str
    # f(c + t v) = a + b t + O(t^2): the exact (a, b) for a germ (c, v)
    germ_value: object
    # box in which member-test points are drawn, one (lo, hi) per axis
    box: tuple
    # ids of the complex's vertices that are punctures (grid-puncture)
    punctures: tuple = ()
    # point -> value of f at a vertex, for the extension-value gate
    point_value: object = None
    digests: dict = field(default_factory=dict)


def _save(k, marked, f, workdir: str, name: str) -> tuple[str, str]:
    os.makedirs(workdir, exist_ok=True)
    cpath = os.path.join(workdir, f"{name}.complex.json")
    fpath = os.path.join(workdir, f"{name}.function.json")
    io.save_complex(cpath, k, marked)
    io.save_function(fpath, f)
    return cpath, fpath


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def grid_complex(n: int):
    """The n x n unit grid, each square split along its rising diagonal."""
    verts = [(Fraction(i, n), Fraction(j, n)) for j in range(n + 1) for i in range(n + 1)]
    tops = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c = a + 1, a + n + 1
            tops += [(a, b, c + 1), (a, c + 1, c)]
    return build_complex(verts, tops, validate=False)


def _vertex_values(k, linear):
    return {vid: linear(p) for vid, p in enumerate(k.vertices)}


def grid_cut(n: int, seed: int, workdir: str) -> Inputs:
    """Grid minus the segment y = 1/2 (n even); f interpolates x."""
    del seed  # the complex is fixed; the seed only moves the queries
    k = grid_complex(n)
    members = [
        sid for sid, s in enumerate(k.simplices)
        if not all(k.vertices[v][1] == _HALF for v in s.vertex_ids)
    ]
    m = PLSet(k, members)
    f = interpolated_pl_function(m, _vertex_values(k, lambda p: p[0]))
    cpath, fpath = _save(k, m, f, workdir, "grid-cut")
    return Inputs(
        "grid-cut", cpath, fpath,
        germ_value=lambda c, v: (c[0], v[0]),
        box=((Fraction(0), Fraction(1)),) * 2,
        point_value=lambda p: p[0],
    )


def _grid_neighbours(i: int, j: int, n: int) -> set:
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
    return {(i + a, j + b) for a, b in steps}


def grid_puncture(n: int, seed: int, workdir: str, count: int = 3) -> Inputs:
    """Grid minus `count` seeded interior vertices, no two joined by an
    edge; f interpolates x + 2y."""
    rng = random.Random(seed)
    interior = [(i, j) for j in range(1, n) for i in range(1, n)]
    while True:
        picks = sorted(rng.sample(interior, count))
        if all(q not in _grid_neighbours(*p, n) for p in picks for q in picks):
            break
    k = grid_complex(n)
    holes = {k.id_of((j * (n + 1) + i,)) for i, j in picks}
    m = PLSet(k, set(range(len(k.simplices))) - holes)
    f = interpolated_pl_function(m, _vertex_values(k, lambda p: p[0] + 2 * p[1]))
    cpath, fpath = _save(k, m, f, workdir, "grid-puncture")
    return Inputs(
        "grid-puncture", cpath, fpath,
        germ_value=lambda c, v: (c[0] + 2 * c[1], v[0] + 2 * v[1]),
        box=((Fraction(0), Fraction(1)),) * 2,
        punctures=tuple(sorted(holes)),
        point_value=lambda p: p[0] + 2 * p[1],
    )


def wedge_stack(prisms: int, seed: int, workdir: str) -> Inputs:
    """`prisms` wedge prisms over 0 <= y <= x <= 1 stacked for z in [-1, 1]
    (prisms even, so the origin is a vertex); marked on the open wedge
    0 < y < x plus the origin; f = z (x - y) / x, 0 at the origin."""
    del seed
    verts, tops = [], []
    for lv in range(prisms + 1):
        z = Fraction(2 * lv, prisms) - 1
        verts += [(Fraction(0), Fraction(0), z), (Fraction(1), Fraction(0), z),
                  (Fraction(1), Fraction(1), z)]
    for lv in range(prisms):
        a, b, c = 3 * lv, 3 * lv + 1, 3 * lv + 2
        a1, b1, c1 = a + 3, b + 3, c + 3
        tops += [(a, b, c, c1), (a, b, b1, c1), (a, a1, b1, c1)]
    k = build_complex(verts, tops, validate=False)
    origin = k.id_of((verts.index((0, 0, 0)),))
    members = {origin}
    for sid, s in enumerate(k.simplices):
        pts = [k.vertices[v] for v in s.vertex_ids]
        x = sum(p[0] for p in pts) / len(pts)
        y = sum(p[1] for p in pts) / len(pts)
        if 0 < y < x:
            members.add(sid)
    m = PLSet(k, members)
    x_, y_, z_ = (AffineForm.coordinate(i, 3) for i in range(3))
    pieces = {
        sid: RatioForm.constant(0, 3) if sid == origin else RatioForm([z_, x_ - y_], x_)
        for sid in members
    }
    f = PLFFunction(m, pieces, validate_continuity=False)
    cpath, fpath = _save(k, m, f, workdir, "wedge-stack-3d")
    return Inputs(
        "wedge-stack-3d", cpath, fpath,
        germ_value=_wedge_germ_value,
        box=((Fraction(0), Fraction(1)),) * 2 + ((Fraction(-1), Fraction(1)),),
    )


def _wedge_germ_value(c, v):
    """(a, b) with z(x - y)/x = a + b t + O(t^2) along c + t v."""
    cx, cy, cz = c
    vx, vy, vz = v
    if cx == 0:  # on the z-axis: x and x - y both vanish at t = 0
        ratio = Fraction(vx - vy, vx)
        return cz * ratio, vz * ratio
    u = cx - cy
    a = cz * u / cx
    b = (vz * u + cz * (vx - vy)) / cx - cz * u * vx / (cx * cx)
    return a, b


def corpus(n: int, seed: int, workdir: str) -> Inputs:
    """The bundled fix_a square (minus the x-axis, plus the origin); f
    interpolates x.  The session on it is tiny; the workload's weight is
    the repeated verify suite."""
    del n, seed
    k = square_complex()
    on_axis = {
        i for i, s in enumerate(k.simplices)
        if all(k.vertices[v][1] == 0 for v in s.vertex_ids)
    }
    m = PLSet(k, (set(range(len(k.simplices))) - on_axis) | {k.id_of((0,))})
    f = interpolated_pl_function(m, _vertex_values(k, lambda p: p[0]))
    cpath, fpath = _save(k, m, f, workdir, "corpus-verify")
    return Inputs(
        "corpus-verify", cpath, fpath,
        germ_value=lambda c, v: (c[0], v[0]),
        box=((Fraction(-1), Fraction(1)),) * 2,
        point_value=lambda p: p[0],
    )


GENERATORS = {
    "grid-cut": grid_cut,
    "grid-puncture": grid_puncture,
    "wedge-stack-3d": wedge_stack,
    "corpus-verify": corpus,
}


def generate(name: str, seed: int, workdir: str, smoke: bool = False) -> Inputs:
    size = (SMOKE if smoke else FULL)[name]
    inputs = GENERATORS[name](size, seed, workdir)
    inputs.digests = {
        "complex_sha256": sha256_of(inputs.complex_path),
        "function_sha256": sha256_of(inputs.function_path),
    }
    return inputs


# --- seeded queries -----------------------------------------------------------


def stratified_points(rng: random.Random, box, per_axis: int, keep=None,
                      tries: int = 2, den: int = 256) -> list[tuple]:
    """One seeded rational point strictly inside each of the per_axis**d
    equal sub-boxes of `box`, so that every seed covers the box evenly.
    With `keep`, a sub-box gets up to `tries` draws to find a point that
    satisfies it, and none if all fail."""
    out = []
    for cell in itertools.product(range(per_axis), repeat=len(box)):
        for _ in range(tries if keep else 1):
            x = tuple(lo + (hi - lo) * Fraction(j * den + rng.randint(1, den - 1), per_axis * den)
                      for j, (lo, hi) in zip(cell, box))
            if keep is None or keep(x):
                out.append(x)
                break
    return out


def germ_queries(name: str, rng: random.Random, per_axis: int, box) -> list[tuple]:
    """Linear path germs (c, v) that settle in the marked set, with starts
    spread evenly over the complex."""
    def direction():
        while True:
            v = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in box)
            if any(v):
                return v

    out = []
    if name == "wedge-stack-3d":
        # start in the open wedge, on the z-axis or at the origin; from the
        # axis head into the wedge (0 < v_y < v_x)
        count = per_axis * per_axis
        for i in range(count):
            z = Fraction(2 * i + 1, count) - 1
            v = direction()
            if i % 3 == 0:
                x = Fraction(rng.randint(1, 63), 64)
                c = (x, x * Fraction(rng.randint(1, 63), 64), z)
            else:
                c = (Fraction(0), Fraction(0), z if i % 3 == 1 else Fraction(0))
                vx = Fraction(rng.randint(2, 16), 4)
                v = (vx, vx * Fraction(rng.randint(1, 15), 16), v[2])
            out.append((c, v))
        return out
    # start strictly inside the square; a start on the cut must leave it
    cut = {"grid-cut": _HALF, "corpus-verify": 0}.get(name)
    for c in stratified_points(rng, box, per_axis):
        v = direction()
        while c[1] == cut and v[1] == 0:
            v = direction()
        out.append((c, v))
    return out


def near_unit_points(unit, rng: random.Random, count: int, den: int = 1024) -> list[tuple]:
    """Points between a carved unit's inner and outer neighbourhood, where
    the deformation maps move points: a ball's annulus, or for a segment
    tube in the plane the band inner < height / min(s, 1 - s) < outer along
    the base, with s spread evenly over (0, 1)."""
    out = []
    if unit.is_ball:
        r = exact_sqrt(unit.outer.radius_sq)
        for i in range(count):
            rho = r * Fraction(den + (i * den + rng.randint(1, den - 1)) // count, 2 * den)
            dx, dy = _circle_direction(rng)
            c = unit.outer.center
            out.append((c[0] + rho * dx, c[1] + rho * dy) + tuple(c[2:]))
        return out
    if len(unit.outer.vertices) != 2 or len(unit.outer.vertices[0]) != 2:
        return out
    a, b = unit.outer.vertices
    d = (b[0] - a[0], b[1] - a[1])
    q_lo = Fraction(isqrt(int(unit.inner.eps_star_sq * den * den)) + 1, den)
    q_hi = Fraction(isqrt(int(unit.outer.eps_star_sq * den * den)), den)
    for i in range(count):
        s = Fraction(i * den + rng.randint(1, den - 1), count * den)
        q = q_lo + (q_hi - q_lo) * Fraction(rng.randint(1, den - 1), den)
        h = q * min(s, 1 - s) * rng.choice((-1, 1))
        out.append((a[0] + s * d[0] - h * d[1], a[1] + s * d[1] + h * d[0]))
    return out


def _circle_direction(rng: random.Random) -> tuple:
    """A seeded rational unit vector (Pythagorean parametrization)."""
    t = Fraction(rng.randint(-255, 255), 128)
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def circle_points(center, radius: Fraction, rng: random.Random, count: int,
                  box, steep: bool, den: int = 1024) -> list[tuple]:
    """Up to `count` rational points at exactly `radius` from `center` (in
    the xy-plane) and inside `box`, with directions spread evenly around the
    circle (Pythagorean parametrization, one seeded parameter per stratum).
    `steep` keeps directions at least 45 degrees away from the x-axis, where
    tubes along y = const may run."""
    out = []
    for flip in (0, 1):  # a second round fills in for points outside the box
        for i in range(count):
            t = Fraction(2 * (i * den + rng.randint(1, den - 1)), count * den) - 1
            dx, dy = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
            if (i + flip) % 2:
                dx = -dx
            if steep and abs(dy) < abs(dx):
                dx, dy = dy, dx
            q = (center[0] + radius * dx, center[1] + radius * dy) + tuple(center[2:])
            if len(out) < count and q not in out and all(
                    lo <= c <= hi for c, (lo, hi) in zip(q, box)):
                out.append(q)
    return out


def exact_sqrt(x: Fraction) -> Fraction | None:
    """sqrt(x) when x is the square of a rational, else None."""
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None
