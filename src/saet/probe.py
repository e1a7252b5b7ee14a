"""Shell probes: sampling verification of germ structure around a point.

A probe classifies exact rational points on a sphere shell around a center
by a membership predicate, then joins member samples whose connecting
segment stays inside the set.  Segments are checked at uniform checkpoints
plus the exact rational roots of supplied affine "crossing forms" (facet
hyperplanes of the complex, piecewise-linear tube walls), so transversal
passes through a codimension-1 non-member sheet are caught exactly, not
just with high probability.

A probe computes on Python ints.  Each sample x = p / q is formed once,
directly, as the integer point (q, p_1, ..., p_n), and the predicates take
such points, in lowest terms or not (``rationals.homogeneous`` writes a
rational point so).  A crossing form is an integer row (c_0, c_1, ..., c_n),
a positive multiple of the form, and its value at a point is read as the
dot product N = c_0 q + c . p, which has the form's sign; each member
sample's values are formed once per probe.  On the segment from a to b the
form vanishes at t = N_a q_b / (N_a q_b - N_b q_a), kept when 0 < t < 1 by
integer comparisons, and the checkpoint at t = r / s is formed directly as
the integer point (s q_a q_b, (s - r) q_b p_a + r q_a p_b).  Neighbours are
ranked by one table of squared distances, one int per unordered pair of
member samples: with every sample written over the lcm L of their q's as
P / L, the entry is |P_a - P_b|^2, the squared distance times L^2.  The
nearest-neighbour pass and every bridging round read that table.

The component count of the member graph estimates the number of local
connected components of the set near the center; crossing points landing
in closure-minus-set witness a codimension-1 boundary germ.  Results are
reports, never proofs; the probe says Inconclusive when the sample density
is too small to trust.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from .rationals import Vec, homogeneous, vec

CONNECTED = "Connected"
DISCONNECTED = "Disconnected"
INCONCLUSIVE = "Inconclusive"

_MIN_MEMBERS = 12
IntPoint = Sequence[int]  # (q, p_1, ..., p_n): the point p / q, q > 0
# evenly spaced checkpoints t = r / s on every segment, besides its crossing points
_UNIFORM_CHECKPOINTS = tuple((k, 5) for k in range(1, 5))


def _shell_point(center: IntPoint, radius: Fraction, direction: Sequence[int],
                 flip: bool) -> tuple[int, ...]:
    """Exact point on the sphere of the radius around the center
    (q, p_1, ..., p_n), by stereographic projection, as an integer point.

    The parameters are u = k / 64 for the ints k of ``direction``.  With
    S = |k|^2 and E = S + 64^2 the point on the unit sphere is w / E,
    w = (128 k, S - 64^2), and ``flip`` mirrors its last coordinate so both
    hemispheres are reachable with bounded parameter values.  For the
    radius a / b the point is (q b E, p b E + a q w), not reduced.
    """
    q, *p = center
    a, b = radius.numerator, radius.denominator
    s = sum(k * k for k in direction)
    e = s + 64 * 64
    w = [128 * k for k in direction] + [64 * 64 - s if flip else s - 64 * 64]
    return (q * b * e, *(c * b * e + a * q * x for c, x in zip(p, w, strict=True)))


def _random_direction(rng: random.Random, n: int) -> list[int]:
    """Stereographic parameters of a sample, as numerators over 64."""
    return [rng.randint(-256, 256) for _ in range(n - 1)]


@dataclass
class ProbeReport:
    center: Vec
    radius: Fraction
    status: str
    components: int
    member_count: int
    boundary_sample_count: int  # random samples landing in closure \ set
    outside_count: int
    boundary_witnesses: int  # exact crossing points in closure \ set
    exits_detected: int  # segment checkpoints leaving the closure
    member_dim_estimate: int
    complement_codim_estimate: str
    notes: list[str] = field(default_factory=list)


def _meeting_rows(rows: Sequence[Sequence[int]], center: IntPoint,
                  radius: Fraction) -> list[Sequence[int]]:
    """The rows whose zero set meets the closed ball of the radius a / b
    around the integer point center = (q, p): with N = c . center and g
    the gradient part (c_1, ..., c_n) of the row c, the zero set lies at
    distance |N| / (q |g|) from the center, so it meets the ball exactly
    when N^2 b^2 <= a^2 q^2 |g|^2."""
    a_sq, b_sq = radius.numerator ** 2, radius.denominator ** 2
    reach = a_sq * center[0] ** 2
    return [row for row in rows
            if sum(map(mul, row, center)) ** 2 * b_sq <= reach * sum(c * c for c in row[1:])]


def _distance_table(points: Sequence[IntPoint]) -> list[list[int]]:
    """Squared distances of the points as ints, table[i][j] = table[j][i]
    formed once per unordered pair, all over one denominator: with L the
    lcm of the q's, point i is P_i / L and the entry is |P_i - P_j|^2, the
    squared distance times L^2, so comparing entries compares distances."""
    scale = lcm(*(h[0] for h in points))
    rows = [[c * (scale // h[0]) for c in h[1:]] for h in points]
    table = [[0] * len(rows) for _ in rows]
    for i, a in enumerate(rows):
        for j in range(i + 1, len(rows)):
            table[i][j] = table[j][i] = _dist_sq(a, rows[j])
    return table


def _dist_sq(a: Sequence[int], b: Sequence[int]) -> int:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _checkpoints(a: IntPoint, b: IntPoint, fa: Sequence[int],
                 fb: Sequence[int]) -> list[tuple[int, ...]]:
    """The checkpoints of the segment from a to b, in order from a, as
    integer points.  ``fa`` and ``fb`` are the crossing rows' values at a
    and b; a row whose values differ adds its zero t = r / s when
    0 < t < 1, and the uniform t = k / 5 are always in.  Each t is kept in
    lowest terms, so equal ones count once, and ordered over one common
    denominator."""
    qa, qb = a[0], b[0]
    ts = set(_UNIFORM_CHECKPOINTS)
    for x, y in zip(fa, fb):
        r = x * qb
        s = r - y * qa
        if s < 0:
            r, s = -r, -s
        if 0 < r < s:
            g = gcd(r, s)
            ts.add((r // g, s // g))
    den = lcm(*(s for _, s in ts))
    pa = [c * qb for c in a[1:]]
    pb = [c * qa for c in b[1:]]
    qq = qa * qb
    return [(s * qq, *((s - r) * x + r * y for x, y in zip(pa, pb)))
            for r, s in sorted(ts, key=lambda t: t[0] * (den // t[1]))]


def probe_shell(
    member: Callable[[IntPoint], bool],
    closure_member: Callable[[IntPoint], bool],
    center: Vec,
    radius: Fraction,
    samples: int,
    rng: random.Random,
    crossing_rows: Sequence[Sequence[int]] = (),
) -> ProbeReport:
    """Classify a rational sphere shell and report local germ structure.

    ``member`` and ``closure_member`` decide integer points
    (q, p_1, ..., p_n), which need not be in lowest terms: the samples, from
    ``_shell_point``, and the checkpoints.  ``crossing_rows`` are integer
    rows (c_0, c_1, ..., c_n) of affine forms c_0 + c . x, each up to a
    positive factor; only those whose zero set meets the closed ball are
    used (``_meeting_rows``).  A segment between member samples is tested
    at its checkpoints in order from its first end: the uniform t = k / 5
    and the zeros of the rows, each formed as the integer point
    (s q_a q_b, (s - r) q_b p_a + r q_a p_b) for t = r / s
    (``_checkpoints``).  Its first checkpoint outside the set counts as a
    boundary witness, when it lies in the closure, or as an exit.
    """
    center = vec(center)
    n = len(center)
    hc = homogeneous(center)
    pts = [_shell_point(hc, radius, _random_direction(rng, n), rng.random() < 0.5)
           for _ in range(samples)]

    member_pts, boundary_samples, outside = [], 0, 0
    for p in pts:
        if member(p):
            member_pts.append(p)
        elif closure_member(p):
            boundary_samples += 1
        else:
            outside += 1

    # only forms whose zero set can meet the ball matter for crossings
    rows = _meeting_rows(crossing_rows, hc, radius)
    values = [[sum(map(mul, row, p)) for row in rows] for p in member_pts]

    witnesses = 0
    exits = 0
    m = len(member_pts)
    dist = _distance_table(member_pts)
    # adjacency restricted to nearest neighbors keeps the pair count linear;
    # connectivity is still detected through chains of short edges
    neighbor_cap = min(6, max(m - 1, 0))
    pairs = set()
    for i in range(m):
        dists = sorted((dist[i][j], j) for j in range(m) if j != i)
        for _, j in dists[:neighbor_cap]:
            pairs.add((min(i, j), max(i, j)))
    adj: list[list[int]] = [[] for _ in range(m)]

    def try_edge(i: int, j: int) -> bool:
        nonlocal witnesses, exits
        for q in _checkpoints(member_pts[i], member_pts[j], values[i], values[j]):
            if not member(q):
                if closure_member(q):
                    witnesses += 1
                else:
                    exits += 1
                return False
        adj[i].append(j)
        adj[j].append(i)
        return True

    for i, j in sorted(pairs):
        try_edge(i, j)

    def component_labels() -> list[int]:
        label = [-1] * m
        comp = 0
        for i in range(m):
            if label[i] == -1:
                stack = [i]
                label[i] = comp
                while stack:
                    k = stack.pop()
                    for nb in adj[k]:
                        if label[nb] == -1:
                            label[nb] = comp
                            stack.append(nb)
                comp += 1
        return label

    # bridging pass: the nearest-neighbor cap can leave genuine components
    # of the sample split by a positional gap; test the closest pairs
    # across components before believing a disconnection
    budget = 3 * m
    while budget > 0:
        label = component_labels()
        if max(label, default=-1) <= 0:
            break
        cross = sorted(
            (dist[i][j], i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if label[i] != label[j] and (i, j) not in pairs
        )
        if not cross:
            break
        merged = False
        for _, i, j in cross[: max(4, m // 4)]:
            pairs.add((i, j))
            budget -= 1
            if try_edge(i, j):
                merged = True
                break
        if not merged:
            break

    label = component_labels()
    components = max(label, default=-1) + 1

    status = INCONCLUSIVE if m < _MIN_MEMBERS else (
        CONNECTED if components == 1 else DISCONNECTED
    )
    if boundary_samples:
        codim = "0"  # positive measure in closure \ set: defect
    elif witnesses or exits or outside * 8 >= samples:
        # crossing witnesses catch measure-zero separating sheets; a solid
        # outside-closure mass means the closure boundary through the
        # center is a codimension-1 sheet
        codim = "1"
    else:
        codim = ">=2 or empty"

    return ProbeReport(
        center=center,
        radius=Fraction(radius),
        status=status,
        components=components if m else 0,
        member_count=m,
        boundary_sample_count=boundary_samples,
        outside_count=outside,
        boundary_witnesses=witnesses,
        exits_detected=exits,
        member_dim_estimate=n if m else -1,
        complement_codim_estimate=codim,
    )
