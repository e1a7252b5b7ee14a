"""The Fraction shell probe, kept verbatim as the reference for the integer
probe of ``saet.probe``: its predicates take rational points, its crossing
forms are ``AffineForm``s evaluated in Fractions at both ends of every
segment, and it forms every squared distance in Fractions, twice per pair
and again in every bridging round.  ``probe_germ_reference`` is
``carve.probe_germ`` over it.  Both must give equal ``ProbeReport``s."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from saet.carve import CarvedSet
from saet.probe import CONNECTED, DISCONNECTED, INCONCLUSIVE, _MIN_MEMBERS, ProbeReport
from saet.rationals import Vec, vec

_UNIFORM_CHECKPOINTS = tuple(Fraction(k, 5) for k in range(1, 5))


def sphere_point(
    center: Vec, radius: Fraction, direction: Sequence[Fraction], flip: bool = False
) -> Vec:
    """Exact rational point on the sphere via stereographic projection.

    ``flip`` mirrors the last coordinate so both hemispheres are reachable
    with bounded parameter values.
    """
    u = [Fraction(d) for d in direction]
    nu = sum(x * x for x in u)
    denom = nu + 1
    last = (nu - 1) / denom
    coords = [2 * x / denom for x in u] + [-last if flip else last]
    return tuple(c + radius * s for c, s in zip(center, coords, strict=True))


def _random_direction(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-256, 256), 64) for _ in range(n - 1)]


def _checkpoints(a: Vec, b: Vec, crossing_forms) -> list[Fraction]:
    ts = set(_UNIFORM_CHECKPOINTS)
    for form in crossing_forms:
        fa, fb = form(a), form(b)
        if fa == fb:
            continue
        t = fa / (fa - fb)
        if 0 < t < 1:
            ts.add(t)
    return sorted(ts)


def probe_shell(
    member: Callable[[Vec], bool],
    closure_member: Callable[[Vec], bool] | None,
    center: Vec,
    radius: Fraction,
    samples: int,
    rng: random.Random,
    crossing_forms: Sequence = (),
) -> ProbeReport:
    """Classify a rational sphere shell and report local germ structure."""
    center = vec(center)
    n = len(center)
    pts = [
        sphere_point(center, radius, _random_direction(rng, n), flip=rng.random() < 0.5)
        for _ in range(samples)
    ]

    member_pts, boundary_samples, outside = [], 0, 0
    for p in pts:
        if member(p):
            member_pts.append(p)
        elif closure_member is not None and closure_member(p):
            boundary_samples += 1
        else:
            outside += 1

    # only forms whose zero set can meet the ball matter for crossings
    rr = radius * radius
    relevant_forms = []
    for form in crossing_forms:
        fc = form(center)
        gg = sum(c * c for c in form.c)
        if fc * fc <= rr * gg:
            relevant_forms.append(form)
    crossing_forms = relevant_forms

    witnesses = 0
    exits = 0
    m = len(member_pts)
    # adjacency restricted to nearest neighbors keeps the pair count linear;
    # connectivity is still detected through chains of short edges
    neighbor_cap = min(6, max(m - 1, 0))
    pairs = set()
    for i in range(m):
        dists = sorted(
            (sum((a - b) ** 2 for a, b in zip(member_pts[i], member_pts[j])), j)
            for j in range(m)
            if j != i
        )
        for _, j in dists[:neighbor_cap]:
            pairs.add((min(i, j), max(i, j)))
    adj: list[list[int]] = [[] for _ in range(m)]

    def try_edge(i: int, j: int) -> bool:
        nonlocal witnesses, exits
        for t in _checkpoints(member_pts[i], member_pts[j], crossing_forms):
            q = tuple(
                a + t * (b - a)
                for a, b in zip(member_pts[i], member_pts[j], strict=True)
            )
            if not member(q):
                if closure_member is not None and closure_member(q):
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
            (
                sum((a - b) ** 2 for a, b in zip(member_pts[i], member_pts[j])),
                i,
                j,
            )
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


def probe_germ_reference(n: CarvedSet, q: Vec, radius: Fraction, samples: int,
                         seed: int = 0) -> ProbeReport:
    """``carve.probe_germ`` over the reference probe, without its checks."""
    q, radius = vec(q), Fraction(radius)
    near = CarvedSet(n.base, n.units_near(q, radius))
    return probe_shell(near.member, near.closure_member, q, radius, samples,
                       random.Random(seed), crossing_forms=n.crossing_forms())
