"""Geometric simplicial complexes over Q^n, marked sets of open simplices,
and the combinatorial germ calculus: closure, the non-locally-closed locus,
its locally closed part, local dimension, germ connectivity and the
obstruction set of boundary simplices with disconnected or codimension-
defective germs.

All set operations here are exact; there is no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import BadGlue, DegenerateSimplex, NotInClosure
from .geometry import SimplexGeometry
from .lp import intersection_excess
from .rationals import Vec, affinely_independent, vec


def bounding_box(pts: Sequence[Vec]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Closed axis-aligned bounding box of the points: (lo, hi) per axis."""
    return tuple((min(axis), max(axis)) for axis in zip(*pts))


def _meeting_box_pairs(boxes: Sequence[tuple]) -> list[tuple[int, int]]:
    """Index pairs i < j whose closed boxes meet on every axis, in the
    order of ``combinations(range(len(boxes)), 2)``.

    Sort-and-sweep on axis 0: with the boxes sorted by lower bound, the
    scan from box i stops at the first box whose lower bound passes i's
    upper bound, since every later one starts further right still.
    """
    if not boxes or not boxes[0]:  # no axes (R^0): every pair meets
        return list(combinations(range(len(boxes)), 2))
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0][0])
    pairs = []
    for pos, i in enumerate(order):
        box_i = boxes[i]
        hi = box_i[0][1]
        for q in range(pos + 1, len(order)):
            j = order[q]
            box_j = boxes[j]
            if box_j[0][0] > hi:
                break
            if all(a[0] <= b[1] and b[0] <= a[1] for a, b in zip(box_i[1:], box_j[1:])):
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


class Simplex:
    """A simplex identified by its sorted tuple of vertex ids."""

    __slots__ = ("vertex_ids",)

    def __init__(self, vertex_ids: Iterable[int]):
        ids = tuple(sorted(vertex_ids))
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate vertex ids in simplex {ids}")
        self.vertex_ids = ids

    @property
    def dim(self) -> int:
        return len(self.vertex_ids) - 1

    def faces(self) -> list["Simplex"]:
        out = []
        for size in range(1, len(self.vertex_ids) + 1):
            out.extend(Simplex(c) for c in combinations(self.vertex_ids, size))
        return out

    def is_face_of(self, other: "Simplex") -> bool:
        return set(self.vertex_ids) <= set(other.vertex_ids)

    def __eq__(self, other):
        return isinstance(other, Simplex) and self.vertex_ids == other.vertex_ids

    def __hash__(self):
        return hash(self.vertex_ids)

    def __repr__(self):
        return f"Simplex{self.vertex_ids}"


class Complex:
    """A finite geometric simplicial complex with exact rational vertices.

    Immutable after construction; all queries are safe to run concurrently.
    """

    def __init__(self, vertices: Sequence[Vec], simplices: Sequence[Simplex], top_ids):
        self.vertices = tuple(vertices)
        self.n = len(self.vertices[0])
        self.simplices = tuple(simplices)  # canonical order: (dim, vertex_ids)
        self.index = {s.vertex_ids: i for i, s in enumerate(self.simplices)}
        self.top_ids = tuple(top_ids)
        tops = set(self.top_ids)  # locate scans the top cells first, then the rest
        self._scan_order = self.top_ids + tuple(
            i for i in range(len(self.simplices) - 1, -1, -1) if i not in tops)
        self._geom: dict[int, SimplexGeometry] = {}
        self._bboxes: dict[int, tuple] = {}
        # faces[j] = ids of the faces of simplex j, itself included;
        # cofaces[i] = ids of the simplices having simplex i as such a face
        self.faces = tuple(tuple(self.index[f.vertex_ids] for f in s.faces())
                           for s in self.simplices)
        cofaces = [[] for _ in self.simplices]
        for j, ids in enumerate(self.faces):
            for i in ids:
                cofaces[i].append(j)
        self.cofaces = tuple(map(tuple, cofaces))

    def id_of(self, simplex) -> int:
        if isinstance(simplex, int):
            return simplex
        if isinstance(simplex, Simplex):
            key = simplex.vertex_ids
        else:
            key = tuple(sorted(simplex))
        sid = self.index.get(key)
        if sid is None:
            raise KeyError(f"simplex {key} not in complex")
        return sid

    def simplex(self, sid: int) -> Simplex:
        return self.simplices[sid]

    def dim_of(self, sid: int) -> int:
        return self.simplices[sid].dim

    @property
    def dim(self) -> int:
        return max(s.dim for s in self.simplices)

    def coords(self, sid: int) -> tuple[Vec, ...]:
        return tuple(self.vertices[v] for v in self.simplices[sid].vertex_ids)

    def geometry(self, sid: int) -> SimplexGeometry:
        geo = self._geom.get(sid)
        if geo is None:
            geo = SimplexGeometry(self.coords(sid))
            self._geom[sid] = geo
        return geo

    def _bbox(self, sid: int):
        box = self._bboxes.get(sid)
        if box is None:
            box = bounding_box(self.coords(sid))
            self._bboxes[sid] = box
        return box

    def locate(self, x: Vec) -> int | None:
        """Id of the unique simplex whose open cell contains x, or None."""
        x = vec(x)
        # generic points land in top cells: try those first, with a cheap
        # bounding-box rejection before the exact barycentric solve
        for sid in self._scan_order:
            box = self._bbox(sid)
            if any(not lo <= c <= hi for c, (lo, hi) in zip(x, box)):
                continue
            if self.geometry(sid).contains_open(x):
                return sid
        return None

    def barycenter(self, sid: int) -> Vec:
        pts = self.coords(sid)
        k = Fraction(1, len(pts))
        return tuple(sum(p[i] for p in pts) * k for i in range(self.n))

    def __repr__(self):
        counts: dict[int, int] = {}
        for s in self.simplices:
            counts[s.dim] = counts.get(s.dim, 0) + 1
        parts = ", ".join(f"{v}x{k}d" for k, v in sorted(counts.items()))
        return f"Complex(n={self.n}, {parts})"


class PLSet:
    """A subset of |K| given as a set of open simplices of the complex K."""

    __slots__ = ("complex", "members", "_closure")

    def __init__(self, complex: Complex, members: Iterable):
        self.complex = complex
        self.members = frozenset(complex.id_of(m) for m in members)
        self._closure: PLSet | None = None  # set once by closure()

    def dim(self) -> int:
        return max((self.complex.dim_of(i) for i in self.members), default=-1)

    def contains_point(self, x: Vec) -> bool:
        sid = self.complex.locate(x)
        return sid is not None and sid in self.members

    def locate(self, x: Vec) -> int | None:
        sid = self.complex.locate(x)
        return sid if sid in self.members else None

    def __eq__(self, other):
        return (
            isinstance(other, PLSet)
            and self.complex is other.complex
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.complex), self.members))

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"PLSet({sorted(self.members)})"


def build_complex(vertices: Sequence, top_simplices: Sequence[Sequence[int]],
                  validate: bool = True) -> Complex:
    """Build the face closure of the given top simplices and validate gluing.

    Raises DegenerateSimplex for affinely dependent vertex lists and BadGlue
    when two simplices intersect outside a common face (exact LP check).

    Gluing is checked in two phases.  The broad phase sorts the tops by the
    lower bound of their closed bounding boxes on axis 0 and sweeps, keeping
    the pairs whose boxes meet on every axis.  The narrow phase runs the
    exact ``intersection_excess`` LP on those pairs only, in the order of
    ``combinations(tops, 2)``, so the first BadGlue names the same pair an
    all-pairs check would.  Skipping a pair is exact, not a heuristic:
    disjoint closed boxes contain disjoint closed simplices, for which the
    LP is infeasible (None), and None is accepted.
    """
    pts = [vec(v) for v in vertices]
    if not pts:
        raise ValueError("empty vertex list")
    if len({p for p in pts}) != len(pts):
        raise ValueError("duplicate vertex coordinates")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("inconsistent ambient dimension")

    tops = [Simplex(t) for t in top_simplices]
    for t in tops:
        if max(t.vertex_ids) >= len(pts):
            raise ValueError(f"vertex id out of range in {t}")
        if not affinely_independent([pts[i] for i in t.vertex_ids]):
            raise DegenerateSimplex(f"{t} has affinely dependent vertices")

    if validate:
        boxes = [bounding_box([pts[i] for i in t.vertex_ids]) for t in tops]
        for ta, tb in _meeting_box_pairs(boxes):
            a, b = tops[ta], tops[tb]
            shared = set(a.vertex_ids) & set(b.vertex_ids)
            ca = [pts[i] for i in a.vertex_ids]
            cb = [pts[i] for i in b.vertex_ids]
            ia = [k for k, i in enumerate(a.vertex_ids) if i in shared]
            ib = [k for k, i in enumerate(b.vertex_ids) if i in shared]
            excess = intersection_excess(ca, cb, ia, ib)
            if excess is not None and excess != 0:
                raise BadGlue(f"{a} and {b} meet outside their common face")

    closure: set[tuple[int, ...]] = set()
    for t in tops:
        for f in t.faces():
            closure.add(f.vertex_ids)
    ordered = sorted(closure, key=lambda ids: (len(ids), ids))
    simplices = [Simplex(ids) for ids in ordered]
    keys = {ids: i for i, ids in enumerate(ordered)}
    top_ids = sorted(keys[t.vertex_ids] for t in tops)
    return Complex(pts, simplices, top_ids)


# ---------------------------------------------------------------------------
# germ calculus on marked sets


def closure(s: PLSet) -> PLSet:
    """All faces of the members; idempotent and monotone.  Cached on s, but
    not on the result, so closure(closure(s)) is computed afresh."""
    if s._closure is None:
        faces = s.complex.faces
        out: set[int] = set()
        for sid in s.members:
            out.update(faces[sid])
        s._closure = PLSet(s.complex, out)
    return s._closure


def rho(s: PLSet) -> PLSet:
    """The non-locally-closed locus Cl(Cl(S) \\ S) ∩ S."""
    cl = closure(s).members
    boundary = PLSet(s.complex, cl - s.members)
    return PLSet(s.complex, closure(boundary).members & s.members)


def lc_part(s: PLSet) -> PLSet:
    """Largest locally closed dense subset: S minus its rho locus."""
    return PLSet(s.complex, s.members - rho(s).members)


def _star_members(s: PLSet, sid: int) -> list[int]:
    # a simplex lies in the closure exactly when some member has it as a face
    star = [c for c in s.complex.cofaces[sid] if c in s.members]
    if not star:
        raise NotInClosure(f"simplex {sid} is not in the closure of the set")
    return star


def local_dim(s: PLSet, simplex) -> int:
    """max dim of member simplices having the given simplex as a face."""
    star = _star_members(s, s.complex.id_of(simplex))
    return max(s.complex.dim_of(c) for c in star)


def germ_connected(s: PLSet, simplex) -> bool:
    """Connectivity of the germ of S along the open cell of the simplex.

    Nodes are member simplices of the star; edges join face-incident pairs.
    For points q in the open cell, components of this graph biject with the
    semialgebraically connected components of the germ S_q (the star of a
    simplex is a cone over the cell, so incidence captures local reach).
    """
    sid = s.complex.id_of(simplex)
    nodes = _star_members(s, sid)
    if sid in s.members:
        return True  # the cell itself is an apex node, a face of every node
    verts = {c: set(s.complex.simplex(c).vertex_ids) for c in nodes}
    seen = {nodes[0]}
    queue = [nodes[0]]
    while queue:
        a = queue.pop()
        for b in nodes:
            if b not in seen and (verts[a] <= verts[b] or verts[b] <= verts[a]):
                seen.add(b)
                queue.append(b)
    return len(seen) == len(nodes)


def eta(s: PLSet) -> PLSet:
    """Obstruction set: boundary open cells with disconnected germ or with
    boundary-germ dimension below local dimension minus one."""
    cl = closure(s).members
    out = set()
    for sid in sorted(cl - s.members):
        star = _star_members(s, sid)
        d_in = max(s.complex.dim_of(c) for c in star)
        d_out = max(
            s.complex.dim_of(c)
            for c in s.complex.cofaces[sid]
            if c in cl and c not in s.members
        )
        if d_out < d_in - 1 or not germ_connected(s, sid):
            out.add(sid)
    return PLSet(s.complex, out)


def is_appropriately_embedded(s: PLSet) -> bool:
    return not eta(s).members


def barycentric_subdivide(k: Complex, marked: PLSet) -> tuple[Complex, PLSet]:
    """First barycentric subdivision with exact rational barycenters.

    The marked set is transported so its realized point set is unchanged:
    a chain simplex is marked iff its largest element is marked.
    """
    assert marked.complex is k
    bary_vertex = {sid: k.barycenter(sid) for sid in range(len(k.simplices))}
    new_vertices = [bary_vertex[sid] for sid in range(len(k.simplices))]

    def chains_of(sid: int) -> list[tuple[int, ...]]:
        s = k.simplices[sid]
        out = []

        def grow(chain: tuple[int, ...], remaining: set[int]):
            if not remaining:
                out.append(chain)
                return
            last = k.simplices[chain[-1]].vertex_ids if chain else ()
            for v in sorted(remaining):
                nxt = k.index[tuple(sorted(set(last) | {v}))]
                grow(chain + (nxt,), remaining - {v})

        grow((), set(s.vertex_ids))
        return out

    tops = []
    for sid in k.top_ids:
        tops.extend(chains_of(sid))
    sub = build_complex(new_vertices, tops, validate=False)

    new_marked = set()
    for s in sub.simplices:
        top_orig = max(s.vertex_ids, key=lambda sid: (k.dim_of(sid), sid))
        if top_orig in marked.members:
            new_marked.add(sub.index[s.vertex_ids])
    return sub, PLSet(sub, new_marked)
