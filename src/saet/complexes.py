"""Geometric simplicial complexes over Q^n, marked sets of open simplices,
and the combinatorial germ calculus: closure, the non-locally-closed locus,
its locally closed part, local dimension, germ connectivity and the
obstruction set of boundary simplices with disconnected or codimension-
defective germs.

All set operations here are exact; there is no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, product
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import BadGlue, DegenerateSimplex, NotInClosure
from .geometry import SimplexGeometry, common_face_past_forms, form_values, forms_separate
from .intervals import BoxNumerators
from .rationals import Vec, homogeneous, vec


def _meeting_box_pairs(boxes: Sequence[BoxNumerators]) -> list[tuple[int, int]]:
    """Index pairs i < j whose closed boxes meet (``separating_axis`` is
    None), in the order of ``combinations(range(len(boxes)), 2)``.

    Sort-and-sweep (Cohen, Lin, Manocha and Ponamgi, I-COLLIDE, 1995) on
    one axis: with the boxes sorted by lower bound, the scan from box i
    stops at the first box whose lower bound passes i's upper bound, since
    every later one starts further on still.  The axis swept is the one
    whose extent is largest relative to the mean width of the boxes on it,
    the ratios compared cross-multiplied; an axis of zero extent counts as
    ratio 0, and ties go to the lowest axis.  So a slab, such as a stack of
    prisms that each span the whole cross-section, is swept along the
    stack.  The bounds are compared over the least common multiple of the
    boxes' denominators, so boxes over different q sweep correctly.
    """
    if not boxes or not boxes[0].lo:  # no axes (R^0): every pair meets
        return list(combinations(range(len(boxes)), 2))
    q = lcm(*(b.q for b in boxes))
    scales = [q // b.q for b in boxes]
    best = None
    for axis in range(len(boxes[0].lo)):
        lo = [b.lo[axis] * s for b, s in zip(boxes, scales)]
        hi = [b.hi[axis] * s for b, s in zip(boxes, scales)]
        extent = max(hi) - min(lo)
        width = sum(hi) - sum(lo) if extent else 1  # len(boxes) times the mean width
        if best is None or extent * best[1] > best[0] * width:
            best = extent, width, lo, hi
    _, _, starts, ends = best
    order = sorted(range(len(boxes)), key=starts.__getitem__)
    pairs = []
    for pos, i in enumerate(order):
        box_i, hi = boxes[i], ends[i]
        for j in islice(order, pos + 1, None):
            if starts[j] > hi:
                break
            if box_i.separating_axis(boxes[j]) is None:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


class _GlueCheck:
    """The narrow phase of the validated ``build_complex``: whether two
    tops meet only in their common face, pair by pair.

    The barycentric forms of both tops are decided by
    ``geometry.forms_separate`` from one form-value table per top: the
    entry of top a at vertex w is the list of dot products of a's integer
    form rows with w's row over the common denominator of the build
    (``geometry.form_values``), a positive multiple of a's barycentric
    coordinates of w.  An entry is filled (``fill``) on first use and then
    read by every pair that needs it.  A top's forms are never evaluated
    at its own vertices, where ``forms_separate`` knows their signs.  A
    pair that no form separates goes on to
    ``geometry.common_face_past_forms``, with one table of shared-face
    geometries for the whole check.  Nothing here outlives the build.
    """

    __slots__ = ("ids", "sets", "geos", "rows", "tables", "faces")

    def __init__(self, tops: Sequence[Simplex], geos: Sequence[SimplexGeometry],
                 rows: Sequence[tuple[int, ...]]):
        self.ids = [t.vertex_ids for t in tops]
        self.sets = [frozenset(ids) for ids in self.ids]
        self.geos, self.rows = geos, rows
        self.tables: list[dict[int, list[int]]] = [{} for _ in tops]
        self.faces: dict[tuple, SimplexGeometry] = {}

    def fill(self, top: int, vertex: int) -> list[int]:
        """The entry of ``top`` at ``vertex``, computed and stored."""
        entry = self.tables[top][vertex] = form_values(self.geos[top].integral.rows,
                                                       self.rows[vertex])
        return entry

    def glued(self, ta: int, tb: int) -> bool:
        """Whether tops ta and tb meet exactly in their common face."""
        a, b = self.ids[ta], self.ids[tb]
        in_a, in_b = self.sets[ta], self.sets[tb]
        rest_a = [k for k, v in enumerate(a) if v not in in_b]
        table = self.tables[ta]
        if forms_separate([table.get(v) or self.fill(ta, v) for v in b if v not in in_a], rest_a):
            return True
        rest_b = [k for k, v in enumerate(b) if v not in in_a]
        table = self.tables[tb]
        if forms_separate([table.get(a[k]) or self.fill(tb, a[k]) for k in rest_a], rest_b):
            return True
        return common_face_past_forms(self.geos[ta], self.geos[tb],
                                      [k for k, v in enumerate(a) if v in in_b],
                                      [k for k, v in enumerate(b) if v in in_a], self.faces)


def _faces(vertex_ids: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The vertex ids of every face of a simplex, itself included: by size,
    then in ``combinations`` order."""
    return [f for size in range(1, len(vertex_ids) + 1) for f in combinations(vertex_ids, size)]


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
        self._geom: dict[int, SimplexGeometry] = {}
        self._grid: _BucketGrid | None = None  # built by the first locate
        # faces[j] = ids of the faces of simplex j, itself included;
        # cofaces[i] = ids of the simplices having simplex i as such a face
        self.faces = tuple(tuple(self.index[f] for f in _faces(s.vertex_ids))
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

    @cached_property
    def vertex_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex written by ``homogeneous`` as (q, p_1, ..., p_n), built once."""
        return tuple(map(homogeneous, self.vertices))

    def geometry(self, sid: int) -> SimplexGeometry:
        geo = self._geom.get(sid)
        if geo is None:
            geo = SimplexGeometry(self.coords(sid))
            self._geom[sid] = geo
        return geo

    def locate(self, x: Vec) -> int | None:
        """Id of the unique simplex whose open cell contains x, or None."""
        return self.locate_h(homogeneous(vec(x)))

    def locate_h(self, h: Sequence[int]) -> int | None:
        """``locate`` at the point h = (q, p_1, ..., p_n), x = p / q with
        q > 0, not necessarily in lowest terms: the face of ``locate_top``'s
        top spanned by the vertices with positive barycentric coordinate.
        Every cell is a face of a top and open cells are disjoint, so that
        face is the only cell containing x, and x lies in |K| exactly when
        some closed top holds it.
        """
        found = self.locate_top(h)
        return None if found is None else self.open_face(*found)

    def open_face(self, top: int, nums: Sequence[int]) -> int:
        """Id of the face of the top spanned by its vertices whose
        barycentric numerator in ``nums`` is positive: the open cell that
        holds a point of the closed top with those numerators."""
        return self.index[tuple(vid for vid, num in zip(self.simplices[top].vertex_ids, nums)
                                if num)]

    def locate_top(self, h: Sequence[int],
                   hint: int | None = None) -> tuple[int, list[int]] | None:
        """The first top cell listed in the bucket of h = (q, p) whose closed
        simplex holds x = p / q, with its barycentric numerators at h
        (``SimplexGeometry.numerators``); None when no closed top holds x.

        Each listed top is tested first by its closed box (``_BucketGrid``)
        and then by its integer kernel.  Every test is homogeneous in
        (q, p), so any positive multiple of h gives the same answer.

        A ``hint``, the id of a top cell, makes the location start there:
        its kernel is tested first, and when its closed simplex holds x it
        is returned with no bucket search.  Any closed top that holds x has
        the open cell of x as the face its positive numerators span
        (``open_face``), so a hinted answer may name another top than the
        hint-free one, but never another cell.  Queries that move little,
        such as a probe's samples and checkpoints, mostly stay in the top
        that held the last point (Devillers, Pion and Teillaud, "Walking in
        a triangulation", 2002).
        """
        if len(h) != self.n + 1:
            raise ValueError(f"a {len(h) - 1}-dimensional point cannot lie in a complex "
                             f"in {self.n}-dimensional space")
        if hint is not None:
            nums, height = self.geometry(hint).numerators(h)
            if not height and min(nums) >= 0:
                return hint, nums
        if self._grid is None:
            self._grid = _BucketGrid(self)
        q, *p = h
        # an inline loop, not a BoxNumerators method: every germ evaluation
        # and hint miss runs it, and a method call made it 6-12% slower
        for sid, s, lo, hi in self._grid.candidates(h):
            for c, a, b in zip(p, lo, hi):
                if not a * q <= c * s <= b * q:
                    break
            else:
                nums, height = self.geometry(sid).numerators(h)
                if not height and min(nums) >= 0:
                    return sid, nums
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


class _BucketGrid:
    """A grid of buckets over the closed boxes of the top cells (Ericson,
    *Real-Time Collision Detection*, 2004, ch. 7).

    Each top's box is the ``BoxNumerators.of_points`` of its vertex rows,
    and the axes are kept over the denominator ``q`` of the box of all tops,
    so every test below reads integers.  Each axis gets a bucket count in
    proportion to its extent measured in the mean width of the tops' boxes
    on that axis, scaled so that there are about len(tops) buckets in all;
    an axis of zero extent gets one bucket.  A slab-shaped complex, such as
    a stack of prisms that each span the whole cross-section, is thus cut
    along the stack only.  A coordinate x falls in bucket
    floor((x - lo) / step), with step the extent over the count, clamped
    to the last one, computed exactly on the numerators.  Each top is
    listed, in ``top_ids`` order, in every bucket its closed box meets, by
    the same map; since the map is monotone, a point in the closed box of
    a top lies in one of that top's buckets, on a bucket boundary too.  The
    counts only choose the buckets; no test reads them.  A complex with no
    top has no bucket, so every point's candidates are empty.
    """

    __slots__ = ("q", "axes", "buckets")

    def __init__(self, k: Complex):
        boxes = [BoxNumerators.of_points([k.vertex_rows[v] for v in k.simplices[sid].vertex_ids])
                 for sid in k.top_ids]
        self.buckets: dict[tuple[int, ...], list] = {}
        if not boxes:
            self.q, self.axes = 1, []
            return
        whole = BoxNumerators.hull(boxes)
        self.q = whole.q
        # per axis, over q: lo and hi of all tops, the bucket count, the
        # last bucket and the extent (1 when it is 0, which only 0 divides)
        self.axes = [(lo, hi, count, count - 1, hi - lo or 1)
                     for lo, hi, count in zip(whole.lo, whole.hi, _bucket_counts(boxes, whole))]
        for sid, (q, lo, hi) in zip(k.top_ids, boxes):
            entry = (sid, q, lo, hi)
            low, high = self.key((q, *lo)), self.key((q, *hi))
            for key in product(*(range(a, b + 1) for a, b in zip(low, high))):
                self.buckets.setdefault(key, []).append(entry)

    def key(self, h: Sequence[int]) -> tuple[int, ...] | None:
        """The bucket of the point h = (q, p_1, ..., p_n); None when it lies
        outside the box of all tops."""
        q, *p = h
        s = self.q
        out = []
        for c, (lo, hi, count, last, extent) in zip(p, self.axes):
            c *= s
            above = c - lo * q  # (x_a - lo) * q * s
            if above < 0 or c > hi * q:
                return None
            out.append(min(last, above * count // (extent * q)))
        return tuple(out)

    def candidates(self, h: Sequence[int]) -> list:
        """The tops listed in the bucket of the point h = (q, p_1, ..., p_n),
        each as (id, q, lo, hi), its id and the fields of its closed box."""
        key = self.key(h)
        return [] if key is None else self.buckets.get(key, [])


def _bucket_counts(boxes: Sequence[BoxNumerators], whole: BoxNumerators) -> list[int]:
    """Buckets per axis for ``_BucketGrid``, about len(boxes) in all, for
    nonempty boxes and their ``hull`` whole.

    Axis a of extent E_a gets a count in proportion to E_a / w_a, with w_a
    the mean width of the boxes on that axis but at least E_a / len(boxes);
    an axis of zero extent gets 1.  The counts are rounded, at least 1.
    """
    ratios = []
    for a, (lo, hi) in enumerate(zip(whole.lo, whole.hi)):
        extent = hi - lo  # over whole.q, a multiple of every box's q
        width = Fraction(sum((b.hi[a] - b.lo[a]) * (whole.q // b.q) for b in boxes), len(boxes))
        ratios.append(float(extent / max(width, Fraction(extent, len(boxes)))) if extent else 0.0)
    spread = [r for r in ratios if r]
    if not spread:
        return [1] * len(ratios)
    scale = (len(boxes) / prod(spread)) ** (1 / len(spread))
    return [max(1, round(r * scale)) if r else 1 for r in ratios]


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
    when two simplices intersect outside a common face.

    Each top's ``SimplexGeometry`` is built once, with or without
    ``validate``: its fraction-free solve proves the vertices affinely
    independent, and the complex keeps it for ``Complex.geometry``.
    Gluing, checked only with ``validate``, runs in two phases on integers
    throughout; the vertices are written once as integer rows over one
    common denominator, and the boxes are the ``BoxNumerators.of_points``
    of the tops' rows.  The broad phase (``_meeting_box_pairs``) sorts the
    tops by the lower bound of their boxes on the axis whose extent is
    largest relative to the mean box width, and sweeps, keeping the pairs
    whose boxes meet (``separating_axis`` is None).  The narrow phase
    (``_GlueCheck``) runs on those pairs only, in the order of
    ``combinations(tops, 2)``, so the first BadGlue names the same pair an
    all-pairs check would.  It decides ``common_face``'s planes in
    ``common_face``'s order: first the barycentric forms of both tops,
    from signs in one form-value table per top (a's integer form rows
    dotted with the rows of the vertices of the tops a meets, filled on
    first use and dropped when the build returns), then the shared-face
    plane, with each shared face's geometry solved once per build, then
    the hull-normal plane, and only when none separates the exact
    ``intersection_excess`` LP, the one way to reject.  Neither skip is a
    heuristic.  Disjoint closed boxes contain disjoint closed simplices,
    for which the LP is infeasible (None), and None is accepted.  A plane
    that has one simplex on its closed nonnegative side and the other on
    its closed nonpositive side, zero at the shared vertices and at no
    unshared vertex of one of them, confines the intersection to the
    shared face, and there the LP's excess is 0.
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
    geos = []
    for t in tops:
        if not t.vertex_ids:
            raise ValueError(f"top simplex {t} has no vertices")
        if t.vertex_ids[0] < 0 or t.vertex_ids[-1] >= len(pts):
            raise ValueError(f"vertex id out of range in {t}")
        try:
            geos.append(SimplexGeometry([pts[i] for i in t.vertex_ids]))
        except DegenerateSimplex:
            raise DegenerateSimplex(f"{t} has affinely dependent vertices") from None

    if validate:
        q, *ints = homogeneous([c for p in pts for c in p])
        rows = [(q, *ints[i * n:(i + 1) * n]) for i in range(len(pts))]
        boxes = [BoxNumerators.of_points([rows[i] for i in t.vertex_ids]) for t in tops]
        check = _GlueCheck(tops, geos, rows)
        for ta, tb in _meeting_box_pairs(boxes):
            if not check.glued(ta, tb):
                raise BadGlue(f"{tops[ta]} and {tops[tb]} meet outside their common face")

    closure: set[tuple[int, ...]] = set()
    for t in tops:
        closure.update(_faces(t.vertex_ids))
    ordered = sorted(closure, key=lambda ids: (len(ids), ids))
    simplices = [Simplex(ids) for ids in ordered]
    keys = {ids: i for i, ids in enumerate(ordered)}
    top_ids = sorted(keys[t.vertex_ids] for t in tops)
    k = Complex(pts, simplices, top_ids)
    # the tops' geometries are the ones Complex.geometry would build: the
    # same sorted vertex order
    k._geom.update((keys[t.vertex_ids], geo) for t, geo in zip(tops, geos))
    return k


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
