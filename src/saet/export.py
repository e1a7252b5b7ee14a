"""Static geometry export: OFF/OBJ meshes of complexes, tube and carved-set
rasterizations, and extension neighborhoods.  Ambient dimension up to 3."""

from __future__ import annotations

from fractions import Fraction

from .carve import CarvedSet
from .complexes import Complex, PLSet
from .errors import DimensionTooHigh, PreconditionViolated
from .extend import ExtensionReport
from .intervals import BoxNumerators
from .tubes import OUTSIDE, Tube, VertexBall, membership, reach_bounds


def _coord(x: Fraction) -> str:
    return repr(float(x))


def _pad(v, n: int = 3):
    return tuple(v) + (Fraction(0),) * (n - len(v))


def export_mesh(k: Complex, marked: PLSet | None, path: str, fmt: str = "obj") -> None:
    """Write the marked cells (or the whole complex) as a static mesh.

    Vertices, edges and triangles are emitted; higher-dimensional cells
    contribute their triangles.  OBJ uses 'l' records for edges; OFF lists
    faces only.
    """
    if k.n > 3:
        raise DimensionTooHigh(f"mesh export supports n <= 3, got {k.n}")
    members = sorted(marked.members) if marked is not None else range(len(k.simplices))
    edges, faces = set(), set()
    for sid in members:
        ids = k.simplex(sid).vertex_ids
        if len(ids) == 2:
            edges.add(ids)
        elif len(ids) >= 3:
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    for l in range(j + 1, len(ids)):
                        faces.add((ids[i], ids[j], ids[l]))
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "obj":
            for v in k.vertices:
                fh.write("v " + " ".join(_coord(c) for c in _pad(v)) + "\n")
            for e in sorted(edges):
                fh.write(f"l {e[0] + 1} {e[1] + 1}\n")
            for f in sorted(faces):
                fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
        elif fmt == "off":
            fh.write("OFF\n")
            fh.write(f"{len(k.vertices)} {len(faces)} {len(edges)}\n")
            for v in k.vertices:
                fh.write(" ".join(_coord(c) for c in _pad(v)) + "\n")
            for f in sorted(faces):
                fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")


def _grid_raster(member, box: BoxNumerators, path: str, resolution: int) -> None:
    """Rasterize a membership predicate over a rational grid on the box.

    2D: marching-squares boundary segments as OBJ lines.  3D: voxel faces
    between inside and outside cells (blocky but deterministic).  The
    resolution, the number of grid steps per axis, must be an int (a bool
    or float raises TypeError) of at least 1.
    """
    if isinstance(resolution, bool) or not isinstance(resolution, int):
        raise TypeError(f"the resolution must be an int, got {resolution!r}")
    if resolution < 1:
        raise PreconditionViolated(f"the resolution must be at least 1, got {resolution}")
    n = len(box.lo)
    steps = resolution
    axes = [
        [Fraction(lo * (steps - i) + hi * i, box.q * steps) for i in range(steps + 1)]
        for lo, hi in zip(box.lo, box.hi)
    ]
    if n == 2:
        xs, ys = axes
        inside = {}
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                inside[i, j] = member((x, y))
        verts: list[tuple] = []
        lines = []

        def emit(p, q):
            verts.append(p)
            verts.append(q)
            lines.append((len(verts) - 1, len(verts)))

        for i in range(steps):
            for j in range(steps):
                corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                vals = [inside[c] for c in corners]
                if all(vals) or not any(vals):
                    continue
                # midpoints of sign-changing cell edges, joined pairwise
                mids = []
                for a in range(4):
                    b = (a + 1) % 4
                    if vals[a] != vals[b]:
                        pa = (xs[corners[a][0]], ys[corners[a][1]])
                        pb = (xs[corners[b][0]], ys[corners[b][1]])
                        mids.append(tuple((u + w) / 2 for u, w in zip(pa, pb)))
                for a in range(0, len(mids) - 1, 2):
                    emit(mids[a], mids[a + 1])
        with open(path, "w", encoding="utf-8") as fh:
            for v in verts:
                fh.write("v " + " ".join(_coord(c) for c in _pad(v)) + "\n")
            for a, b in lines:
                fh.write(f"l {a} {b}\n")
    elif n == 3:
        xs, ys, zs = axes
        inside = {}
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                for l, z in enumerate(zs):
                    inside[i, j, l] = member((x, y, z))
        verts: list[tuple] = []
        vid: dict[tuple, int] = {}
        quads = []

        def vindex(p):
            if p not in vid:
                vid[p] = len(verts) + 1
                verts.append(p)
            return vid[p]

        deltas = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        h = [Fraction(hi - lo, 2 * steps * box.q) for lo, hi in zip(box.lo, box.hi)]
        for i in range(steps + 1):
            for j in range(steps + 1):
                for l in range(steps + 1):
                    for d in deltas:
                        ni, nj, nl = i + d[0], j + d[1], l + d[2]
                        if ni > steps or nj > steps or nl > steps:
                            continue
                        if inside[i, j, l] == inside[ni, nj, nl]:
                            continue
                        # quad separating the two grid nodes
                        mid = (
                            (xs[i] + xs[ni]) / 2,
                            (ys[j] + ys[nj]) / 2,
                            (zs[l] + zs[nl]) / 2,
                        )
                        u, w = [k for k in range(3) if d[k] == 0]
                        corners = []
                        for su, sw in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
                            c = list(mid)
                            c[u] += su * h[u]
                            c[w] += sw * h[w]
                            corners.append(vindex(tuple(c)))
                        quads.append(corners)
        with open(path, "w", encoding="utf-8") as fh:
            for v in verts:
                fh.write("v " + " ".join(_coord(c) for c in v) + "\n")
            for qd in quads:
                fh.write("f " + " ".join(str(i) for i in qd) + "\n")
    else:
        raise DimensionTooHigh(f"rasterization supports n in (2, 3), got {n}")


def export_tube(tube: Tube | VertexBall, path: str, resolution: int = 48) -> None:
    """Rasterized boundary of the closed tube (lens-shaped in the plane),
    over its ``tubes.reach_bounds``."""
    _grid_raster(lambda x: membership(tube, x) != OUTSIDE, reach_bounds(tube), path, resolution)


def export_carved(carved: CarvedSet, path: str, resolution: int = 48) -> None:
    """Rasterized carved set over the bounding box of the complex."""
    k = carved.base.complex
    if k.n > 3:
        raise DimensionTooHigh(f"rasterization supports n <= 3, got {k.n}")
    _grid_raster(carved.member, BoxNumerators.of_points(k.vertex_rows), path, resolution)


def export_extension(report: ExtensionReport, path: str, fmt: str = "obj") -> None:
    """Mesh of the extension neighborhood minus the conflict set."""
    k = report.domain.complex
    good = PLSet(k, report.v_set.members - report.y_set.members)
    export_mesh(k, good, path, fmt=fmt)
