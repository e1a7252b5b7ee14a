"""Command line front end.

Subcommands: analyze, carve, extend, eval, verify, export.  There are no
global options; ``verify --precision BITS`` sets the enclosure width
target (2^-BITS) of the invariant suite.
Exit codes: 0 ok, 1 check failure or rejected input (one ``error:`` line on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .carve import _rational_normal, appropriate_embed, carve_level
from .complexes import closure, eta, germ_connected, is_appropriately_embedded, lc_part, local_dim, rho
from .errors import ParseError, SaetError
from .extend import weak_extension
from .germs import evaluate
from .io import carved_to_dict, load_complex, load_function, load_path
from .rationals import rat_str, rational_sqrt
from .verify import run_and_time

# largest shell radius of a `carve --probe` wall probe
_PROBE_RADIUS = Fraction(1, 64)


def _load_marked(path: str):
    k, marked = load_complex(path)
    if marked is None:
        raise SaetError(f"{path} carries no marked set ('in_M')")
    return k, marked


def cmd_analyze(args) -> int:
    k, m = _load_marked(args.input)
    cl = closure(m)
    e = eta(m)
    germ_data = {}
    for sid in sorted(cl.members - m.members):
        germ_data[sid] = {
            "connected": germ_connected(m, sid),
            "local_dim": local_dim(m, sid),
            "in_eta": sid in e.members,
        }
    report = {
        "simplices": len(k.simplices),
        "members": sorted(m.members),
        "rho": sorted(rho(m).members),
        "lc_part": sorted(lc_part(m).members),
        "eta": sorted(e.members),
        "germs": germ_data,
        "appropriately_embedded": is_appropriately_embedded(m),
    }
    _emit(report, args.out)
    return 0


def cmd_carve(args) -> int:
    _, m = _load_marked(args.input)
    result = appropriate_embed(m)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "carved.json"), "w", encoding="utf-8") as fh:
        json.dump(carved_to_dict(result.carved), fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "certificates.json"), "w", encoding="utf-8") as fh:
        json.dump(result.certificates, fh, indent=1, sort_keys=True)
        fh.write("\n")
    summary = {"levels": result.levels, "units": len(result.carved.units)}
    bad = 0
    if args.probe:
        from .carve import probe_germ
        from .probe import DISCONNECTED

        # probe the carved boundary at rational wall points when available;
        # the shell stays within half the distance to the removed base
        reports = []
        for u in result.carved.units:
            pts = _wall_probe_points(result.carved, u, args.probe)
            for i, (q, d) in enumerate(pts):
                radius = min(_PROBE_RADIUS, d / 2)
                rep = probe_germ(result.carved, q, radius, 32, seed=i)
                reports.append(rep.status)
                bad += rep.status == DISCONNECTED
        summary["probe"] = {"statuses": reports, "disconnected": bad}
    _emit(summary, None)
    return 1 if bad else 0


def _wall_probe_points(carved, unit, count: int):
    """Rational points on the inner wall of a carved unit, each paired with
    its distance to the removed base (the unit's centre or segment)."""
    pts = []
    if unit.is_ball:
        r = rational_sqrt(unit.inner.radius_sq)
        if r is None:
            return pts
        c = unit.outer.center
        for i in range(count):
            # rational circle points from Pythagorean parametrization
            t = Fraction(i + 1, count + 1)
            den = 1 + t * t
            d = (r * (1 - t * t) / den, r * 2 * t / den) + (Fraction(0),) * (len(c) - 2)
            q = tuple(a + b for a, b in zip(c, d))
            if carved.closure_member(q) and not carved.member(q):
                pts.append((q, r))
        return pts
    ds = rational_sqrt(unit.inner.eps_star_sq)
    geo = unit.inner.geometry
    if ds is None or len(geo.vertices) != 2:  # segment bases only
        return pts
    found = _rational_normal(unit.inner)
    if found is None:
        return pts
    normal, length = found
    for i in range(count):
        t = Fraction(i + 1, count + 1)
        foot = geo.point_at([t, 1 - t])
        root = rational_sqrt(geo.boundary_dist_sq(foot))
        if root is None:
            continue
        h = ds * root / length
        q = tuple(f + h * c for f, c in zip(foot, normal))
        if carved.closure_member(q) and not carved.member(q):
            pts.append((q, ds * root))
    return pts


def cmd_extend(args) -> int:
    k, m = _load_marked(args.complex)
    f = load_function(args.function, m, validate_continuity=not args.allow_jumps)
    rep = weak_extension(f)
    from .io import _affine_to_list

    values = {}
    for sid in sorted(rep.values):
        if sid in m.members:
            continue
        form = rep.values[sid].as_affine()
        values[str(sid)] = _affine_to_list(form) if form is not None else "ratio"
    report = {
        "V": sorted(rep.v_set.members),
        "Y": sorted(rep.y_set.members),
        "values": values,
        "hypothesis_ok": rep.hypothesis_ok,
        "hypothesis_violations": rep.hypothesis_violations,
        "y_dim_ok": rep.y_dim_ok,
        "infinite_faces": rep.infinite_faces,
    }
    _emit(report, args.out)
    return 0


def cmd_eval(args) -> int:
    k, m = _load_marked(args.complex)
    f = load_function(args.function, m, validate_continuity=not args.allow_jumps)
    alpha = load_path(args.path)
    if len(alpha.limit) != k.n:
        raise ParseError(f"the path must be {k.n}-dimensional, like the complex")
    value = evaluate(f, alpha)
    print(f"({rat_str(value.a)}, {rat_str(value.b)})")
    return 0


def cmd_verify(args) -> int:
    manifest, elapsed = run_and_time(args.suite, precision_bits=args.precision)
    text = manifest.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"wall_time_s {elapsed:.3f}", file=sys.stderr)
    for c in manifest.checks:
        status = "pass" if c["pass"] else "FAIL"
        print(f"{status} {c['name']}", file=sys.stderr)
    return 0 if manifest.ok else 1


def cmd_export(args) -> int:
    from .export import export_carved, export_extension, export_mesh, export_tube

    k, m = _load_marked(args.input)
    if args.what == "mesh":
        export_mesh(k, m, args.out, fmt=args.format)
    elif args.what == "tubes":
        # the first unit the carve certifies: a tube, or a ball around a vertex
        e = eta(m)
        if not e.members:
            raise SaetError("no obstruction cells to build tubes on")
        d = max(k.dim_of(t) for t in e.members)
        carved, _, _ = carve_level(m, [t for t in sorted(e.members) if k.dim_of(t) == d])
        export_tube(carved.units[0].outer, args.out, resolution=args.resolution)
    elif args.what == "carved":
        result = appropriate_embed(m)
        export_carved(result.carved, args.out, resolution=args.resolution)
    elif args.what == "extension":
        if not args.function:
            raise SaetError("extension export needs --function")
        f = load_function(args.function, m, validate_continuity=not args.allow_jumps)
        export_extension(weak_extension(f), args.out, fmt=args.format)
    return 0


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="saet",
        description="exact toolkit for piecewise-linear semialgebraic sets",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="strata, germ data and obstruction set")
    pa.add_argument("input")
    pa.add_argument("--out")
    pa.set_defaults(fn=cmd_analyze)

    pc = sub.add_parser("carve", help="construct the appropriate embedding")
    pc.add_argument("input")
    pc.add_argument("--out", required=True)
    pc.add_argument("--probe", type=int, default=0,
                    help="probe count per carved boundary piece")
    pc.set_defaults(fn=cmd_carve)

    pe = sub.add_parser("extend", help="weak continuous extension report")
    pe.add_argument("complex")
    pe.add_argument("function")
    pe.add_argument("--out")
    pe.add_argument("--allow-jumps", action="store_true",
                    help="skip the piece-continuity validation")
    pe.set_defaults(fn=cmd_extend)

    pv = sub.add_parser("eval", help="evaluate a function along a path germ")
    pv.add_argument("complex")
    pv.add_argument("function")
    pv.add_argument("--path", required=True)
    pv.add_argument("--allow-jumps", action="store_true")
    pv.set_defaults(fn=cmd_eval)

    pf = sub.add_parser("verify", help="run the invariant suite")
    pf.add_argument("suite", nargs="?", default="full")
    pf.add_argument("--out")
    pf.add_argument("--precision", type=int, default=60,
                    help="target enclosure width exponent (2^-BITS)")
    pf.set_defaults(fn=cmd_verify)

    px = sub.add_parser("export", help="write static geometry files")
    px.add_argument("input")
    px.add_argument("what", choices=["mesh", "tubes", "carved", "extension"])
    px.add_argument("--out", required=True)
    px.add_argument("--format", choices=["obj", "off"], default="obj")
    px.add_argument("--resolution", type=int, default=48)
    px.add_argument("--function")
    px.add_argument("--allow-jumps", action="store_true")
    px.set_defaults(fn=cmd_export)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SaetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
