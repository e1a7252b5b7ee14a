"""End-to-end verification driver: runs the invariant battery over the
bundled corpus and records a deterministic run manifest.

The manifest contains only reproducible data (command, input digests,
precision, per-check results, certificate summaries); wall time is
reported separately so that identical inputs produce byte-identical
manifests.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import fixtures
from .carve import appropriate_embed, deformation_coeffs
from .complexes import (
    PLSet,
    barycentric_subdivide,
    closure,
    eta,
    is_appropriately_embedded,
    lc_part,
    rho,
)
from .errors import SaetError
from .extend import graph_closure_oracle, ratio_forms_equal_on, weak_extension
from .geometry import SimplexGeometry, common_face
from .germs import PathGerm, evaluate
from .io import complex_to_dict
from .metric import (FaceFunctionals, certificate_for, certify_epsilon, incenter,
                     separating_hyperplane)
from .tubes import OUTSIDE, Tube, hat_lift_membership, membership

GROUPS = ("complex", "metric", "tube", "carve", "extend", "germs")


def default_corpus() -> dict:
    k = fixtures.square_complex()
    kc = fixtures.wedge_complex()
    return {
        "square": k,
        "wedge": kc,
        "fix_a": fixtures.fix_a(k),
        "fix_b": fixtures.fix_b(k),
        "fix_c": fixtures.fix_c(kc),
        "punctured": fixtures.punctured_square(k),
        "fix_t": fixtures.fix_t(),
    }


@dataclass
class RunManifest:
    command: str
    inputs: dict
    precision_bits: int
    checks: list = field(default_factory=list)
    certificates: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "pass": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "precision_bits": self.precision_bits,
            "checks": self.checks,
            "certificates": self.certificates,
            "pass": self.ok,
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_suite(suite: str = "full", corpus: dict | None = None,
              precision_bits: int = 60) -> RunManifest:
    """Run the named suite ('full' or a comma list of check groups) on the
    corpus; returns the manifest.  An empty selection is a no-op pass; a
    group name outside ``GROUPS`` raises ``SaetError``."""
    groups = [] if suite in ("", "none") else (
        list(GROUPS) if suite == "full" else [g.strip() for g in suite.split(",")]
    )
    unknown = [g for g in groups if g not in GROUPS]
    if unknown:
        raise SaetError(f"unknown check group(s) {', '.join(map(repr, unknown))}; a suite "
                        f"is 'full' or a comma list of {', '.join(GROUPS)}")
    corpus = corpus if corpus is not None else default_corpus()
    manifest = RunManifest(
        command=f"verify {suite}",
        inputs={
            name: _digest(complex_to_dict(v.complex if isinstance(v, PLSet) else v,
                                          v if isinstance(v, PLSet) else None))
            for name, v in corpus.items()
            if not isinstance(v, Tube)
        },
        precision_bits=precision_bits,
    )
    rng = random.Random(20260810)
    a = corpus["fix_a"]
    b = corpus["fix_b"]
    c = corpus["fix_c"]
    k = a.complex

    if "complex" in groups:
        e = eta(a)
        axis = {
            i for i, s in enumerate(k.simplices)
            if all(k.vertices[v][1] == 0 for v in s.vertex_ids) and i != k.id_of((0,))
        }
        manifest.add("eta_fix_a", e.members == axis, f"eta = {sorted(e.members)}")
        manifest.add("eta_fix_b_empty", not eta(b).members)
        manifest.add("eta_fix_c_empty", is_appropriately_embedded(c))
        manifest.add("rho_fix_a", rho(a).members == {k.id_of((0,))})
        for _ in range(20):
            sample = PLSet(k, rng.sample(range(len(k.simplices)), rng.randint(1, 20)))
            if closure(closure(sample)) != closure(sample):
                manifest.add("closure_idempotent", False)
                break
            if rho(lc_part(sample)).members:
                manifest.add("rho_of_lc_empty", False)
                break
        else:
            manifest.add("closure_idempotent", True)
            manifest.add("rho_of_lc_empty", True)
        sub, sub_marked = barycentric_subdivide(k, a)
        pts = []
        for _ in range(60):
            x = Fraction(rng.randint(-64, 64), 64)
            y = Fraction(rng.randint(-64, 64), 64)
            pts.append((x, y))
        same = all(a.contains_point(p) == sub_marked.contains_point(p) for p in pts)
        manifest.add("subdivision_preserves_set", same)

    if "metric" in groups:
        ok = True
        for _ in range(10):
            verts = _random_simplex(rng, dim=2, n=3)
            ff = FaceFunctionals(verts)
            x = _random_interior_point(rng, verts)
            ok = ok and sum(f(x) for f in ff.forms) == 1
        manifest.add("partition_identity", ok)
        p, r = incenter([(0, 0), (1, 0), (0, 1)], Fraction(1, 2**precision_bits))
        ok = r.width <= Fraction(1, 2**precision_bits) and p.width <= Fraction(
            1, 2**precision_bits
        )
        manifest.add("incenter_width", ok, f"width <= 2^-{precision_bits}")
        ok = True
        for _ in range(10):
            pair = _random_glued_pair(rng)
            if pair is None:
                continue
            v1, v2, shared = pair
            h = separating_hyperplane(v1, v2)
            ok = ok and all(h.form(v) == 0 for v in shared)
            ok = ok and all(h.form(v) <= -1 for v in v1 if v not in shared)
            ok = ok and all(h.form(v) >= 1 for v in v2 if v not in shared)
        manifest.add("strict_separation_signs", ok)
        eps = certify_epsilon(k, k.id_of((0, 1)), peers=[k.id_of((0, 5))])
        try:
            recs = certificate_for(k, k.id_of((0, 1)), eps, peers=[k.id_of((0, 5))])
            manifest.add("certify_recheck", True)
            manifest.certificates.extend(recs)
        except Exception as e:  # pragma: no cover
            manifest.add("certify_recheck", False, str(e))

    if "tube" in groups:
        t = corpus["fix_t"]
        bad = 0
        for _ in range(400):
            x = (Fraction(rng.randint(-40, 72), 32), Fraction(rng.randint(-32, 32), 32))
            if (membership(t, x) != OUTSIDE) != hat_lift_membership(t, x):
                bad += 1
        manifest.add("tube_hat_agreement", bad == 0, f"{bad} disagreements")
        small, big = Tube(t.vertices, t.eps_sq / 4), t
        ok = True
        for _ in range(100):
            x = (Fraction(rng.randint(0, 64), 64), Fraction(rng.randint(-16, 16), 64))
            if membership(small, x) != OUTSIDE and membership(big, x) == OUTSIDE:
                ok = False
        manifest.add("tube_monotone_in_eps", ok)

    if "carve" in groups:
        co = deformation_coeffs(Fraction(1, 4), Fraction(1, 2))
        manifest.add(
            "deformation_identities",
            co.a1 + co.a2 * co.b2 == 0 and co.a2 * co.b1 == 1,
        )
        res = appropriate_embed(a)
        dims = [lv["dim"] for lv in res.levels]
        manifest.add("carve_levels_decrease", dims == sorted(dims, reverse=True),
                     f"dims {dims}")
        n = res.carved
        ok = True
        width_cap = Fraction(1, 2**30)
        count = 0
        for _ in range(60):
            x = (Fraction(rng.randint(-64, 64), 64), Fraction(rng.randint(-64, 64), 64))
            if not n.member(x):
                continue
            count += 1
            img = res.push.evaluate(res.pull.evaluate(x, bits=128), bits=128)
            ok = ok and img.contains(x) and img.width <= width_cap
        manifest.add("carve_roundtrip", ok and count > 10, f"{count} samples")
        manifest.certificates.extend(res.certificates)

    g = fixtures.scaled_slope_function_c(c) if {"extend", "germs"} & set(groups) else None
    if "extend" in groups:
        rep = weak_extension(g)
        kc = c.complex
        zaxis = {
            i for i, s in enumerate(kc.simplices)
            if all(kc.vertices[v][0] == 0 and kc.vertices[v][1] == 0
                   for v in s.vertex_ids) and i != kc.id_of((0,))
        }
        manifest.add("sharpness_conflicts", rep.y_set.members == zaxis)
        origin_val = rep.value_on(kc.id_of((0,))).as_affine()
        manifest.add("sharpness_origin_value",
                     origin_val is not None and origin_val.is_zero())
        f_pl = fixtures.step_function_a(a)
        rep_a = weak_extension(f_pl)
        orc = graph_closure_oracle(f_pl)
        ok = True
        for beta in sorted(closure(a).members - a.members):
            forms = orc.fiber_forms(beta)
            if beta in rep_a.values:
                ok = ok and len(forms) == 1 and ratio_forms_equal_on(
                    forms[0], rep_a.values[beta], k.coords(beta)
                )
            else:
                ok = ok and len(forms) > 1
        manifest.add("oracle_equivalence_step", ok)

    if "germs" in groups:
        val = evaluate(g, PathGerm.linear((0, 0, 1), (2, 1, 0)))
        manifest.add("germ_eval_example", val.pair() == (Fraction(1, 2), Fraction(0)))
        fx = fixtures.interpolated_pl_function(
            b, {vid: b.complex.vertices[vid][0] for vid in range(len(b.complex.vertices))}
        )
        rep_b = weak_extension(fx)
        manifest.add("dim2_no_conflicts", not rep_b.y_set.members)

    return manifest


def _random_simplex(rng: random.Random, dim: int, n: int):
    from .rationals import affinely_independent

    while True:
        verts = [
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
            for _ in range(dim + 1)
        ]
        if len(set(verts)) == dim + 1 and affinely_independent(verts):
            return verts


def _random_interior_point(rng: random.Random, verts):
    w = [Fraction(rng.randint(1, 16)) for _ in verts]
    tot = sum(w)
    return tuple(
        sum(wi * v[c] for wi, v in zip(w, verts)) / tot for c in range(len(verts[0]))
    )


def _random_glued_pair(rng: random.Random):
    from .rationals import affinely_independent

    n = 3
    shared_dim = rng.randint(0, 1)
    shared = [_random_interior_point(rng, [_random_simplex(rng, 0, n)[0]])
              for _ in range(shared_dim + 1)]
    extra1 = [tuple(Fraction(rng.randint(1, 8), 2) for _ in range(n))]
    extra2 = [tuple(Fraction(-rng.randint(1, 8), 2) for _ in range(n))]
    v1 = shared + extra1
    v2 = shared + extra2
    if not (affinely_independent(v1) and affinely_independent(v2)):
        return None
    idx = list(range(len(shared)))
    if not common_face(SimplexGeometry(v1), SimplexGeometry(v2), idx, idx):
        return None
    return v1, v2, shared


def run_and_time(suite: str = "full", corpus: dict | None = None,
                 precision_bits: int = 60) -> tuple[RunManifest, float]:
    start = time.monotonic()
    manifest = run_suite(suite, corpus, precision_bits)
    return manifest, time.monotonic() - start
