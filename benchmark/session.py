"""One user session against saet, stage by stage, with every answer checked.

A session is what a user of the ``saet`` command line does with one marked
complex and one function: load the complex (``setup``), analyse it, carve the
appropriate embedding, extend the function, then query the results (round
trips through the deformation maps, member tests, germ evaluations, shell
probes) and run the bundled verify suite.  Load is one client in a closed
loop: each operation starts when the previous one returns.

Every stage repetition runs on fresh objects, rebuilt outside the timed
region from the parsed JSON without glue validation, so the lazy caches of
``Complex`` start cold as they do in each CLI call.  ``gc.collect()`` runs
between repetitions, outside the timed region.

All saet calls go through module attributes (``complexes.eta``, not a name
imported from it), so the traced run's patches see them.
"""

from __future__ import annotations

import gc
import json
import random
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from saet import carve, complexes, extend, germs, io, probe, verify

import workloads

ROUNDTRIP_BITS = 128
ROUNDTRIP_WIDTH = Fraction(1, 2**30)
PROBE_SAMPLES = 32
# one reference sample: REFERENCE_ROUNDS matrices and WALK reads of a
# TABLE-entry dict, REFERENCE_S seconds on a quiet machine; times are
# reported at that speed
REFERENCE_ROUNDS = 2
WALK = 1500
TABLE = 1 << 15
REFERENCE_S = 0.0018
BRACKET = 6
TICK_S = 0.05
# query times are scaled in batches, and query kinds take turns, of at least
# this many raw seconds; a stage's turn (and scaled batch) is shorter, so
# that tiny stages still get many speed readings
BATCH_S = 0.25
STAGE_TURN_S = 0.05
# untimed operations before each query loop
WARMUP = 2

# share of the run's --seconds given to each repeated part
SHARES = {"setup": 0.2, "analyze": 0.1, "embed": 0.15, "extend": 0.15,
          "verify": 0.1, "queries": 0.3}
# whole passes over a query pool in a timed run; the kinds with a p95
# metric take the median of three latencies per query
MIN_PASSES = {"roundtrip": 3, "member": 1, "germ_eval": 3, "probe": 1}


@dataclass
class Plan:
    """How much work a run does.

    ``seconds`` None is the fixed plan of the traced run: every stage and
    every query pool runs once, so call counts repeat exactly.  Otherwise
    each stage repeats until it has its minimum count and has used its
    share of ``seconds``, and each query kind runs whole passes until it
    has MIN_PASSES passes and has used its share.
    """

    seconds: float | None
    setup_reps: int = 1
    min_reps: int = 3
    verify_reps: int = 3
    strata: int = 8  # member and round-trip points: one per strata**d sub-box
    germ_strata: int = 4  # germ starts: one per germ_strata**2 sub-box
    probes: int = 8
    near: int = 8  # extra round-trip points in each carved unit's outer shell
    shares: dict = field(default_factory=lambda: dict(SHARES))


class Failures:
    """Counts attempted and failed operations; reports the first few."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"{label}: check failed {detail}")
        return ok

    def error(self, label: str) -> None:
        self.attempted += 1
        self._fail(f"{label}: {traceback.format_exc(limit=3)}")

    def _fail(self, text: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAIL {text}", file=sys.stderr)


def _run_op(fails: Failures, speed: "Speedometer", label: str, fn, *args):
    """Call fn(*args) timed; returns (result, seconds) or (None, None) when
    it raises.  SaetError and any other exception count as failures.  Time
    the speedometer spent sampling during the call is not counted."""
    busy = speed.busy
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:  # noqa: BLE001 - every raise is a failed operation
        fails.error(label)
        return None, None
    return result, time.perf_counter() - t0 - (speed.busy - busy)


def _gauss_jordan(rounds: int) -> int:
    """Inverts `rounds` fixed 4x4 rational matrices, as saet's kernel does."""
    total, n = 0, 4
    for seed in range(rounds):
        a = [[Fraction((seed * 7 + i * 5 + j * 3) % 11 - 5, (i + j + seed) % 4 + 1)
              + 7 * (i == j) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
             for i in range(n)]
        for col in range(n):
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        faces = {tuple(sorted({seed % 9, i, j})) for i in range(9) for j in range(9)}
        total += a[0][n].denominator + len(faces)
    return total


class Speedometer:
    """Scales measured times to a fixed reference machine speed.

    The speed of a shared machine drifts by up to 2x within a minute, and
    CPU time drifts with it, so no number of repetitions averages it out.
    The speedometer times a short fixed reference loop: BRACKET times after
    each timed batch and, while sampling, every TICK_S seconds from a timer
    signal, also in the middle of long operations.  A batch's times are
    multiplied by REFERENCE_S over the median sample since the previous
    batch (its bracket included).  On a quiet machine the factor is about
    1; a change to saet cannot move the reference loop.  The time samples
    take inside an operation is subtracted from it (``busy``).
    """

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.factors: list[float] = []
        self.busy = 0.0
        self.pending: list[float] = []
        rng = random.Random(0)
        self.table = {(i, i * 7919 % TABLE): Fraction(i % 97 + 1, i % 89 + 1)
                      for i in range(TABLE)}
        self.keys = list(self.table)
        rng.shuffle(self.keys)
        self.at = 0
        self._bracket()

    def _reference(self) -> int:
        """Fixed work shaped like saet's own that no change to saet can
        move: Gauss-Jordan on small rational matrices (compute bound) and
        scattered reads of a table several MB large (memory bound); a
        machine slows the two kinds by different amounts, and saet's stages
        do both."""
        total = _gauss_jordan(REFERENCE_ROUNDS)
        keys = self.keys[self.at:self.at + WALK]
        self.at = (self.at + WALK) % (TABLE - WALK)
        for key in keys:
            total += self.table[key].numerator
        return total

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self._reference()
        self.pending.append(time.perf_counter() - t0)

    def _bracket(self) -> None:
        for _ in range(BRACKET):
            self._sample()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        if self.sampling:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, raw: list[float]) -> list[float]:
        self._bracket()
        factor = REFERENCE_S / statistics.median(self.pending)
        self.pending = self.pending[-BRACKET:]
        self.factors.append(factor)
        return [t * factor for t in raw]


def _cells_on(k, pred) -> set:
    """Ids of the cells all of whose vertices satisfy pred."""
    return {sid for sid, s in enumerate(k.simplices)
            if all(pred(k.vertices[v]) for v in s.vertex_ids)}


def _origin(k) -> int:
    return k.id_of((k.vertices.index((0,) * k.n),))


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


class Session:
    def __init__(self, inputs: workloads.Inputs, plan: Plan, seed: int):
        self.inputs = inputs
        self.plan = plan
        self.seed = seed
        self.fails = Failures()
        self.times: dict[str, list[float]] = {}
        self.sizes: dict[str, int] = {}
        self.latency: dict[str, list[float]] = {}
        self.passes: dict[str, int] = {}
        self.embedded = self.function = None
        self.speed = Speedometer(sampling=plan.seconds is not None)
        with open(inputs.complex_path, encoding="utf-8") as fh:
            self.complex_data = json.load(fh)
        with open(inputs.function_path, encoding="utf-8") as fh:
            self.function_data = json.load(fh)

    def fresh(self):
        """A cold (Complex, PLSet) rebuilt from the parsed input."""
        return io.complex_from_dict(self.complex_data, validate=False)

    # --- stages --------------------------------------------------------------

    def _setup_once(self):
        return _run_op(self.fails, self.speed, "setup", io.load_complex, self.inputs.complex_path)

    def _analyze_once(self):
        def analyze(m):
            cl = complexes.closure(m)
            e = complexes.eta(m)
            complexes.rho(m)
            complexes.lc_part(m)
            embedded = complexes.is_appropriately_embedded(m)
            germ_data = {
                sid: (complexes.germ_connected(m, sid), complexes.local_dim(m, sid))
                for sid in sorted(cl.members - m.members)
            }
            return e, embedded, germ_data

        k, m = self.fresh()
        res, dt = _run_op(self.fails, self.speed, "analyze", analyze, m)
        return (k, res) if res is not None else None, dt

    def _embed_once(self):
        _, m = self.fresh()
        return _run_op(self.fails, self.speed, "embed", carve.appropriate_embed, m)

    def _extend_once(self):
        def extend_(m):
            f = io.function_from_dict(self.function_data, m)
            return f, extend.weak_extension(f)

        _, m = self.fresh()
        return _run_op(self.fails, self.speed, "extend", extend_, m)

    def _verify_once(self):
        res, dt = _run_op(self.fails, self.speed, "verify", verify.run_suite, "full")
        if res is not None:
            self.fails.check("verify.ok", res.ok)
        return res, dt

    def stages(self):
        """Repeat setup, analyze, embed, extend and verify round-robin, each
        until it has its minimum count and has used its share of the
        budget.  A turn runs one stage for at least STAGE_TURN_S (one
        repetition if longer).  Interleaving spreads every stage's samples over the
        run, so a slow spell of the machine does not land on one stage only.
        A stage that fails stops repeating."""
        plan = self.plan
        specs = {
            "setup": (plan.setup_reps, self._setup_once),
            "analyze": (plan.min_reps, self._analyze_once),
            "embed": (plan.min_reps, self._embed_once),
            "extend": (plan.min_reps, self._extend_once),
            "verify": (plan.verify_reps, self._verify_once),
        }
        spent = dict.fromkeys(specs, 0.0)
        last: dict[str, object] = {}
        failed: set[str] = set()

        def wanted(name: str) -> bool:
            reps, _ = specs[name]
            if name in failed:
                return False
            if len(self.times.setdefault(f"{name}_s", [])) < reps:
                return True
            return plan.seconds is not None and spent[name] < plan.seconds * plan.shares[name]

        while todo := [name for name in specs if wanted(name)]:
            for name in todo:
                # one turn: repetitions of this stage until STAGE_TURN_S of work
                gc.collect()
                raw = []
                while wanted(name) and (not raw or sum(raw) < STAGE_TURN_S):
                    result, dt = specs[name][1]()
                    if dt is None:
                        failed.add(name)
                        break
                    raw.append(dt)
                    spent[name] += dt
                    self.times[f"{name}_s"].append(dt)
                    last[name] = result
                if raw:
                    self.times[f"{name}_s"][-len(raw):] = self.speed.scale(raw)
        self._check_stages(last)

    def _check_stages(self, last: dict) -> None:
        """The correctness gates on the last repetition of each stage."""
        if "setup" in last:
            k, m = last["setup"]
            self.fails.check("setup", m is not None and len(k.simplices) == len(self.fresh()[0].simplices))
            self.sizes.update(vertices=len(k.vertices), simplices=len(k.simplices),
                              top_cells=len(k.top_ids))
        if "analyze" in last:
            k, (e, embedded, _) = last["analyze"]
            want = self._expected_eta(k)
            self.fails.check("analyze.eta", e.members == want,
                             f"eta {sorted(e.members)} != {sorted(want)}")
            self.fails.check("analyze.embedded", embedded == (not want))
            self.sizes["eta_cells"] = len(e.members)
        self.embedded = last.get("embed")
        if self.embedded is not None:
            dims = [lv["dim"] for lv in self.embedded.levels]
            want = {"grid-cut": [1, 0], "grid-puncture": [0], "wedge-stack-3d": [],
                    "corpus-verify": [1, 0]}[self.inputs.name]
            self.fails.check("embed.levels", dims == want, f"dims {dims}")
            self.sizes["units"] = len(self.embedded.carved.units)
            self.fails.check("embed.units", self.sizes["units"] == self.sizes.get("eta_cells"))
        self.function = None
        if "extend" in last:
            self.function, rep = last["extend"]
            self._check_extension(self.function, rep)

    def _expected_eta(self, k) -> set:
        """The obstruction cells, from the geometry of the input alone."""
        name = self.inputs.name
        if name == "grid-cut":
            return _cells_on(k, lambda p: p[1] == Fraction(1, 2))
        if name == "grid-puncture":
            return set(self.inputs.punctures)
        if name == "corpus-verify":  # the x-axis minus the origin
            return _cells_on(k, lambda p: p[1] == 0) - {_origin(k)}
        return set()

    def _check_extension(self, f, rep) -> None:
        self.sizes["y_cells"] = len(rep.y_set.members)
        k, m = f.complex, f.domain
        name = self.inputs.name
        if name == "wedge-stack-3d":
            zaxis = _cells_on(k, lambda p: p[:2] == (0, 0)) - {_origin(k)}
            self.fails.check("extend.Y", rep.y_set.members == zaxis,
                             f"|Y| {len(rep.y_set.members)} != {len(zaxis)}")
            return
        self.fails.check("extend.Y", not rep.y_set.members)
        boundary = sorted(complexes.closure(m).members - m.members)
        if name == "grid-puncture":
            for sid in boundary:
                p = k.vertices[k.simplex(sid).vertex_ids[0]]
                form = rep.values[sid].as_affine() if sid in rep.values else None
                self.fails.check("extend.value", form is not None
                                 and form(p) == self.inputs.point_value(p))
            return
        oracle = extend.graph_closure_oracle(f)
        for sid in boundary:
            forms = oracle.fiber_forms(sid)
            self.fails.check(
                "extend.oracle",
                sid in rep.values and len(forms) == 1
                and extend.ratio_forms_equal_on(forms[0], rep.values[sid], k.coords(sid)),
            )

    # --- queries -------------------------------------------------------------

    def queries(self):
        """Seeded query pools on the carved set and the function, run in
        whole passes, round-robin over the kinds (see _passes)."""
        res, f = self.embedded, self.function
        if res is None or f is None:
            return
        rng = random.Random(self.seed)
        carved = res.carved
        box = self.inputs.box
        points = workloads.stratified_points(rng, box, self.plan.strata, keep=carved.member)
        for u in carved.units:
            points += [x for x in workloads.near_unit_points(u, rng, self.plan.near)
                       if carved.member(x)]

        def roundtrip(x):
            img = res.push.evaluate(res.pull.evaluate(x, bits=ROUNDTRIP_BITS),
                                    bits=ROUNDTRIP_BITS)
            return img.contains(x) and img.width <= ROUNDTRIP_WIDTH

        def member(x):
            inside = carved.member(x)
            return not inside or carved.closure_member(x)

        germ_pool = [
            (io.path_from_dict({"pieces": [{"t_end": "1", "c": [str(a) for a in c],
                                            "v": [str(b) for b in v]}]}),
             self.inputs.germ_value(c, v))
            for c, v in workloads.germ_queries(self.inputs.name, rng, self.plan.germ_strata, box)
        ]

        def germ_eval(item):
            alpha, want = item
            return germs.evaluate(f, alpha).pair() == want

        def probe_one(item):
            i, q, radius = item
            rep = carve.probe_germ(carved, q, radius, PROBE_SAMPLES, seed=i)
            return rep.status != probe.DISCONNECTED

        self._passes({
            "roundtrip": (roundtrip, points),
            "member": (member, workloads.stratified_points(rng, box, self.plan.strata)),
            "germ_eval": (germ_eval, germ_pool),
            "probe": (probe_one, self._probe_points(rng, carved, self.plan.probes)),
        })

    def _passes(self, loops: dict) -> None:
        """Closed loops over the query pools in whole passes, round-robin over
        the kinds: each kind runs MIN_PASSES passes (one in the fixed plan),
        then more until it has used its share of the budget.  A turn runs
        whole passes of one kind for at least BATCH_S; each pass starts
        after gc.collect() and ends with a speedometer bracket.  The first
        WARMUP queries of each kind run untimed first, so lazy per-complex
        caches are filled.  A query's latency is its median over passes."""
        per_item = {kind: [[] for _ in items] for kind, (_, items) in loops.items()}
        spent = dict.fromkeys(loops, 0.0)
        self.passes = dict.fromkeys(loops, 0)
        share = None if self.plan.seconds is None else (
            self.plan.seconds * self.plan.shares["queries"] / len(loops))
        for kind, (op, items) in loops.items():
            for item in items[:WARMUP]:
                ok, dt = _run_op(self.fails, self.speed, kind, op, item)
                if dt is not None:
                    self.fails.check(kind, ok)

        dead: set[str] = set()  # kinds whose every query failed in a pass

        def wanted(kind: str) -> bool:
            if not loops[kind][1] or kind in dead:
                return False
            if share is None:
                return self.passes[kind] < 1
            return self.passes[kind] < MIN_PASSES[kind] or spent[kind] < share

        while todo := [kind for kind in loops if wanted(kind)]:
            for kind in todo:
                # one turn: whole passes over this pool until BATCH_S of work
                op, items = loops[kind]
                turn = 0.0
                while not turn or (turn < BATCH_S and wanted(kind)):
                    # every pass starts from the same state: collected heap,
                    # caches just used by the speedometer's bracket
                    gc.collect()
                    batch = []
                    for idx, item in enumerate(items):
                        ok, dt = _run_op(self.fails, self.speed, kind, op, item)
                        if dt is None:
                            continue
                        self.fails.check(kind, ok)
                        batch.append((idx, dt))
                        spent[kind] += dt
                        turn += dt
                        if sum(t for _, t in batch) >= BATCH_S:
                            self._flush(batch, per_item[kind])
                            batch = []
                    if batch:
                        self._flush(batch, per_item[kind])
                    self.passes[kind] += 1
                    if not turn:
                        dead.add(kind)
                        break
        self.latency = {kind: [statistics.median(v) for v in lat if v]
                        for kind, lat in per_item.items()}

    def _flush(self, batch: list, per_item: list) -> None:
        scaled = self.speed.scale([dt for _, dt in batch])
        for (idx, _), t in zip(batch, scaled):
            per_item[idx].append(t)

    def _probe_points(self, rng, carved, count: int) -> list[tuple]:
        """Probe centres on carved ball walls; on the wedge (nothing carved)
        on the boundary faces y = 0 and y = x of the marked set."""
        out = []
        balls = [u for u in carved.units if u.is_ball]
        if balls:
            steep = self.inputs.name in ("grid-cut", "corpus-verify")
            per_ball = max(1, -(-count // len(balls)))
            for u in balls:
                r = workloads.exact_sqrt(u.inner.radius_sq)
                for q in workloads.circle_points(u.outer.center, r, rng, per_ball,
                                                 self.inputs.box, steep):
                    out.append((len(out), q, r / 4))
            return out[:max(count, len(balls))]
        for i in range(count):
            x = Fraction(rng.randint(8, 56), 64)
            z = Fraction(rng.randint(-56, 56), 64)
            q = (x, x if i % 2 else Fraction(0), z)
            out.append((i, q, Fraction(1, 64)))
        return out

    # --- whole session -------------------------------------------------------

    def run(self):
        with self.speed:
            self.stages()
            self.queries()

    def metrics(self) -> dict:
        med = {key: statistics.median(v) for key, v in self.times.items() if v}
        out = dict(med)
        stages = ("setup_s", "analyze_s", "embed_s", "extend_s")
        if all(s in med for s in stages):
            out["pipeline_s"] = sum(med[s] for s in stages)
        for kind, per_s, p95 in (("roundtrip", "roundtrip_per_s", "roundtrip_p95_ms"),
                                 ("member", "member_per_s", None),
                                 ("germ_eval", "germ_eval_per_s", "germ_eval_p95_ms"),
                                 ("probe", "probe_per_s", None)):
            lat = self.latency.get(kind)
            if lat:
                out[per_s] = len(lat) / sum(lat)
                if p95:
                    out[p95] = 1000 * _p95(lat)
        return out
