"""Per-layer tracing of a benchmark session.

The traced run wraps public functions of each ``saet`` layer and records
one span per call: name, start, end and the enclosing span.  A function a
module imported by name (``from .lp import intersection_excess``) is bound
in every module that imported it, so it is replaced in each of them; a
method or constructor is replaced on its class.  Spans are kept in memory,
aggregated into ``<layer>.<function>.calls`` and ``.self_s`` (span time
minus the time its child spans cover) and written to a TSV file at the end.

The traced session runs a fixed plan (every stage once, every query pool
once), so the counts repeat exactly at a fixed seed.  The same plan runs
untraced first; ``trace.overhead_ratio`` is the median over stages and
query kinds of traced over untraced time, both scaled to reference speed.
"""

from __future__ import annotations

import functools
import gc
import os
import statistics
import sys
import time
from array import array
from collections import Counter

import session

# wrapped targets: "module.function", "module.Class.method", or
# "module.Class" for the constructor; with an outcome recorded per call
TARGETS = {
    "io.complex_from_dict": None,
    "io.function_from_dict": None,
    "complexes.build_complex": None,
    "complexes.closure": None,
    "complexes.germ_connected": None,
    "complexes.local_dim": None,
    "complexes.eta": None,
    "complexes.Complex.locate": lambda sid: sid is not None,
    "lp.intersection_excess": None,
    "lp.solve_max": None,
    "lp.linear_feasible": None,
    "rationals.solve": None,
    "rationals.invert": None,
    "rationals.rank": None,
    "geometry.SimplexGeometry": None,
    "geometry.SimplexGeometry.coords_and_height_sq": None,
    "geometry.SimplexGeometry.contains_open": None,
    "metric.FaceFunctionals": None,
    "metric.certify_epsilon": lambda eps_sq: (eps_sq.denominator.bit_length() - 1) // 2,
    "metric.certificate_for": None,
    "metric.separating_hyperplane": None,
    "intervals.interval_sqrt": None,
    "intervals.sqrt_enclosure": None,
    "tubes.membership": None,
    "carve.appropriate_embed": None,
    "carve.CarvedSet.member": None,
    "carve.CarvedSet.closure_member": None,
    "carve.CarvedSet.crossing_forms": None,
    "carve.DeformationMap.evaluate": None,
    "extend.PLFFunction": None,
    "extend.weak_extension": None,
    "extend.face_limit": None,
    "extend.ratio_forms_equal_on": None,
    "germs.evaluate": None,
    "germs.eventual_simplex": lambda sid: sid is not None,
    "probe.probe_shell": lambda report: report.status,
    "verify.run_suite": None,
}

VERDICTS = ("Connected", "Disconnected", "Inconclusive")


def _per_layer() -> dict:
    """The reported per-layer metrics and their units."""
    calls = (
        "lp.intersection_excess", "lp.solve_max", "complexes.closure",
        "complexes.germ_connected", "complexes.local_dim", "complexes.eta",
        "metric.certify_epsilon", "metric.certificate_for",
        "metric.separating_hyperplane", "lp.linear_feasible", "metric.FaceFunctionals",
        "complexes.Complex.locate", "tubes.membership", "carve.CarvedSet.member",
        "carve.CarvedSet.closure_member", "carve.DeformationMap.evaluate",
        "intervals.interval_sqrt", "germs.evaluate",
        "geometry.SimplexGeometry.coords_and_height_sq", "probe.probe_shell",
        "carve.CarvedSet.crossing_forms", "extend.face_limit",
        "extend.ratio_forms_equal_on", "rationals.solve", "rationals.invert",
        "rationals.rank", "geometry.SimplexGeometry", "intervals.sqrt_enclosure",
    )
    self_s = (
        "lp.solve_max", "complexes.build_complex", "io.complex_from_dict",
        "complexes.closure", "complexes.germ_connected", "complexes.eta",
        "metric.certify_epsilon", "metric.certificate_for",
        "metric.separating_hyperplane", "metric.FaceFunctionals",
        "complexes.Complex.locate", "tubes.membership", "carve.CarvedSet.member",
        "carve.CarvedSet.closure_member", "carve.DeformationMap.evaluate",
        "intervals.interval_sqrt", "germs.evaluate", "germs.eventual_simplex",
        "probe.probe_shell", "carve.CarvedSet.crossing_forms", "extend.PLFFunction",
        "extend.weak_extension", "extend.face_limit", "extend.ratio_forms_equal_on",
        "io.function_from_dict", "rationals.solve", "rationals.invert",
        "rationals.rank", "geometry.SimplexGeometry", "carve.appropriate_embed",
        "verify.run_suite",
    )
    out = {f"{name}.calls": "count" for name in calls}
    out.update({f"{name}.self_s": "s" for name in self_s})
    out.update({
        "metric.eps_rounds": "count",
        "metric.eps_accept_ratio": "ratio",
        "complexes.Complex.locate.hit_ratio": "ratio",
        "germs.eventual_simplex.hit_ratio": "ratio",
    })
    out.update({f"probe.verdict.{v}": "count" for v in VERDICTS})
    out.update({"ops_failed_ratio": "ratio", "trace.spans": "count",
                "trace.overhead_ratio": "ratio"})
    return out


PER_LAYER = _per_layer()


class Tracer:
    """Span recorder; install() patches the targets, remove() undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.outcomes: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, outcome):
        nid = len(self.names)
        self.names.append(name)
        stack, names, parents = self.stack, self.span_name, self.span_parent
        starts, ends, outcomes = self.span_start, self.span_end, self.outcomes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if outcome is not None:
                outcomes[(name, outcome(result))] += 1
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "saet" or key.startswith("saet.")]
        for target, outcome in TARGETS.items():
            mod_name, _, rest = target.partition(".")
            owner = sys.modules[f"saet.{mod_name}"]
            parts = rest.split(".")
            obj = getattr(owner, parts[0])
            if isinstance(obj, type):
                cls = obj
                attr = parts[1] if len(parts) > 1 else "__init__"
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(target, original, outcome), original)
                continue
            wrapper = self._wrap(target, obj, outcome)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._set(mod, attr, wrapper, obj)

    def _set(self, owner, attr: str, new, original) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- aggregation --------------------------------------------------------

    def aggregate(self) -> dict:
        count = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        self_s = Counter()
        under = Counter()  # (child name, parent name) -> calls
        for i in range(count):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            p = self.span_parent[i]
            if p >= 0:
                under[(name, self.names[self.span_name[p]])] += 1
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        rounds = sum(r * c for (name, r), c in self.outcomes.items()
                     if name == "metric.certify_epsilon")
        out["metric.eps_rounds"] = rounds
        out["metric.eps_accept_ratio"] = calls["metric.certify_epsilon"] / rounds if rounds else 0.0
        locate_hits = self.outcomes[("complexes.Complex.locate", True)]
        tests = under[("geometry.SimplexGeometry.contains_open", "complexes.Complex.locate")]
        out["complexes.Complex.locate.hit_ratio"] = locate_hits / tests if tests else 0.0
        # eventual_simplex evaluates coords_and_height_sq at 3 points per cell
        cells = under[("geometry.SimplexGeometry.coords_and_height_sq",
                       "germs.eventual_simplex")] / 3
        hits = self.outcomes[("germs.eventual_simplex", True)]
        out["germs.eventual_simplex.hit_ratio"] = hits / cells if cells else 0.0
        for verdict in VERDICTS:
            out[f"probe.verdict.{verdict}"] = self.outcomes[("probe.probe_shell", verdict)]
        out["trace.spans"] = count
        return out

    def write(self, path: str) -> None:
        """One span per line: index, name, start, end, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}"
                         f"\t{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")


def _overhead(traced: session.Session, plain: session.Session) -> float:
    """Median over stages and query kinds of traced over untraced time, both
    at reference speed; one slow sample moves a median less than a sum."""
    a, b = traced.times | traced.latency, plain.times | plain.latency
    return statistics.median(sum(a[key]) / sum(b[key]) for key in a if sum(b.get(key, ())))


def traced_session(inputs, plan: session.Plan, seed: int, spans_path: str | None = None):
    """Run the fixed plan untraced, then traced; returns the traced session
    and its per-layer metrics."""
    plain = session.Session(inputs, plan, seed)
    plain.run()

    tracer = Tracer()
    sess = session.Session(inputs, plan, seed)
    gc.collect()
    tracer.install()
    try:
        sess.run()
    finally:
        tracer.remove()
    metrics = tracer.aggregate()
    metrics["trace.overhead_ratio"] = _overhead(sess, plain)
    fails = sess.fails
    metrics["ops_failed_ratio"] = fails.failed / fails.attempted if fails.attempted else 0.0
    fails.attempted += plain.fails.attempted
    fails.failed += plain.fails.failed
    if spans_path:
        tracer.write(spans_path)
    return sess, metrics
