"""Benchmark of the saet toolkit: one user session per run, every answer checked.

Timed run (end-to-end metrics):

    python3 benchmark/run.py --workload grid-cut --seed 1 --seconds 20 --trace 0

Traced run (per-layer counts and self times):

    python3 benchmark/run.py --workload grid-cut --seed 1 --seconds 20 --trace 1

Run from the repository root.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The package is imported from ``src/`` beside this directory; without it the
run exits with code 2 and prints no result.  See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "_work")

# per workload: load repetitions, stage repetitions, verify calls, query
# pool sizes, and the shares of --seconds that differ from session.SHARES
PLANS = {
    # one validated load is ~10 s (8128 glue LPs): once per run
    "grid-cut": dict(setup_reps=1, min_reps=2, verify_reps=2, strata=8, germ_strata=4,
                     near=4, probes=9),
    "grid-puncture": dict(setup_reps=2, verify_reps=2, strata=16, germ_strata=6, probes=12),
    "wedge-stack-3d": dict(setup_reps=2, min_reps=2, verify_reps=2, strata=5, germ_strata=4,
                           probes=6),
    "corpus-verify": dict(setup_reps=3, verify_reps=3, strata=14, germ_strata=6, probes=32,
                          shares={"setup": 0.05, "analyze": 0.05, "embed": 0.05,
                                  "extend": 0.05, "verify": 0.6, "queries": 0.2}),
}

END_TO_END = {
    "setup_s": "s", "analyze_s": "s", "embed_s": "s", "extend_s": "s",
    "pipeline_s": "s", "roundtrip_per_s": "1/s", "roundtrip_p95_ms": "ms",
    "member_per_s": "1/s", "germ_eval_per_s": "1/s", "germ_eval_p95_ms": "ms",
    "probe_per_s": "1/s", "verify_s": "s", "peak_rss_mb": "MB",
}


def _import_saet() -> None:
    """Import saet from src/ beside this directory and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "saet", "__init__.py")):
        print(f"error: no saet package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import saet

    if os.path.dirname(os.path.abspath(saet.__file__)) != os.path.join(src, "saet"):
        print(f"error: saet imported from {saet.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def make_plan(workload: str, seconds: float | None, smoke: bool = False):
    import session

    spec = dict(PLANS[workload])
    shares = dict(session.SHARES)
    shares.update(spec.pop("shares", {}))
    if seconds is None:  # the traced run's fixed plan: everything once
        spec.update(setup_reps=1, min_reps=1, verify_reps=1)
    if smoke:
        spec.update(setup_reps=1, min_reps=1, verify_reps=1, strata=2, germ_strata=2,
                    probes=2)
    return session.Plan(seconds=seconds, shares=shares, **spec)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    import session
    import workloads

    inputs = workloads.generate(workload, seed, WORKDIR, smoke=smoke)
    print(json.dumps({"workload": workload, "seed": seed, "inputs": inputs.digests}))
    if not trace:
        sess = session.Session(inputs, make_plan(workload, seconds, smoke), seed)
        sess.run()
        metrics = sess.metrics()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reps = {key: len(v) for key, v in sess.times.items()} | sess.passes
        speed = statistics.median(sess.speed.factors)
        print(json.dumps({"sizes": sess.sizes, "reps": reps, "speed_factor": speed}))
        units = END_TO_END
    else:
        import tracing

        spans = os.path.join(WORKDIR, f"{workload}.spans.tsv")
        sess, metrics = tracing.traced_session(inputs, make_plan(workload, None, smoke),
                                               seed, spans)
        units = tracing.PER_LAYER
    if not smoke:
        with open(os.path.join(HERE, "inputs.json"), encoding="utf-8") as fh:
            want = json.load(fh)[workload]["sizes"]
        sess.fails.check("sizes", sess.sizes == want, f"{sess.sizes} != {want}")
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
    return {
        "correct": sess.fails.failed == 0 and not missing,
        "attempted": sess.fails.attempted,
        "failed": sess.fails.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one repetition of everything")
    args = parser.parse_args(argv)
    _import_saet()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
