"""Smoke test of the benchmark itself; runs in about a minute.

    python3 benchmark/smoke.py

For every workload at smoke size (2x2 cut grid, 4x4 punctured grid, a
two-prism wedge stack, the corpus with one verify call) it checks that

* the timed run passes every correctness gate and reports every
  end-to-end metric;
* two traced runs at one seed, in separate processes, report identical
  call counts and every per-layer metric;

and, at full size, that the generated inputs at the recorded seed match
the digests in inputs.json.  Finally it checks that the benchmark refuses
to run, with a non-zero exit and no result, in a directory that holds only
BENCHMARK.json and this directory.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("benchmark", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(".calls") or name.startswith("probe.verdict.")
            or name in ("metric.eps_rounds", "trace.spans")}


def check_workload(name: str, end_to_end: set, per_layer: set) -> None:
    common = ["--workload", name, "--seed", str(SEED), "--seconds", "1", "--smoke"]
    timed = _result(_run(common + ["--trace", "0"]))
    assert timed["correct"] and timed["failed"] == 0, timed
    assert set(timed["metrics"]) == end_to_end, set(timed["metrics"]) ^ end_to_end
    traced = [_result(_run(common + ["--trace", "1"])) for _ in range(2)]
    for res in traced:
        assert res["correct"] and res["failed"] == 0, res
        assert set(res["metrics"]) == per_layer, set(res["metrics"]) ^ per_layer
    first, second = (_counts(res["metrics"]) for res in traced)
    assert first == second, {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert first["complexes.eta.calls"] > 0 and first["trace.spans"] > 0
    print(f"ok {name}: {timed['attempted']} checked operations, "
          f"{len(first)} traced counts repeat")


def check_inputs() -> None:
    import workloads

    with open(os.path.join(HERE, "inputs.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    workdir = os.path.join(HERE, "_work", "smoke-inputs")
    for name, want in manifest.items():
        got = workloads.generate(name, want["seed"], workdir).digests
        assert got == want["sha256"], (name, got)
    print(f"ok inputs: {len(manifest)} workloads match inputs.json")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(["--workload", "grid-cut", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok bare directory: exit {proc.returncode}, no result")


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run
    import tracing

    for name in run.PLANS:
        check_workload(name, set(run.END_TO_END), set(tracing.PER_LAYER))
    check_inputs()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
