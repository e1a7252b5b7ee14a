"""The traced benchmark run patches saet functions by name; a rename in
src/saet would break it without any other test noticing."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_smoke_run_reports_every_layer():
    cmd = [sys.executable, os.path.join("benchmark", "run.py"), "--workload", "grid-cut",
           "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    sys.path.insert(0, os.path.join(ROOT, "benchmark"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    missing = set(tracing.PER_LAYER) - set(result["metrics"])
    assert not missing


def test_workload_inputs_match_manifest(tmp_path):
    # every workload writes the complex and the function whose digests
    # benchmark/inputs.json records, so a change to how functions are built
    # (interpolated_pl_function) or saved leaves the benchmark's inputs alone
    with open(os.path.join(ROOT, "benchmark", "inputs.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "benchmark"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name, want in manifest.items():
        assert workloads.generate(name, want["seed"], str(tmp_path)).digests == want["sha256"], name
