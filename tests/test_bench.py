"""Smoke tests of `bench/run.py`: one short run must end in a JSON result line."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _refuse(name):
    raise ValueError(f"non-finite number {name} in the result line")


def _run_chains(trace):
    """Result line of a 1-second `chains` run, and the declared metric names."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return result, declared


def test_chains_run_ends_in_a_result_line():
    result, declared = _run_chains(trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    names = [m["name"] for m in declared["end_to_end"]]
    assert sorted(names) == ["cpu_s", "peak_rss_mb", "setup_s", "wall_s"]
    for name in names:
        assert isinstance(result["metrics"][name]["value"], (int, float)), name


def test_traced_chains_run_reports_every_per_layer_metric():
    # the tracer finds functions by name; renaming or deleting one that a
    # declared per-layer metric needs leaves that metric out, and this fails
    result, declared = _run_chains(trace=1)
    assert result["correct"] is True
    missing = [m["name"] for m in declared["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
