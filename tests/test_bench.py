"""Smoke test of `bench/run.py`: one short run must end in a JSON result line."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _refuse(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_chains_run_ends_in_a_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert sorted(names) == ["cpu_s", "peak_rss_mb", "setup_s", "wall_s"]
    for name in names:
        assert isinstance(result["metrics"][name]["value"], (int, float)), name
