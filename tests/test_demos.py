"""Smoke tests of the demos: each runs as a script and reaches its conclusion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONCLUSIONS = {
    "certify_aklt.py": [
        "certified at n = 4: every periodic chain of length >= 9",
        "  has gap >= 1.388888888889 * 0.148955865859 = 0.206883147027",
    ],
    "coarse_grain_tour.py": [
        f"  Face axes=({axis},): matrix == source projection: True" for axis in range(3)
    ],
    "ferro_scaling.py": ["so every margin above is negative and no n certifies.  Correct: the"],
}


@pytest.mark.parametrize("demo", sorted(CONCLUSIONS))
def test_demo_reaches_its_conclusion(demo):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in CONCLUSIONS[demo]:
        assert line in lines
