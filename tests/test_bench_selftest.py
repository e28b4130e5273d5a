"""The benchmark's own correctness checks against the program.

`bench/selftest.py` runs every check of the benchmark once on a good and
once on a known-bad input. It reads the report API (`records`, their
`position` on excluded points, `mean_curvature_at`) the way the workloads
do, so a change to that API fails here rather than in a benchmark run. It
runs in its own process, as the benchmark does.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
