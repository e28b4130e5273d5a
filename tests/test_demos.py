"""The demos run as scripts against the package in `src`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each demo and a line of its output that names a verdict it must reach
DEMOS = {
    "01_flat_torus_lift": "verdict: marginally_trapped",
    "02_curved_space_forms": "verdict: marginally_trapped",
    "03_product_ambients": "non-minimal torus, root 1: height 1.3562, "
                           "verdict marginally_trapped",
    "04_published_families": "chen-l4          ambient=antidesitter       "
                             "verdict=marginally_trapped",
    "05_support_functions": "direct route verdict: marginally_trapped",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
