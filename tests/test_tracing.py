"""The benchmark's tracer against the names it wraps.

`bench/tracing.py` times the calls between marlift's modules by replacing
module attributes by name. A name that moves or disappears breaks only the
traced benchmark run, so this test installs the tracer and runs one small
`construct` under it. It runs in its own process because installing the
tracer patches marlift's modules for the rest of the process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import marlift
import marlift.cli
import tracing

tracer = tracing.Tracer()
tracer.install(marlift)
with tracer.recording():
    code = marlift.cli.main(["construct", "--entry", "torus", "--ambient",
                             "minkowski", "--grid", "5x5", "--out-dir", sys.argv[1]])
assert code == 0, code
layers = tracer.per_layer(1)
assert layers["verifier.points"][0] == 25, layers["verifier.points"]
assert layers["constructor.lift_evals"][0] > 0, layers["constructor.lift_evals"]
"""


def test_tracer_installs_and_records(tmp_path):
    path = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
