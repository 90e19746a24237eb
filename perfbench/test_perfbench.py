"""The benchmark's own test: the smoke mode of run.py.

    python3 -m pytest perfbench

The smoke mode runs a tiny pass of every workload untraced and traced, and
fails unless every end-to-end metric is printed with its unit, every
per-layer metric is present in the traced output, every answer is right,
and no tracing wrapper is left installed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=os.path.dirname(HERE), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=300)
    out = proc.stdout.decode("utf-8", "replace")
    assert proc.returncode == 0, out
    assert out.rstrip().endswith("smoke: PASS"), out
