"""The benchmark's self-test, run against this checkout.

perfbench/ wraps selfsim's public entry points by name, so renaming one
(or changing its signature) breaks the traced benchmark run; this test
catches that in the ordinary test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
