"""The demo scripts run to completion and print something.

Each demo runs as its own process with `src` on PYTHONPATH, as a reader
would run it.  Demo 05 (about 13–17 s, the golden L^q curve) is left out to
keep the suite fast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_exact_field_arithmetic", "02_neighbor_maps", "03_atom_automaton",
         "04_exact_masses", "06_two_scale_system"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
