"""Run the demos end to end, each in its own interpreter.

The demos exercise every extraction mode, diverse included, through the
public API only, and each checks the outcome it describes, exiting non-zero
when it differs; the test asserts that each one exits 0.
``demos/risk_sweep_quickstart.py`` runs a 60-instance risk sweep and takes
about 10 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["plan_set_extraction_basics.py", "drone_delivery_mission.py", "risk_sweep_quickstart.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
