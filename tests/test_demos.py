"""Run the fast demos end to end, each in its own interpreter.

Both demos exercise every extraction mode, diverse included, through the
public API only; the test asserts that each one exits 0.
``demos/risk_sweep_quickstart.py`` is left out: it runs a whole risk sweep
and takes about 15 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["plan_set_extraction_basics.py", "drone_delivery_mission.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
