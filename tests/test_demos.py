"""Run the demos end to end, each in its own interpreter.

The demos exercise every extraction mode, diverse included, through the
public API only, and each checks the outcome it describes, exiting non-zero
when it differs; the test asserts that each one exits 0.  The README's
library quickstart and bound study are run the same way, the study at a
reduced size.
``demos/risk_sweep_quickstart.py`` runs a 60-instance risk sweep and takes
about 10 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from planset.cli import _COMMANDS, CONFIG_KEYS
from planset.experiment import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "demo", ["plan_set_extraction_basics.py", "drone_delivery_mission.py", "risk_sweep_quickstart.py"]
)
def test_demo_runs(demo):
    done = _run(str(ROOT / "demos" / demo))
    assert done.returncode == 0, done.stderr


def test_readme_library_quickstart_runs():
    # The README's first Python block under "## Library quickstart", run as
    # written, so an API change that leaves the README behind fails here.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    done = _run("-c", code)
    assert done.returncode == 0, done.stderr


def test_readme_bound_study_runs():
    # The README's "## Bound study" block at one replication per risk level
    # (4 instances, not 60); its own assert checks each bound's rows
    # against that bound's sweep.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Bound study\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert code.count("replications_per_level=15") == 1
    done = _run("-c", code.replace("replications_per_level=15", "replications_per_level=1"))
    assert done.returncode == 0, done.stderr
    assert "top_k:10:0.0:0.0" in done.stdout and "seven sweeps:" in done.stdout


def test_readme_lists_every_config_key_and_the_csv_header():
    # The README's CLI block, "Keys:" list and CSV header block, read as
    # written, so a command, key or column added or dropped without the docs
    # fails here.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n\n```bash\n", 1)[1].split("\n```", 1)[0]
    assert [line.split()[1] for line in block.splitlines()] == list(_COMMANDS)
    keys = readme.split("\nKeys: `", 1)[1].split("`.", 1)[0]
    assert [key.strip() for key in keys.split(",")] == list(CONFIG_KEYS)
    header = readme.split("Output CSV header (exact order):\n\n```\n", 1)[1].split("\n```", 1)[0]
    assert header == CSV_HEADER
