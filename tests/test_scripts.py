"""The example scripts run to completion at small resolutions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, res", [
    ("decay_ladder.py", 129),
    ("obstacle_portrait.py", 33),
    ("mollify_blowup.py", 65),
])
def test_script_runs(script, res):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--res", str(res)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
