"""The demo scripts run to completion against the package in this checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import feederlimits

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["two_bus_limits.py", "feeder_sweep.py", "ratio_curves.py"])
def test_demo_runs(script, tmp_path):
    # run a copy, so that a demo writing next to itself writes into tmp_path
    demo = shutil.copy(DEMOS / script, tmp_path)
    src = os.path.dirname(os.path.dirname(feederlimits.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
