"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "heat_rate_study.py",
        "noise_quadrature_moments.py",
        "wave_rate_study.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
