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


def run_demo(demo):
    """The demo's standard output; it must exit cleanly and print something."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo):
    run_demo(demo)


def test_noise_quadrature_demo_estimates_meet_their_exact_moments():
    """Every row of the demo's two Monte Carlo tables, those headed by a z column, sits
    within 4 standard errors of its exact moment: 4 defect rows and 3 micro-sum rows."""
    z_scores, in_table = [], False
    for line in run_demo(ROOT / "demos" / "noise_quadrature_moments.py").splitlines():
        if line.split()[-1:] == ["z"]:
            in_table = True
        elif not line.strip():
            in_table = False
        elif in_table:
            z_scores.append(float(line.split()[-1]))
    assert len(z_scores) == 7
    assert all(abs(z) <= 4.0 for z in z_scores), z_scores


def test_readme_library_snippet_runs(capsys):
    """The README's Library example runs as written and scores a small, positive error."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert 0.0 < namespace["err"] < 0.05
    assert "fitted rate:" in capsys.readouterr().out
