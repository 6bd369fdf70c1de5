"""Smoke test: the worked-examples script runs both descent chains."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_worked_examples_script_runs_both_chains():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "worked_examples.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("(verified)") == 2
    assert proc.stdout.count("cross-check: ok") == 2
