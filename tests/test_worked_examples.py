"""Smoke test: the worked-examples script runs both descent chains."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from conftest import shifted

from gorenstein_kit import descent, duality
from gorenstein_kit.graded_ring import gorenstein_shift_stanley
from gorenstein_kit.series import HilbertSeries

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "worked_examples.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("_worked_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_examples_script_runs_both_chains():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("(verified)") == 2
    assert proc.stdout.count("cross-check: ok") == 2


def test_worked_examples_print_the_failure_witnesses(capsys, monkeypatch, failing_solomon):
    script = _load_script()
    monkeypatch.setattr(descent, "verify_solomon", failing_solomon(lambda s: shifted(s, 3)))
    # Only the invariant ring's series 1/(1 - t^4) gets a wrong shift: the
    # base ring's report still checks its own shift against the formula.
    invariant = HilbertSeries(1, [4])
    monkeypatch.setattr(
        duality,
        "gorenstein_shift_stanley",
        lambda s, dim: gorenstein_shift_stanley(s, dim) + (s == invariant),
    )
    script.chain("ku", "c2_negation")
    out = capsys.readouterr().out
    assert (
        "supplement b = -2 (FAILED: the det-twisted series is t^3 times the untwisted one, not t^2)"
    ) in out
    assert (
        "cross-check: MISMATCH (predicted a+b = -5, functional equation -4)"
    ) in out


def test_worked_examples_chain_on_invariants_that_are_not_polynomial(capsys, tmp_path):
    # -1 on both generators of tmf2: M = (1 + t^8)/(1 - t^8)^2 is no free-ring
    # series, and -1 lies in SL(V), so b = 0 and R^G keeps the base shift.
    group = tmp_path / "minus.group"
    group.write_text("[group]\nname = minus\nblock = 4 2\n\n[generator]\nrow = -1 0\nrow = 0 -1\n")
    _load_script().chain("tmf2", str(group))
    out = capsys.readouterr().out
    assert "  invariants are not polynomial at this rank; 0 pseudoreflections\n" in out
    assert "  descended gorenstein shift a+b = -10\n" in out
    assert "invariant of degree" not in out
