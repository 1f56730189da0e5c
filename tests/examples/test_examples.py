"""The examples are part of the public API surface: they must run."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart_reproduces_fig1(self):
        out = run_example("quickstart.py")
        assert "25.0% of the state" in out
        assert "37.5% of the state" in out
        assert "[1760, 1964, 2256, 1086]" in out

    def test_outcome_study(self):
        out = run_example("outcome_study.py", "mcb", "25")
        assert "black-box" in out
        assert "ONA" in out
        assert "contradiction" in out

    def test_propagation_model(self):
        out = run_example("propagation_model.py", "mcb", "30")
        assert "FPS factor" in out
        assert "Eq. 3" in out

    def test_every_example_is_run_here(self):
        mine = Path(__file__).read_text()
        assert all(p.name in mine for p in EXAMPLES.glob("*.py"))

    def test_custom_app(self):
        out = run_example("custom_app.py", "20")
        assert "heat1d" in out
        assert "FPS factor" in out

    def test_rollback_study(self):
        out = run_example("rollback_study.py", "mcb", "20")
        assert "policy comparison" in out
        assert "fps-threshold" in out
