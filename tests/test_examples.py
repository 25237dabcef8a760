"""Smoke tests: every example script runs to completion.

Examples are executable documentation; this keeps them from rotting.
Each runs in-process via runpy with stdout captured.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_has_all_scripts():
    assert {"quickstart.py", "arvr_latency_budget.py",
            "mobility_handoff.py", "dos_fallback.py",
            "public_cdn_measurement.py", "figure1_walkthrough.py",
            "cache_policy_study.py"} <= set(EXAMPLES)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # every example narrates what it did
    assert "Traceback" not in out
