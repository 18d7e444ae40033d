"""Each demo script runs to completion against the package it ships with."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["census_hunting.py", "quotient_story.py",
                                  "splitting_tour.py"])
def test_demo_exits_zero(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
