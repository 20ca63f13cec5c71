"""Every ``repro`` package imports as the first import of a fresh
interpreter: no import cycle depends on which package a process loads
first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(p.name for p in (SRC / "repro").iterdir() if (p / "__init__.py").is_file())


@pytest.mark.parametrize("module", ["repro"] + [f"repro.{p}" for p in PACKAGES] + ["repro.receipts.receipt"])
def test_imports_first(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
