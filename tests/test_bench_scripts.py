"""The scripts under benchmarks/ still import and parse their options."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coresponse

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = str(Path(coresponse.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script", ["bench_kernels.py", "bench_startup.py"])
def test_help_exits_0(script):
    done = subprocess.run([sys.executable, str(BENCHMARKS / script), "--help"],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
