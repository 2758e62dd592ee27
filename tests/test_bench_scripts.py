"""The scripts under benchmarks/ still import, parse their options and
reach the package API they call."""

import argparse
import importlib.util
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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], BENCHMARKS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_run_ga_runs_its_configs(monkeypatch, capsys):
    # the script's own config keywords, for one capped and one uncapped
    # case, on quickstart-sized data and three generations
    bench = load_script("bench_kernels.py")
    capped = next(kw for *_, kw in bench.GA_CASES if "k_opt" in kw)
    uncapped = next(kw for *_, kw in bench.GA_CASES if "k_opt" not in kw)
    monkeypatch.setattr(bench, "GA_CASES", tuple(
        (60, 30, 2, 4, kw) for kw in (capped, uncapped)))
    monkeypatch.setattr(bench, "GA_GENERATIONS", 3)
    bench.bench_run_ga(argparse.Namespace(repeats=1))
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.lstrip().startswith("p=")]
    assert len(lines) == 2
    assert f"capped at {capped['k_opt']}" in lines[0]
    assert "uncapped" in lines[1]
