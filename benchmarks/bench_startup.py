"""Time each README quickstart command in a fresh interpreter.

Runs the quickstart chain (``synth``, ``ingest``, ``infer-net``,
``select-k``, ``discover``, ``evaluate``, ``analyze``, with the README's
arguments) in a temporary directory, each in a fresh interpreter that
runs ``coresponse.cli`` as ``python -m`` would, ``--repeats`` times, and
prints per command the best and median wall time and the child's own
largest resident set (``ru_maxrss`` from ``os.wait4``), plus whether the
command loaded scipy.  So the cost a command pays for what it imports
shows next to its work.  The package needs numpy alone, so the scipy
column should read "no" throughout; scipy is only the tests' oracle.  The
children import the same ``coresponse`` as this script and run with one
BLAS thread.

Run from the repository root:

    python3 benchmarks/bench_startup.py
    python3 benchmarks/bench_startup.py --repeats 5 --json startup.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import coresponse

SRC = str(Path(coresponse.__file__).resolve().parent.parent)

#: prints, when the command exits, whether it loaded scipy
_PROBE = ("import atexit, sys; atexit.register(lambda: print('scipy' in "
          "sys.modules, file=sys.stderr)); import runpy; "
          "sys.argv[0] = 'coresponse'; "
          "runpy.run_module('coresponse.cli', run_name='__main__')")


def quickstart(k: str) -> list:
    """(name, argv) of the README quickstart commands, ``k`` the chosen size."""
    data = ["--abundance", "work/abundance_normalized.csv",
            "--function", "work/function_aligned.csv"]
    graph = ["--adjacency", "data/adjacency.csv"]
    return [
        ("synth", ["synth", "--n-samples", "100", "--n-taxa", "60",
                   "--n-blocks", "4", "--intra", "0.2", "--planted-size", "6",
                   "--noise-sigma", "0.05", "--seed", "7", "--out", "data/"]),
        ("ingest", ["ingest", "--abundance", "data/abundance.csv",
                    "--function", "data/function.csv", "--out", "work/"]),
        ("infer-net", ["infer-net", "--abundance",
                       "work/abundance_normalized.csv", "--out", "net/"]),
        ("select-k", ["select-k", *data, *graph, "--k-min", "2",
                      "--k-max", "12", "--seed", "7", "--out", "sweep/"]),
        ("discover", ["discover", *data, *graph, "--k", k, "--seed", "7",
                      "--out", "found/"]),
        ("evaluate", ["evaluate", *data, *graph, "--methods",
                      "baseline,convolved", "--k", k, "--repeats", "20",
                      "--seed", "7", "--out", "eval/"]),
        ("analyze", ["analyze", *graph, "--importance",
                     "found/importance_nodes.csv", "--seed", "7",
                     "--out", "where/"]),
    ]


def run_command(argv, cwd, env) -> tuple:
    """(wall s, the child's ru_maxrss in MB, whether it loaded scipy)."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", _PROBE, *argv], cwd=cwd,
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
    err = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        sys.exit(f"{argv[0]} exited {child.returncode}:\n{err.decode()}")
    loaded = err.decode().strip().splitlines()[-1] == "True"
    return wall, usage.ru_maxrss / 1024.0, loaded


def run_chain(env) -> dict:
    """One pass of the quickstart; name -> (wall s, max RSS MB, scipy)."""
    with tempfile.TemporaryDirectory() as tmp:
        result = {}
        k = None  # set by select-k, which runs before the commands using it
        for name, argv in quickstart("K"):
            argv = [k if a == "K" else a for a in argv]
            result[name] = run_command(argv, tmp, env)
            if name == "select-k":
                k = (Path(tmp) / "sweep" / "chosen_k.txt").read_text().strip()
        return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", help="also write the table here as JSON")
    args = parser.parse_args()

    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    runs = [run_chain(env) for _ in range(args.repeats)]
    table = {}
    print(f"{'command':<11}{'best s':>8}{'median s':>10}{'max RSS MB':>12}"
          f"{'scipy':>7}")
    for name in runs[0]:
        walls = [run[name][0] for run in runs]
        rss = [run[name][1] for run in runs]
        table[name] = {"wall_s": walls, "max_rss_mb": rss,
                       "loads_scipy": runs[0][name][2]}
        print(f"{name:<11}{min(walls):>8.3f}{statistics.median(walls):>10.3f}"
              f"{max(rss):>12.1f}{'yes' if runs[0][name][2] else 'no':>7}")
    if args.json:
        Path(args.json).write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
