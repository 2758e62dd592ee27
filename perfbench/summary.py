"""Run every workload over several seeds and print each metric's spread.

    python3 perfbench/summary.py
    python3 perfbench/summary.py --seeds 1,2,3,4,5 --trace

Run from the root of a checkout.  Each (workload, seed) pair is one
``run.py`` process with tracing off, measuring for BENCHMARK.json's
``run_seconds``.  For every end-to-end metric the table gives the unit, the
number of runs, the median, the quartiles, the spread (interquartile
distance over the median) and the bound from ``BENCHMARK.json``; ``!``
marks a spread above a third of the bound.  Each run's input and output
digests are listed so two sets of runs can be compared.  ``--trace`` adds
one traced run per workload (first seed) and prints its per-layer metrics.
Exits 1 if any run fails a check.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace, report: Path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--report", str(report)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        result["correct"] = False
    record = json.loads(report.read_text()) if report.is_file() else {}
    return result, record


def spread(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]

    scratch = ROOT / ".perfbench" / "summary"
    scratch.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for seed in seeds:
                result, record = run_once(workload, seed, seconds, 0,
                                          scratch / "report.json")
                ok &= result["correct"]
                runs.append(result)
                print(f"{workload} seed={seed} correct={result['correct']} "
                      f"iterations={len(record.get('iterations', []))} "
                      f"inputs={record.get('input_sha256', '-')[:16]} "
                      f"outputs={record.get('output_sha256', '-')[:16]}",
                      flush=True)
            print(f"\n{workload}: {'metric':14s} {'unit':9s} {'n':>2s} "
                  f"{'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} "
                  f"{'bound':>6s}")
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in runs
                          if name in r["metrics"]]
                if not values:
                    continue
                unit = runs[0]["metrics"][name]["unit"]
                med, q1, q3, rel = spread(values)
                flag = "!" if rel > bound / 3 else ""
                print(f"{'':{len(workload)}s}  {name:14s} {unit:9s} "
                      f"{len(values):2d} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{rel:7.3f} {bound:6.2f} {flag}")
            print(flush=True)
            if args.trace:
                result, record = run_once(workload, seeds[0], seconds, 1,
                                          scratch / "report.json")
                ok &= result["correct"]
                print(f"{workload} traced, seed {seeds[0]}:")
                for name, m in result["metrics"].items():
                    print(f"  {name:36s} {m['value']:16.6g} {m['unit']}")
                for stage, row in record.get("spans", {}).get(
                        "stages", {}).items():
                    print(f"  accounting {stage:24s} wall "
                          f"{row['wall_s']:8.3f} s = layer self "
                          f"{sum(row['self_s'].values()):8.3f} s")
                print(flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
