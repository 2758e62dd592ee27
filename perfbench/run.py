"""Run one benchmark workload through the coresponse CLI stages in-process.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 32 \
        --trace 0

Run from the root of a checkout.  Set-up generates the workload's inputs
from ``--seed`` (three times; the median counts).  The measured window then
repeats the workload's stage chain, each stage called through
``coresponse.cli.main`` with BLAS pinned to one thread, for as many whole
iterations as fit in ``--seconds`` (at least one).  Outputs are checked
after every iteration.  ``--trace 0`` reports the end-to-end metrics; with
``--trace 1`` iterations alternate untraced and traced (at least one
each), and the per-layer metrics are reported; on the workloads with a
curated graph, search quality is then scored on a select-k at the planted
size under the program's default stop rule, outside the timed chain.
With ``--trace 0``, ``top_group_r`` is the first discover stage's top
group r; on inferred it is the median over four datasets and two GA seeds
each, scored outside the timed chain.  Stage calls outside the timed chain
do not use up ``--seconds``.  The peak resident set size is read after
set-up and the first stage chain, before the checker runs.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (stage calls) and ``metrics``.  ``--report FILE`` also writes
the full record: environment, input and output digests, per-iteration
stage times, the span table and the stage accounting.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# pin BLAS before numpy loads: stage timings are single-threaded numerics
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("quickstart", "scale", "inferred"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="write the full run record as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import coresponse from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "coresponse" / "__init__.py").is_file():
        print(f"error: no coresponse sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import coresponse.cli

    if Path(coresponse.__file__).resolve().parent != src / "coresponse":
        print(f"error: imported coresponse from {coresponse.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return coresponse.cli


def environment() -> dict:
    import platform

    import networkx
    import numpy
    import scipy
    from coresponse import __version__, _kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coresponse").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "backend": _kernels.BACKEND,
        "coresponse": __version__,
        "git_rev": git_revision(),
        "source_sha256": sources.hexdigest(),
    }


def git_revision() -> str:
    """HEAD of the checkout read from .git, or 'none' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def run_stage(cli, argv):
    """Call the CLI once; return (exit code, warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = -1
    return code, [str(w.message) for w in caught]


def fallback_counts(messages) -> Counter:
    from checks import FALLBACKS

    counts = Counter()
    for text in messages:
        kind = next((name for needle, name in FALLBACKS.items()
                     if needle in text), "other")
        counts[kind] += 1
    return counts


def run_iteration(cli, workload, seed, inp, it, tracer=None) -> dict:
    """One pass of the stage chain; stops at the first failing stage."""
    from checks import Failed, check_documented
    from workloads import Chain

    record = {"traced": tracer is not None, "stage_s": {}, "warnings": {},
              "attempted": 0, "failed": 0, "error": None}
    for stage, make_argv in Chain(workload, seed, inp, it).stages():
        record["attempted"] += 1
        try:
            argv = make_argv()
        except OSError as exc:
            record["failed"] += 1
            record["error"] = f"{stage}: cannot build arguments: {exc}"
            break
        # each stage starts from an empty collector, as in a fresh process
        gc.collect()
        span = tracer.begin(f"cli.{stage}") if tracer else None
        start = time.perf_counter()
        code, messages = run_stage(cli, argv)
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end(span)
        record["stage_s"][stage] = elapsed
        record["warnings"][stage] = dict(fallback_counts(messages))
        if code != 0:
            record["failed"] += 1
            record["error"] = f"{stage}: exit code {code}"
            break
        try:
            check_documented(stage, Path(argv[argv.index("--out") + 1]))
        except Failed as exc:
            record["error"] = str(exc)
            break
    times = record["stage_s"]
    record["pipeline_s"] = sum(t for s, t in times.items()
                               if s != "select_k_threads2")
    record["wall_s"] = sum(times.values())
    return record


def quality_sweep(cli, workload, seed, inp, it, planted, record) -> dict:
    """Score the search on a select-k at the planted size that runs under
    the default stop rule, outside the timed chain."""
    from checks import Failed, convolved, sweep_quality
    from workloads import Chain

    argv = Chain(workload, seed, inp, it).quality_sweep()
    record["extra"][0] += 1
    start = time.perf_counter()
    code, _ = run_stage(cli, argv)
    record["quality_sweep_s"] = time.perf_counter() - start
    if code != 0:
        record["extra"][1] += 1
        raise Failed(f"quality sweep: exit code {code}")
    labels, M, y = convolved(it / "work", inp / "adjacency.csv")
    figures = sweep_quality(it / "quality" / "sweep.csv", M, y,
                            [labels.index(t) for t in planted])
    del figures["planted_r"]
    return figures


def scored_top_r(cli, workload, seed, work, inp, it, record) -> float:
    """Median ``top_group_r`` of the first discover stage over the
    workload's datasets and GA seeds, outside the timed chain.

    Dataset 0 is the run's own, and its first GA seed is the timed chain's
    call; every further dataset runs the chain up to that stage first.
    """
    from checks import Failed, check_documented, read_keyed, require
    from workloads import Chain, write_inputs

    def call(argv, what):
        record["extra"][0] += 1
        code, _ = run_stage(cli, argv)
        if code != 0:
            record["extra"][1] += 1
            raise Failed(f"{what}: exit code {code}")
        return Path(argv[argv.index("--out") + 1])

    def top_r(out, what):
        value = float(read_keyed(out / "discovery_summary.csv")["top_group_r"])
        require(0.0 < value <= 1.0, f"{what}: top_group_r {value} "
                                    "out of range")
        return value

    values = [record["quality"]["top_group_r"]]
    for d in range(workload.top_r_datasets):
        data_seed = seed + 10_000 * d
        if d:
            inp = it = work / f"score{d}"
            write_inputs(workload, data_seed, inp)
        chain = Chain(workload, data_seed, inp, it)
        if d:
            for stage, make_argv in chain.up_to_discover():
                out = call(make_argv(), f"dataset {d} {stage}")
                check_documented(stage, out)
            values.append(top_r(out, f"dataset {d}"))
        for j in range(1, workload.top_r_seeds):
            what = f"dataset {d} GA seed {data_seed + j}"
            values.append(top_r(call(chain.rescore(j), what), what))
        if d:
            shutil.rmtree(it)
    record["top_r_values"] = values
    return statistics.median(values)


def median_of(records, key):
    values = [r["stage_s"][key] for r in records if key in r["stage_s"]]
    return statistics.median(values) if values else 0.0


def set_up(workload, seed, work):
    """Generate the inputs SETUP_REPEATS times; keep the first copy."""
    from workloads import tree_digest, write_inputs

    times, digests = [], []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        bundle = write_inputs(workload, seed, work / f"inputs{rep}")
        times.append(time.perf_counter() - start)
        digests.append(tree_digest(work / f"inputs{rep}"))
    for rep in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"inputs{rep}")
    planted = [bundle.network.taxon_labels[i] for i in bundle.planted]
    return work / "inputs0", planted, times, digests


def measure(args, cli, workload, work) -> dict:
    """Set up, run the window, check outputs and build the run record."""
    import resource

    from checks import Failed, check_iteration
    from workloads import tree_digest

    import_s = time.perf_counter() - _T0
    inp, planted, setup_times, digests = set_up(workload, args.seed, work)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "import_s": import_s,
              "setup_repeats_s": setup_times, "input_sha256": digests[0],
              "iterations": [], "errors": [],
              # stage calls outside the timed chain: [attempted, failed]
              "extra": [0, 0]}
    errors = record["errors"]
    if len(set(digests)) != 1:
        errors.append("inputs differ between set-up repeats of one seed")

    layer_runs = []
    deadline = time.perf_counter() + args.seconds
    while True:
        n = len(record["iterations"])
        it = work / f"it{n}"
        # traced runs alternate plain and traced iterations, so drift in the
        # machine's speed hits both sides of the overhead comparison alike
        tracer = None
        if args.trace and n % 2 == 1:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        try:
            rec = run_iteration(cli, workload, args.seed, inp, it, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            layer_runs.append(layer_metrics(tracer))
        record["iterations"].append(rec)
        if n == 0:
            # the set-up and the first stage chain, before the checker runs
            record["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if rec["error"]:
            errors.append(f"iteration {n}: {rec['error']}")
            break
        rec["output_sha256"] = tree_digest(it)
        if n == 0:
            try:
                record["quality"] = check_iteration(workload, it, inp, planted)
                # stage calls outside the timed chain do not use up the window
                start = time.perf_counter()
                if args.trace and workload.quality_repeats:
                    record["quality"].update(
                        quality_sweep(cli, workload, args.seed, inp, it,
                                      planted, record))
                if not args.trace and (workload.top_r_datasets
                                       * workload.top_r_seeds > 1):
                    record["quality"]["top_group_r"] = scored_top_r(
                        cli, workload, args.seed, work, inp, it, record)
                deadline += time.perf_counter() - start
            except Failed as exc:
                errors.append(f"iteration 0: {exc}")
            record["output_sha256"] = rec["output_sha256"]
        elif rec["output_sha256"] != record["output_sha256"]:
            errors.append(f"iteration {n}: outputs differ from iteration 0")
        shutil.rmtree(it)
        needed = 2 if args.trace else 1
        if errors or (n + 1 >= needed
                      and time.perf_counter() + rec["wall_s"] > deadline):
            break

    its = record["iterations"]
    record["attempted"] = sum(r["attempted"] for r in its) + record["extra"][0]
    record["failed"] = sum(r["failed"] for r in its) + record["extra"][1]
    record["correct"] = not errors and record["failed"] == 0
    record["setup_s"] = import_s + statistics.median(setup_times)
    record["metrics"] = (per_layer(record, layer_runs) if args.trace
                         else end_to_end(record))
    if layer_runs:
        record["spans"] = layer_runs[0][1]
    return record


def end_to_end(record) -> dict:
    plain = [r for r in record["iterations"] if not r["traced"]]
    quality = record.get("quality", {})
    values = {
        "setup_s": record["setup_s"],
        "pipeline_s": (statistics.median(r["pipeline_s"] for r in plain)
                       if plain else 0.0),
        "peak_rss_mb": record["peak_rss_mb"],
        "top_group_r": quality.get("top_group_r", 0.0),
    }
    return {key: (values[key], unit)
            for key, unit in metric_units("end_to_end").items()}


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in the
    order BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def per_layer(record, layer_runs) -> dict:
    its = record["iterations"]
    plain = [r for r in its if not r["traced"]]
    traced = [r for r in its if r["traced"]]
    values = {}
    if layer_runs:
        for key in layer_runs[0][0]:
            values[key] = statistics.median_low(m[key] for m, _ in layer_runs)
    for stage in ("ingest", "infer_net", "select_k", "select_k_threads2",
                  "discover", "discover_l1", "evaluate", "analyze"):
        values[f"{stage}_s"] = median_of(plain, stage)
    t1, t2 = values["select_k_s"], values["select_k_threads2_s"]
    values["utils.threads2_speedup"] = t1 / t2 if t2 else 0.0
    quality = record.get("quality", {})
    for key in ("planted_recovery", "search_r_gap", "heldout_r"):
        values[key] = quality.get(key, 0.0)
    values["evaluation.degenerate_scores"] = quality.get("degenerate_scores",
                                                         0)
    values["cli.warnings"] = (sum(sum(w.values())
                                  for w in its[0]["warnings"].values())
                              if its else 0)
    values["cli.failed_frac"] = (record["failed"] / record["attempted"]
                                 if record["attempted"] else 0.0)
    values["trace.overhead_s"] = (
        statistics.median(r["pipeline_s"] for r in traced)
        - statistics.median(r["pipeline_s"] for r in plain)
        if traced and plain else 0.0)
    return {key: (values.get(key, 0.0), unit)
            for key, unit in metric_units("per_layer").items()}


def print_human(record) -> None:
    env = record["env"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} iterations={len(record['iterations'])} "
          f"correct={record['correct']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# inputs sha256={record['input_sha256']} "
          f"outputs sha256={record.get('output_sha256', '-')}")
    for err in record["errors"]:
        print(f"# FAILED {err}")
    for i, rec in enumerate(record["iterations"]):
        stages = " ".join(f"{s}={t:.3f}" for s, t in rec["stage_s"].items())
        tag = "traced" if rec["traced"] else "plain"
        print(f"# iteration {i} ({tag}) {stages}")
    if "spans" in record:
        print("# stage accounting: wall = sum of layer self times")
        for stage, row in record["spans"]["stages"].items():
            total = sum(row["self_s"].values())
            print(f"#   {stage:24s} wall {row['wall_s']:9.4f}  "
                  f"self sum {total:9.4f}")
        print(f"# {'span':34s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s}")
        for key, row in record["spans"]["spans"].items():
            print(f"# {key:34s} {row['calls']:8d} {row['incl_s']:10.4f} "
                  f"{row['self_s']:10.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = measure(args, cli, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.report:
        Path(args.report).write_text(json.dumps(record, indent=1))
    print_human(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
