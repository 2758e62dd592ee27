"""Workloads: seeded synthetic inputs and the CLI stage chain each one runs.

Every workload is a closed loop of one CLI stage after another in one
process.  Its inputs come from ``coresponse.synth.generate`` with the run's
seed and are written by :func:`write_inputs`, the benchmark's own
shortest-round-trip CSV writer, so the program only ever reads generated
files and a change to the program's float formatting cannot change what a
workload feeds in.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

#: every GA stage of the timed chain stops by generation 60.  Under the
#: default rule alone (stop after 50 generations without improvement) a
#: p=1000 run lasts 85-293 generations depending on the data, so stage times
#: would track each seed's luck rather than the code's speed.  With the cap a
#: run lasts 51-60 generations.  Search quality is scored on a separate
#: sweep under the default rule (:meth:`Chain.quality_sweep`).
GA_BUDGET = ["--max-generations", "60"]


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int
    n_taxa: int
    n_blocks: int
    intra: float
    planted_size: int
    curated_graph: bool
    #: runs of the default-rule quality sweep in traced runs (0: none)
    quality_repeats: int
    #: top_group_r is the median over this many datasets (seed, then
    #: seed + 10000, seed + 20000, ...) times this many GA seeds per dataset
    #: of the first discover stage's top group r
    top_r_datasets: int
    top_r_seeds: int

    def spec(self, seed: int):
        from coresponse.synth import SynthSpec

        return SynthSpec(n_samples=self.n_samples, n_taxa=self.n_taxa,
                         n_blocks=self.n_blocks, intra_block_weight=self.intra,
                         planted_group=tuple(range(self.planted_size)),
                         noise_sigma=0.05, seed=seed)


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "quickstart": Workload("quickstart", 100, 60, 4, 0.2, 6, True, 10, 1, 1),
    "scale": Workload("scale", 200, 1000, 8, 0.5, 10, True, 5, 1, 1),
    # the capped l1 search on the inferred graph lands anywhere in r
    # 0.75-0.83 on one dataset depending on the GA seed, and datasets differ
    # too, so its top r is scored on 4 datasets x 2 GA seeds (see README.md)
    "inferred": Workload("inferred", 200, 600, 8, 0.5, 10, False, 0, 4, 2),
}


class Chain:
    """Argument lists of one iteration's stages, in order.

    ``inp`` holds the generated inputs, ``it`` is this iteration's output
    root.  ``argv`` is called lazily so later stages can read what earlier
    ones wrote (the chosen group size).
    """

    def __init__(self, workload: Workload, seed: int, inp: Path, it: Path):
        self.w = workload
        self.seed = str(seed)
        self.inp = inp
        self.it = it

    def _data(self):
        work = self.it / "work"
        return ["--abundance", str(work / "abundance_normalized.csv"),
                "--function", str(work / "function_aligned.csv")]

    def _out(self, name):
        return ["--seed", self.seed, "--out", str(self.it / name)]

    def chosen_k(self) -> str:
        return (self.it / "sweep" / "chosen_k.txt").read_text().strip()

    def quality_sweep(self) -> list:
        """select-k at the planted size only, under the default stop rule.

        Its ``sweep.csv`` scores the search (planted recovery, r gap); it is
        not part of the timed chain.
        """
        size = str(self.w.planted_size)
        return ["select-k", *self._data(), "--adjacency",
                str(self.inp / "adjacency.csv"), "--k-min", size,
                "--k-max", size, "--repeats",
                str(self.w.quality_repeats), *self._out("quality")]

    def up_to_discover(self):
        """The stages up to and including the first discover stage."""
        for stage, make_argv in self.stages():
            yield stage, make_argv
            if stage.startswith("discover"):
                return

    def rescore(self, j: int) -> list:
        """The first discover stage again with GA seed ``seed + j``.

        Only the seed and the output directory differ from the chain's own
        call; ``top_group_r`` is scored over these reruns.
        """
        *_, (_, make_argv) = self.up_to_discover()
        argv = make_argv()
        argv[argv.index("--seed") + 1] = str(int(self.seed) + j)
        argv[argv.index("--out") + 1] = str(self.it / f"rescore{j}")
        return argv

    def stages(self):
        """(stage name, argv factory) pairs; names key the timing metrics."""
        curated = ["--adjacency", str(self.inp / "adjacency.csv")]
        inferred = ["--adjacency", str(self.it / "net" / "adjacency.csv")]
        ingest = ("ingest", lambda: [
            "ingest", "--abundance", str(self.inp / "abundance.csv"),
            "--function", str(self.inp / "function.csv"),
            "--out", str(self.it / "work")])
        infer = ("infer_net", lambda: [
            "infer-net", "--abundance",
            str(self.it / "work" / "abundance_normalized.csv"),
            "--out", str(self.it / "net")])

        if self.w.name == "quickstart":
            sweep = ["select-k", *self._data(), *curated, "--k-min", "2",
                     "--k-max", "12", "--repeats", "2", *GA_BUDGET]
            return [
                ingest,
                infer,
                ("select_k", lambda: [*sweep, *self._out("sweep")]),
                ("select_k_threads2", lambda: [
                    *sweep, "--threads", "2", *self._out("sweep_t2")]),
                ("discover", lambda: [
                    "discover", *self._data(), *curated,
                    "--k", self.chosen_k(), "--runs", "5", *GA_BUDGET,
                    *self._out("found")]),
                ("discover_l1", lambda: [
                    "discover", *self._data(), *curated, "--mode", "l1",
                    "--runs", "5", *GA_BUDGET, *self._out("found_l1")]),
                ("evaluate", lambda: [
                    "evaluate", *self._data(), *curated,
                    "--methods", "baseline,convolved", "--k", self.chosen_k(),
                    "--repeats", "6", *GA_BUDGET, *self._out("eval")]),
                ("analyze", lambda: [
                    "analyze", *curated, "--importance",
                    str(self.it / "found" / "importance_nodes.csv"),
                    *self._out("where")]),
            ]
        if self.w.name == "scale":
            return [
                ingest,
                ("select_k", lambda: [
                    "select-k", *self._data(), *curated, "--k-min", "9",
                    "--k-max", "11", "--repeats", "1", *GA_BUDGET,
                    *self._out("sweep")]),
                ("discover", lambda: [
                    "discover", *self._data(), *curated, "--k", "10",
                    "--runs", "2", *GA_BUDGET, *self._out("found")]),
                ("evaluate", lambda: [
                    "evaluate", *self._data(), *curated,
                    "--methods", "baseline,convolved", "--k", "10",
                    "--repeats", "3", *GA_BUDGET, *self._out("eval")]),
            ]
        return [
            ingest,
            infer,
            ("discover_l1", lambda: [
                "discover", *self._data(), *inferred, "--mode", "l1",
                "--mu", "0.02", "--runs", "3", *GA_BUDGET,
                *self._out("found_l1")]),
            ("analyze", lambda: [
                "analyze", *inferred, "--importance",
                str(self.it / "found_l1" / "importance_nodes.csv"),
                *self._out("where")]),
        ]


def _write_csv(path: Path, header, labels, matrix) -> None:
    # repr gives the shortest string that reads back to the same double;
    # rows are written one at a time so set-up stays small in memory
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for label, row in zip(labels, matrix):
            f.write(f"{label},{','.join(map(repr, row.tolist()))}\n")


def write_inputs(workload: Workload, seed: int, out: Path):
    """Generate and write one workload's raw inputs; return the bundle."""
    from coresponse.synth import generate

    bundle = generate(workload.spec(seed))
    out.mkdir(parents=True, exist_ok=True)
    raw = bundle.raw_abundance
    _write_csv(out / "abundance.csv", ["sample_id", *raw.taxon_labels],
               raw.sample_ids, raw.values)
    _write_csv(out / "function.csv", ["sample_id", "function"],
               raw.sample_ids, bundle.function.values[:, None])
    if workload.curated_graph:
        labels = bundle.network.taxon_labels
        _write_csv(out / "adjacency.csv", ["taxon", *labels], labels,
                   bundle.network.adjacency)
    return bundle


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order.

    ``resolved_config.txt`` is left out: it records the output paths.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "resolved_config.txt":
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
