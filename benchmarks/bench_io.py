"""Benchmark file I/O and start-up at the perfbench shapes.

Table reads: writes a p=1000 adjacency and a 200 x 1000 abundance table of synthetic
data with shortest-round-trip (``repr``) floats, as the perfbench scale
workload does, then times ``network.load_adjacency`` and
``ingest.load_abundance`` two ways: with ``tables.read_matrix`` (one
``np.loadtxt`` call per table) and with the readers they used before it,
which are kept below.  The old adjacency read built the ``read_table``
row lists and converted them with one ``np.array`` call; the old
abundance read called ``parse_cell`` on every cell.  Each read's peak
Python heap comes from ``tracemalloc`` in a separate, untimed call.

GraphML: infers the network of a p=600 dataset, the perfbench inferred
shape, and writes its annotated graph (clusters, centralities, importance,
abundance) with ``analytics.write_annotated_graph`` and with the networkx
writer it used before, kept below; both files must hold the same bytes.
This case needs networkx and is skipped without it.

Start-up: the wall time of ``import coresponse.cli`` in a fresh
interpreter, and of ``import numpy`` for reference.

Every time is the best of ``--repeats`` calls or interpreter starts.  Run
from the repository root:

    python3 benchmarks/bench_io.py
    python3 benchmarks/bench_io.py --taxa 300 --repeats 3
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

import coresponse
from coresponse import analytics, ingest, network
from coresponse.synth import SynthSpec, generate
from coresponse.tables import parse_cell, read_table

GRAPHML_TAXA = 600


def old_adjacency_reader(path):
    """``read_table`` row lists, one ``np.array`` conversion."""
    header, rows, _ = read_table(path)
    try:
        raw = np.array([cells[1:] for cells in rows], dtype=np.float64)
    except ValueError:
        raw = np.array([[parse_cell(cell, path, row=i + 2, col=j + 2)
                         for j, cell in enumerate(cells[1:])]
                        for i, cells in enumerate(rows)])
    raw = raw.reshape(len(rows), len(header) - 1)
    return header[1:], [cells[0] for cells in rows], raw


def old_abundance_reader(path):
    """``read_table`` row lists, ``parse_cell`` on every cell."""
    header, rows, _ = read_table(path)
    values = np.empty((len(rows), len(header) - 1))
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells[1:]):
            values[i, j] = parse_cell(cell, path, row=i + 2, col=j + 2)
    return header[1:], [cells[0] for cells in rows], values


def old_write_annotated_graph(net, path, *, clusters=None, cent=None,
                              importance=None, mean_abundance=None,
                              min_weight=0.0):
    """The annotated graph built as an ``nx.Graph`` and written by networkx."""
    import networkx as nx

    graph = nx.Graph()
    for i, label in enumerate(net.taxon_labels):
        attrs = {}
        if clusters is not None:
            attrs["cluster"] = int(clusters.assignment[i])
        if cent is not None:
            attrs["degree"] = float(cent.degree[i])
            attrs["closeness"] = float(cent.closeness[i])
        if importance is not None:
            attrs["importance"] = float(importance[i])
        if mean_abundance is not None:
            attrs["mean_relative_abundance"] = float(mean_abundance[i])
        graph.add_node(label, **attrs)
    ia, ja = np.nonzero(np.triu(net.adjacency, k=1))
    for i, j in zip(ia, ja):
        w = float(net.adjacency[i, j])
        if w >= min_weight and w > 0:
            graph.add_edge(net.taxon_labels[i], net.taxon_labels[j], weight=w)
    nx.write_graphml(graph, path)


def write_repr_csv(path, header, labels, values) -> None:
    lines = [",".join(header)]
    lines += [label + "," + ",".join(map(repr, row))
              for label, row in zip(labels, values.tolist())]
    path.write_text("\n".join(lines) + "\n")


def best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def peak_mb(fn) -> float:
    """Peak traced Python heap of one ``fn()`` call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_tables(args) -> None:
    spec = SynthSpec(n_samples=args.samples, n_taxa=args.taxa, n_blocks=8,
                     intra_block_weight=0.5, planted_group=tuple(range(10)),
                     noise_sigma=0.05, seed=args.seed)
    bundle = generate(spec)
    raw, net = bundle.raw_abundance, bundle.network
    labels = net.taxon_labels
    with tempfile.TemporaryDirectory() as tmp:
        adj_path = Path(tmp) / "adjacency.csv"
        ab_path = Path(tmp) / "abundance.csv"
        write_repr_csv(adj_path, ["taxon", *labels], labels, net.adjacency)
        write_repr_csv(ab_path, ["sample_id", *raw.taxon_labels],
                       raw.sample_ids, raw.values)
        cases = (
            ("load_adjacency", network, old_adjacency_reader, adj_path,
             lambda: network.load_adjacency(adj_path, labels).adjacency),
            ("load_abundance", ingest, old_abundance_reader, ab_path,
             lambda: ingest.load_abundance(ab_path).values),
        )
        print(f"{'read':<16}{'reader':<14}{'MB on disk':>11}"
              f"{'best s':>9}{'peak MB':>9}")
        for name, module, old_reader, path, load in cases:
            bits = []
            for reader_name, reader in (("read_matrix", module.read_matrix),
                                        ("old", old_reader)):
                with mock.patch.object(module, "read_matrix", reader):
                    bits.append(load().view(np.uint64))
                    seconds = best_of(load, args.repeats)
                    peak = peak_mb(load)
                print(f"{name:<16}{reader_name:<14}"
                      f"{path.stat().st_size / 1e6:>11.1f}"
                      f"{seconds:>9.4f}{peak:>9.1f}")
            print(f"{name:<16}bitwise equal: {np.array_equal(*bits)}")


def bench_graphml(args) -> None:
    try:
        import networkx  # noqa: F401
    except ImportError:
        print("graphml: networkx is not installed; comparison skipped")
        return
    spec = SynthSpec(n_samples=200, n_taxa=GRAPHML_TAXA, n_blocks=8,
                     intra_block_weight=0.5, planted_group=tuple(range(10)),
                     noise_sigma=0.05, seed=args.seed)
    bundle = generate(spec)
    abundance = ingest.css_normalize(
        ingest.filter_sparse_taxa(bundle.raw_abundance))
    net = network.infer_network(abundance)
    rng = np.random.default_rng(args.seed)
    annotations = {
        "clusters": analytics.louvain(net, seed=args.seed),
        "cent": analytics.centralities(net),
        "importance": rng.uniform(-0.2, 1.0, net.n_taxa),
        "mean_abundance": rng.dirichlet(np.ones(net.n_taxa)),
    }
    n_edges = int(np.count_nonzero(np.triu(net.adjacency, k=1)))
    print(f"\ngraphml: p={net.n_taxa}, {n_edges} edges")
    print(f"{'writer':<14}{'best s':>9}{'MB':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name, write in (("in-package", analytics.write_annotated_graph),
                            ("networkx", old_write_annotated_graph)):
            path = Path(tmp) / f"{name}.graphml"
            seconds = best_of(lambda: write(net, path, **annotations),
                              args.repeats)
            files.append(path.read_bytes())
            print(f"{name:<14}{seconds:>9.4f}{len(files[-1]) / 1e6:>7.2f}")
    print(f"graphml bytes equal: {files[0] == files[1]}")


def fresh_import_s(module: str, repeats: int) -> float:
    """Best wall time of ``import module`` over fresh interpreter starts."""
    src = str(Path(coresponse.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import time\nstart = time.perf_counter()\n"
            f"import {module}\nprint(time.perf_counter() - start)")
    return min(float(subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True,
                                    check=True).stdout)
               for _ in range(repeats))


def bench_start_up(args) -> None:
    print(f"\n{'fresh import':<18}{'best s':>9}")
    for module in ("numpy", "coresponse.cli"):
        print(f"{module:<18}{fresh_import_s(module, args.repeats):>9.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--taxa", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench_tables(args)
    bench_graphml(args)
    bench_start_up(args)


if __name__ == "__main__":
    main()
