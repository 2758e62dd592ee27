"""Benchmark the numeric-table reads at the perfbench scale shape.

Writes a p=1000 adjacency and a 200 x 1000 abundance table of synthetic
data with shortest-round-trip (``repr``) floats, as the perfbench scale
workload does, then times ``network.load_adjacency`` and
``ingest.load_abundance`` two ways: with ``tables.read_matrix`` (one
``np.loadtxt`` call per table) and with the readers they used before it,
which are kept below.  The old adjacency read built the ``read_table``
row lists and converted them with one ``np.array`` call; the old
abundance read called ``parse_cell`` on every cell.  Each read's peak
Python heap comes from ``tracemalloc`` in a separate, untimed call.

Run from the repository root:

    python3 benchmarks/bench_io.py
    python3 benchmarks/bench_io.py --taxa 300 --repeats 3
"""

import argparse
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

from coresponse import ingest, network
from coresponse.synth import SynthSpec, generate
from coresponse.tables import parse_cell, read_table


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--taxa", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

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


if __name__ == "__main__":
    main()
