"""Benchmark the p x p stages' time and memory, file I/O and start-up.

Four steps are each timed and traced against the version they replaced,
which is kept below; every step checks that both give the same bits or
bytes.  Time is the best of ``--repeats`` calls; the peak is the Python
heap's growth during one more call, from ``tracemalloc``, which sees
numpy's arrays too.

- Reader: ``tables.read_matrix`` on the p x p adjacency and the 200 x p
  abundance table (shortest round-trip ``repr`` floats, as the perfbench
  scale workload writes them), which streams rows into ``np.loadtxt``,
  against the reader that kept the file's text, its lines and the row
  bodies.
- ``network.load_adjacency`` with the file's labels in abundance order
  and reversed, against the version that reordered with an ``np.ix_``
  copy.  ``read_matrix`` is replaced by a copy of its result in both, so
  the parse is left out.
- ``network.convolution_operator``, built in place in one copy of A,
  against ``(A + np.eye(p)) * np.outer(inv_sqrt, inv_sqrt)``.
- The writers ``ingest.write_abundance`` and ``network.write_adjacency``,
  which hand ``tables.write_table`` one row at a time, against the
  versions that built every row and wrote the joined text.

GraphML: infers the network of a p=600 dataset, the perfbench inferred
shape, and writes its annotated graph (clusters, centralities, importance,
abundance) with ``analytics.write_annotated_graph`` and with the networkx
writer it used before, kept below; both files must hold the same bytes.
This case needs networkx and is skipped without it.

Start-up: the wall time of ``import coresponse.cli`` in a fresh
interpreter, and of ``import numpy`` for reference.

Run from the repository root:

    python3 benchmarks/bench_io.py
    python3 benchmarks/bench_io.py --taxa 3000 --repeats 3
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
from coresponse import analytics, ingest, network, tables
from coresponse.synth import SynthSpec, generate
from coresponse.tables import fmt, fmt_cells

GRAPHML_TAXA = 600


def joined_write_table(path, header, rows, delimiter=","):
    """``tables.write_table`` that joins the whole file before writing."""
    out = [delimiter.join(header)]
    out += [delimiter.join(cells) for cells in rows]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def old_read_matrix(path):
    """``tables.read_matrix`` with the file's text, its lines and the row
    bodies in memory (clean tables only)."""
    lines = [ln.rstrip("\r") for ln in tables.read_text(path).splitlines()]
    lines = [ln for ln in lines if ln != ""]
    delim = tables.sniff_delimiter(lines[0])
    header = lines[0].split(delim)
    row_labels, bodies = [], []
    for line in lines[1:]:
        label, _, body = line.partition(delim)
        row_labels.append(label)
        bodies.append(body)
    del lines
    values = np.loadtxt(bodies, delimiter=delim, comments=None,
                        dtype=np.float64, ndmin=2)
    return header[1:], row_labels, values


def old_load_adjacency(path, labels):
    """``network.load_adjacency`` of a matrix file that reordered by an
    ``np.ix_`` copy and symmetrized into a new ``(A + A^T)/2``; the label
    checks and warnings are left out."""
    labels = tuple(labels)
    file_cols, _, adj = network.read_matrix(path)
    if tuple(file_cols) != labels:
        order = {lab: i for i, lab in enumerate(file_cols)}
        perm = [order[lab] for lab in labels]
        adj = adj[np.ix_(perm, perm)]
    if not network.exactly_symmetric(adj):
        adj = (adj + adj.T) / 2.0
    if np.abs(np.diag(adj)).max(initial=0.0) > 0.0:
        np.fill_diagonal(adj, 0.0)
    if (adj < 0).any():
        raise ValueError(f"{path}: negative edge weights are not allowed")
    return network.CoOccurrenceNetwork(adj, labels)


def old_convolution_operator(adjacency):
    """The operator as one formula, in three new p x p arrays."""
    a_tilde = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * np.outer(inv_sqrt, inv_sqrt)


def old_write_abundance(m, path, delimiter=","):
    """``ingest.write_abundance`` building every row first."""
    rows = [[sid, fmt_cells(values, delimiter)]
            for sid, values in zip(m.sample_ids, m.values.tolist())]
    joined_write_table(path, ["sample_id", *m.taxon_labels], rows, delimiter)


def old_write_adjacency(net, path, delimiter=","):
    """``network.write_adjacency`` building every row first."""
    A = net.adjacency
    formatted = (A != 0.0) | np.signbit(A)
    rows = []
    for i, lab in enumerate(net.taxon_labels):
        cells = ["0"] * net.n_taxa
        for j in np.flatnonzero(formatted[i]).tolist():
            cells[j] = fmt(A[i, j])
        rows.append([lab, *cells])
    joined_write_table(path, ["taxon", *net.taxon_labels], rows, delimiter)


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
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for label, row in zip(labels, values.tolist()):
            f.write(label + "," + ",".join(map(repr, row)) + "\n")


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


def compare(title, versions, repeats, same):
    """Time and trace each ``(name, fn)`` of ``versions``; ``same`` takes
    the list of their results and says whether they agree."""
    results = []
    for name, fn in versions:
        results.append(fn())
        print(f"{title:<26}{name:<16}{best_of(fn, repeats):>9.4f}"
              f"{peak_mb(fn):>9.1f}")
    equal = same(results)
    print(f"{title:<26}same result: {equal}")
    assert equal, f"{title}: the versions disagree"


def same_bits(arrays) -> bool:
    first, *others = [a.view(np.uint64) for a in arrays]
    return all(np.array_equal(first, other) for other in others)


def scale_bundle(args):
    return generate(SynthSpec(
        n_samples=args.samples, n_taxa=args.taxa, n_blocks=8,
        intra_block_weight=0.5, planted_group=tuple(range(10)),
        noise_sigma=0.05, seed=args.seed))


def header(title):
    print(f"\n{title}\n{'step':<26}{'version':<16}{'best s':>9}"
          f"{'peak MB':>9}")


def bench_reader(args) -> None:
    bundle = scale_bundle(args)
    raw, net = bundle.raw_abundance, bundle.network
    header(f"reader, p={net.n_taxa}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, labels, rows, values in (
                ("adjacency", ["taxon", *net.taxon_labels], net.taxon_labels,
                 net.adjacency),
                ("abundance", ["sample_id", *raw.taxon_labels],
                 raw.sample_ids, raw.values)):
            path = Path(tmp) / f"{name}.csv"
            write_repr_csv(path, labels, rows, values)
            compare(f"read {name} {path.stat().st_size / 1e6:.0f} MB",
                    (("streamed", lambda: tables.read_matrix(path)[2]),
                     ("text kept", lambda: old_read_matrix(path)[2])),
                    args.repeats, same_bits)


def bench_load_adjacency(args) -> None:
    net = scale_bundle(args).network
    labels = net.taxon_labels
    header(f"load_adjacency after the parse, p={net.n_taxa}")
    for order, file_labels in (("in order", labels),
                               ("reversed", labels[::-1])):
        perm = [labels.index(lab) for lab in file_labels]
        parsed = net.adjacency[np.ix_(perm, perm)]

        def reader(path):
            return list(file_labels), list(file_labels), parsed.copy()

        with (tempfile.TemporaryDirectory() as tmp,
              mock.patch.object(network, "read_matrix", reader)):
            # load_adjacency reads the header to tell a matrix from an
            # edge list; the header is all the file holds
            path = Path(tmp) / "adjacency.csv"
            path.write_text(",".join(["taxon", *file_labels]) + "\n")
            compare(f"labels {order}", (
                ("in place", lambda: network.load_adjacency(
                    path, labels).adjacency),
                ("np.ix_ copy", lambda: old_load_adjacency(
                    path, labels).adjacency)), args.repeats, same_bits)


def bench_operator(args) -> None:
    A = scale_bundle(args).network.adjacency
    header(f"convolution operator, p={A.shape[0]}")
    compare("operator", (
        ("in place", lambda: network.convolution_operator(A)),
        ("formula", lambda: old_convolution_operator(A))),
        args.repeats, same_bits)


def bench_writers(args) -> None:
    bundle = scale_bundle(args)
    abundance = ingest.css_normalize(
        ingest.filter_sparse_taxa(bundle.raw_abundance))
    net = bundle.network
    header(f"writers, {abundance.values.shape[0]} x {abundance.n_taxa} "
           f"abundance and p={net.n_taxa} adjacency")
    with tempfile.TemporaryDirectory() as tmp:
        rows, joined = Path(tmp) / "rows.csv", Path(tmp) / "joined.csv"
        for title, data, write_rows, write_joined in (
                ("write_abundance", abundance, ingest.write_abundance,
                 old_write_abundance),
                ("write_adjacency", net, network.write_adjacency,
                 old_write_adjacency)):
            compare(title, (("row by row", lambda: write_rows(data, rows)),
                            ("joined text",
                             lambda: write_joined(data, joined))),
                    args.repeats,
                    lambda _: rows.read_bytes() == joined.read_bytes())


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
    bench_reader(args)
    bench_load_adjacency(args)
    bench_operator(args)
    bench_writers(args)
    bench_graphml(args)
    bench_start_up(args)


if __name__ == "__main__":
    main()
