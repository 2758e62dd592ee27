"""Output checks and search-quality figures, computed without the package.

Everything here parses the files a stage wrote with its own reader and
recomputes correlations with plain numpy, so a defect in the package's
readers or fitness code cannot make its own output look right.
"""

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

#: files each stage documents in the README's subcommand table
DOCUMENTED = {
    "ingest": ("abundance_normalized.csv", "function_aligned.csv"),
    "infer_net": ("adjacency.csv", "edge_list.csv"),
    "select_k": ("sweep.csv", "sweep_summary.csv", "chosen_k.txt"),
    "discover": ("top_group.csv", "importance_nodes.csv",
                 "importance_edges.csv", "group_graph.graphml",
                 "discovery_summary.csv"),
    "evaluate": ("per_repeat.csv", "summary.csv", "ttest.csv"),
    "analyze": ("clusters.csv", "centralities.csv", "location.csv",
                "annotated_graph.graphml", "analysis_summary.csv"),
}
DOCUMENTED["select_k_threads2"] = DOCUMENTED["select_k"]
DOCUMENTED["discover_l1"] = DOCUMENTED["discover"]

#: warning texts the package emits when it silently repairs its input
FALLBACKS = {
    "symmetrized": "adjacency_symmetrized",
    "diagonal zeroed": "adjacency_diagonal_zeroed",
    "self-edge": "adjacency_self_edge",
    "single sample": "singleton_stratum",
}


class Failed(Exception):
    """An output check did not hold."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Failed(message)


def read_csv(path: Path):
    """Header and rows of a comma table; every row must match the header."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln]
    require(bool(lines), f"{path}: empty")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for i, row in enumerate(rows, start=2):
        require(len(row) == len(header), f"{path}: row {i} is ragged")
    return header, rows


def check_rectangular(path: Path) -> None:
    """The file has a header and every row has as many cells.  Read line by
    line, so that a large table costs the checker no memory."""
    with Path(path).open() as f:
        header = f.readline()
        require(bool(header.strip()), f"{path}: empty")
        width = header.count(",")
        for i, line in enumerate(f, start=2):
            require(not line.strip() or line.count(",") == width,
                    f"{path}: row {i} is ragged")


def read_numeric(path: Path):
    """Header and row labels of a labelled numeric table, and its values.

    Rows are parsed one at a time into a float array, so the checker's peak
    memory stays well below the package's own table reader.
    """
    with Path(path).open() as f:
        header = f.readline().rstrip("\n").split(",")
        labels, rows = [], []
        for i, line in enumerate(f, start=2):
            if not line.strip():
                continue
            label, _, cells = line.rstrip("\n").partition(",")
            row = np.fromiter(map(float, cells.split(",")), float)
            require(row.size == len(header) - 1, f"{path}: row {i} is ragged")
            labels.append(label)
            rows.append(row)
    require(bool(rows), f"{path}: no rows")
    return header[1:], labels, np.vstack(rows)


def read_matrix(path: Path):
    """Labels and values of a labelled square matrix file."""
    labels, row_labels, values = read_numeric(path)
    require(row_labels == labels,
            f"{path}: row labels differ from column labels")
    return labels, values


def read_keyed(path: Path) -> dict:
    _, rows = read_csv(path)
    return {key: value for key, value in rows}


def check_documented(stage: str, out: Path) -> None:
    """Every file the stage documents exists and parses."""
    for name in DOCUMENTED[stage]:
        path = out / name
        require(path.is_file(), f"{stage}: {name} missing")
        if name.endswith(".csv"):
            check_rectangular(path)
        elif name.endswith(".graphml"):
            try:
                ET.parse(path)
            except ET.ParseError as exc:
                raise Failed(f"{stage}: {name} is not XML: {exc}") from None
        else:
            require(path.read_text().strip().isdigit(),
                    f"{stage}: {name} is not an integer")


def check_inferred_adjacency(path: Path) -> None:
    _, adj = read_matrix(path)
    require(np.array_equal(adj, adj.T), f"{path}: not symmetric")
    require(bool((adj >= 0).all()), f"{path}: negative weights")
    require(not np.diag(adj).any(), f"{path}: nonzero diagonal")


def convolved(work: Path, adjacency: Path):
    """M = H D^-1/2 (A + I) D^-1/2 and y, from the ingested files."""
    labels, _, H = read_numeric(work / "abundance_normalized.csv")
    adj_labels, A = read_matrix(adjacency)
    require(adj_labels == labels, f"{adjacency}: taxa differ from abundance")
    _, rows = read_csv(work / "function_aligned.csv")
    y = np.array([float(r[1]) for r in rows])
    a_tilde = A + np.eye(A.shape[0])
    d = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return labels, H @ (a_tilde * d[:, None] * d[None, :]), y


def group_r(M, y, members) -> float:
    """Pearson r of the summed member columns with y."""
    s = M[:, members].sum(axis=1)
    s = s - s.mean()
    y0 = y - y.mean()
    return float(s @ y0 / np.sqrt((s @ s) * (y0 @ y0)))


def sweep_quality(sweep_csv: Path, M, y, planted) -> dict:
    """Recovery and r gap at the planted size; cross-checks the sweep's r.

    Every run's r must match the oracle and no group may exceed its cap.
    """
    _, rows = read_csv(sweep_csv)
    size = len(planted)
    planted_r = group_r(M, y, list(planted))
    found = []
    for k, _, _, r, bits in rows:
        members = [i for i, b in enumerate(bits) if b == "1"]
        require(len(members) <= int(k), f"{sweep_csv}: group over its cap {k}")
        oracle = group_r(M, y, members)
        require(abs(oracle - float(r)) <= 1e-9,
                f"{sweep_csv}: r {r} at k={k} differs from oracle {oracle!r}")
        if int(k) == size:
            found.append((oracle, tuple(members) == tuple(planted)))
    require(bool(found), f"{sweep_csv}: no runs at the planted size {size}")
    return {
        "planted_r": planted_r,
        "planted_recovery": sum(hit for _, hit in found) / len(found),
        "search_r_gap": planted_r - max(r for r, _ in found),
    }


def check_beats_baseline(eval_dir: Path) -> float:
    """Convolved beats baseline with p < 0.05; returns convolved mean r."""
    means = {row[0]: float(row[1])
             for row in read_csv(eval_dir / "summary.csv")[1]}
    _, rows = read_csv(eval_dir / "ttest.csv")
    (a, b, _, p, significant), = rows
    require((a, b) == ("baseline", "convolved"), "ttest.csv: unexpected pair")
    require(means["convolved"] > means["baseline"]
            and float(p) < 0.05 and significant == "yes",
            f"convolved does not beat baseline (p={p})")
    return means["convolved"]


def degenerate_scores(eval_dir: Path) -> int:
    _, rows = read_csv(eval_dir / "per_repeat.csv")
    return sum(float(row[2]) == 0.0 for row in rows)


def top_by_importance(nodes_csv: Path, n: int) -> set:
    _, rows = read_csv(nodes_csv)
    order = sorted(range(len(rows)), key=lambda i: (-float(rows[i][1]), i))
    return {rows[i][0] for i in order[:n]}


def check_iteration(workload, it: Path, inp: Path, planted_labels) -> dict:
    """All output checks of one iteration; returns its quality figures."""
    name = workload.name
    quality = {}
    if name == "quickstart":
        size = workload.planted_size
        chosen = int((it / "sweep" / "chosen_k.txt").read_text())
        require(abs(chosen - size) <= 1,
                f"chosen_k {chosen} not within 1 of the planted {size}")
        top = top_by_importance(it / "found" / "importance_nodes.csv", size)
        require(top == set(planted_labels),
                f"top {size} by importance {sorted(top)} are not the planted "
                f"taxa {list(planted_labels)}")
        for f in DOCUMENTED["select_k"]:
            require((it / "sweep" / f).read_bytes()
                    == (it / "sweep_t2" / f).read_bytes(),
                    f"select-k {f} differs between --threads 1 and 2")
    if workload.curated_graph:
        labels, M, y = convolved(it / "work", inp / "adjacency.csv")
        planted = [labels.index(t) for t in planted_labels]
        sweep_quality(it / "sweep" / "sweep.csv", M, y, planted)
        quality["heldout_r"] = check_beats_baseline(it / "eval")
        quality["degenerate_scores"] = degenerate_scores(it / "eval")
    if (it / "net").is_dir():
        check_inferred_adjacency(it / "net" / "adjacency.csv")
    found = it / ("found" if (it / "found").is_dir() else "found_l1")
    top_r = float(read_keyed(found / "discovery_summary.csv")["top_group_r"])
    require(0.0 < top_r <= 1.0, f"top_group_r {top_r} out of range")
    quality["top_group_r"] = top_r
    return quality
