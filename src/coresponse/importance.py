"""Per-taxon importance from repeated full-data searches.

Each run contributes its correlation-weighted membership vector: the taxon
importance I is the mean of r*x over runs, and the pair importance L is the
mean of r*x*x^T.  Because x is binary, diag(x x^T) = x, so L's diagonal
equals I exactly — the aggregation below accumulates both in the same
order to keep that equality bitwise.  Runs with negative r contribute with
their sign; excluding them would bias I upward.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ValidationError
from .ga import OptimizerConfig, group_r, run_many
from .tables import fmt, parse_cell, read_table, write_graphml, write_table
from .utils import child_int

DEFAULT_RUNS = 10

#: pair weights below this magnitude are omitted from graph files (not tables)
DISPLAY_THRESHOLD = 0.05

NODE_COLUMNS = ("taxon", "importance", "mean_relative_abundance")
EDGE_COLUMNS = ("taxon_a", "taxon_b", "weight")


@dataclass(frozen=True)
class ImportanceResult:
    """Aggregated importance vector I and pair matrix L over the
    (chromosome, r) pairs of ``per_run``."""

    taxon_importance: np.ndarray
    pair_importance: np.ndarray
    per_run: tuple

    def __post_init__(self):
        I = np.asarray(self.taxon_importance, dtype=np.float64)
        L = np.asarray(self.pair_importance, dtype=np.float64)
        p = I.shape[0]
        if I.ndim != 1 or L.shape != (p, p):
            raise ValidationError("importance vector/matrix shapes disagree")
        if not self.per_run:
            raise ValidationError("per_run must hold at least one run")
        if not np.array_equal(L, L.T):
            raise ValidationError("pair importance must be symmetric")
        if not np.array_equal(np.diag(L), I):
            raise ValidationError("diag(L) must equal I exactly")
        if np.abs(I).max(initial=0.0) > 1.0 + 1e-12:
            raise ValidationError("importance entries must lie within [-1, 1]")
        object.__setattr__(self, "taxon_importance", I)
        object.__setattr__(self, "pair_importance", L)

    @property
    def runs(self) -> int:
        return len(self.per_run)

    @property
    def n_taxa(self) -> int:
        return self.taxon_importance.shape[0]

    def top_indices(self, top_k: int) -> np.ndarray:
        """Indices of the top_k most important taxa (ties to lower index)."""
        if not 1 <= top_k <= self.n_taxa:
            raise ValidationError("top_k must be in [1, n_taxa]")
        return np.argsort(-self.taxon_importance, kind="stable")[:top_k]


@dataclass(frozen=True)
class DiscoveryReport:
    """Importance aggregation plus the posthoc top-group check."""

    importance: ImportanceResult
    top_indices: np.ndarray
    top_group_r: float

    @property
    def top_k(self) -> int:
        return len(self.top_indices)


def aggregate_importance(runs) -> ImportanceResult:
    """Average (GroupChromosome, r) pairs into I and L."""
    runs = [(x, float(r)) for x, r in runs]
    if not runs:
        raise ValidationError("cannot aggregate an empty run list")
    p = runs[0][0].bits.shape[0]
    if any(x.bits.shape[0] != p for x, _ in runs):
        raise ValidationError("all chromosomes must have the same length")

    I = np.zeros(p)
    L = np.zeros((p, p))
    for x, r in runs:
        xf = x.bits.astype(np.float64)
        I += r * xf
        L += r * np.outer(xf, xf)
    t = len(runs)
    I /= t
    L /= t
    # diag(outer(x, x)) = x for binary x and the diagonal accumulates the
    # same terms in the same order as I, so diag(L) == I holds bitwise
    return ImportanceResult(I, L, tuple(runs))


def discover_importance(M: np.ndarray, y: np.ndarray, cfg: OptimizerConfig,
                        runs: int = DEFAULT_RUNS, *, top_k: int | None = None,
                        threads: int = 1) -> DiscoveryReport:
    """Repeat the full-data search of ``(M, y)`` and aggregate importances.

    ``M`` is the matrix searched: the convolved abundance, or the raw
    abundance for the identity-graph baseline.  Run j uses the seed derived
    from (cfg.seed, j).  ``top_k`` defaults to the size cap when one is set,
    otherwise to the rounded mean size of the per-run best groups.  The
    report includes the full-data correlation of the top_k taxa taken
    together as a posthoc check (0.0 if degenerate).
    """
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    jobs = [(replace(cfg, seed=child_int(cfg.seed, j)), None, None)
            for j in range(runs)]
    importance = aggregate_importance(
        [(result.best, result.best_eval.pearson_r)
         for result, _ in run_many(M, y, jobs, threads)])

    if top_k is None:
        if cfg.k_opt is None:
            sizes = [x.size() for x, _ in importance.per_run]
            top_k = max(1, round(float(np.mean(sizes))))
        else:
            top_k = min(cfg.k_opt, importance.n_taxa)
    top = importance.top_indices(top_k)
    return DiscoveryReport(importance, top, group_r(M, y, top))


def mean_relative_abundance(values: np.ndarray) -> np.ndarray:
    """Per-taxon mean of the row-normalized samples x taxa abundance array."""
    values = np.asarray(values, dtype=np.float64)
    row_sums = values.sum(axis=1)
    if (row_sums <= 0).any():
        raise ValidationError("relative abundance undefined for all-zero samples")
    return (values / row_sums[:, None]).mean(axis=0)


def write_group_network(importance: ImportanceResult, labels, values,
                        nodes_path, edges_path, graph_path, *,
                        display_threshold: float = DISPLAY_THRESHOLD,
                        delimiter: str = ",") -> None:
    """Export the functional group as node/edge tables and a GraphML file.

    Tables keep every taxon and every nonzero pair weight; the graph file
    drops edges with \\|L\\| below ``display_threshold`` (display-only cut).
    ``values`` is the samples x taxa abundance array behind the node
    tables' mean relative abundance.
    """
    labels = tuple(str(label) for label in labels)
    if len(labels) != importance.n_taxa:
        raise ValidationError("label count does not match importance length")
    mra = mean_relative_abundance(values)
    I, L = importance.taxon_importance, importance.pair_importance

    node_rows = [[labels[i], fmt(I[i]), fmt(mra[i])]
                 for i in range(importance.n_taxa)]
    write_table(nodes_path, list(NODE_COLUMNS), node_rows, delimiter)

    ia, ja = np.nonzero(np.triu(L, k=1))
    edge_rows = [[labels[i], labels[j], fmt(L[i, j])] for i, j in zip(ia, ja)]
    write_table(edges_path, list(EDGE_COLUMNS), edge_rows, delimiter)

    nodes = [(label, {"importance": i, "mean_relative_abundance": m})
             for label, i, m in zip(labels, I.tolist(), mra.tolist())]
    edges = [(labels[i], labels[j], {"weight": w})
             for i, j, w in zip(ia.tolist(), ja.tolist(), L[ia, ja].tolist())
             if abs(w) >= display_threshold]
    write_graphml(graph_path, nodes, edges)


def read_importance(path):
    """(labels, importance, mean relative abundance) of a node table as
    :func:`write_group_network` writes it; the last is None unless the
    third column is ``mean_relative_abundance``, and further columns are
    ignored.

    Raises:
        ParseError: the first two columns are not ``taxon, importance``,
            or a cell is not numeric (named by its 1-based row and column).
    """
    header, rows, _ = read_table(path)
    if header[:2] != list(NODE_COLUMNS[:2]):
        raise ParseError(f"{path}: expected an importance node table "
                         "(taxon, importance, ...)")

    def column(j):
        return np.array([parse_cell(row[j], path, row=i + 2, col=j + 1)
                         for i, row in enumerate(rows)])

    return (tuple(row[0] for row in rows), column(1),
            column(2) if header[2:3] == [NODE_COLUMNS[2]] else None)
