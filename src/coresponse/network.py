"""Co-occurrence network handling and graph convolution.

The network is a symmetric, non-negative, zero-diagonal weighted adjacency
over the taxa of an abundance matrix.  It is either loaded from a file
(matrix or edge list) or inferred from the data by per-column non-negative
elastic-net regressions.  The convolution smooths abundances over the
network with the symmetric-normalized operator built from the adjacency
plus self-loops.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import FinishError, enet_coordinate_descent, enet_kkt_finish
from .errors import NumericError, ParseError, ValidationError
from .ingest import AbundanceMatrix, check_match, check_unique
from .tables import (fmt, parse_cell, read_header, read_matrix, read_table,
                     write_table)
from .utils import ROW_BLOCK, asymmetry, exactly_symmetric, symmetrize

SYMMETRY_TOL = 1e-12

#: KKT violation the exact finish allows off a column's support
KKT_TOLERANCE = 1e-8

#: sweep tolerance of the coordinate-descent pass that finds each column's
#: support before the exact finish.  At p=600 it takes 6-8 sweeps (1e-3
#: takes 10-13, 1e-8 takes 29-46) and gives the final support on all but a
#: few columns, which the finish repairs in a round or two.
LOOSE_TOLERANCE = 1e-2

#: sweep cap of the loose pass.  The finish's result depends only on the
#: final support, not on its start, so a pass stopped here still hands it a
#: valid start; the finish just takes more solves from it.
LOOSE_MAX_SWEEPS = 500


@dataclass(frozen=True)
class CoOccurrenceNetwork:
    """Weighted undirected co-occurrence graph over taxa.

    The adjacency is symmetric within 1e-12, has a zero diagonal and only
    finite non-negative weights; labels are distinct and in abundance
    column order.
    """

    adjacency: np.ndarray
    taxon_labels: tuple[str, ...]

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "taxon_labels", tuple(self.taxon_labels))
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValidationError("adjacency must be square")
        if len(self.taxon_labels) != adj.shape[0]:
            raise ValidationError("taxon label count does not match adjacency size")
        check_unique(self.taxon_labels, "taxon label")
        if not np.isfinite(adj).all():
            raise ValidationError("adjacency contains non-finite weights")
        if (adj < 0).any():
            raise ValidationError("adjacency contains negative weights")
        if not exactly_symmetric(adj) and asymmetry(adj) > SYMMETRY_TOL:
            raise ValidationError("adjacency is not symmetric within 1e-12")
        if np.abs(np.diag(adj)).max(initial=0.0) != 0.0:
            raise ValidationError("adjacency has nonzero diagonal entries")

    @property
    def n_taxa(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True, kw_only=True)
class NetworkInferenceConfig:
    """Penalties of network inference."""

    mu1: float = 0.1
    mu2: float = 0.01

    def __post_init__(self):
        if not all(math.isfinite(mu) and mu >= 0 for mu in (self.mu1, self.mu2)):
            raise ValidationError("penalties mu1 and mu2 must be finite and >= 0")


def load_adjacency(path, labels) -> CoOccurrenceNetwork:
    """Load an adjacency from a labeled square matrix or an edge-list file.

    Edge lists are recognized by the exact header (source, target, weight).
    Rows/columns are reordered to match ``labels``; asymmetric matrices are
    symmetrized as (A + A^T)/2 with a warning, nonzero diagonals are zeroed
    with a warning.  The parsed array is reordered and symmetrized in
    place, so the load holds one p x p float array.
    """
    labels = tuple(labels)
    header = read_header(path)
    if [h.strip().lower() for h in header] == ["source", "target", "weight"]:
        _, rows, _ = read_table(path)
        adj = _adjacency_from_edges(path, rows, labels)
    else:
        adj = _adjacency_from_matrix(path, labels)
    # an exactly symmetric file is its own symmetrization
    if not exactly_symmetric(adj):
        if asymmetry(adj) > SYMMETRY_TOL:
            warnings.warn(f"{path}: asymmetric adjacency symmetrized as (A+A^T)/2")
        symmetrize(adj)
    if np.abs(np.diag(adj)).max(initial=0.0) > 0.0:
        warnings.warn(f"{path}: nonzero diagonal zeroed (no self-loops)")
        np.fill_diagonal(adj, 0.0)
    if (adj < 0).any():
        raise ValidationError(f"{path}: negative edge weights are not allowed")
    return CoOccurrenceNetwork(adj, labels)


def _adjacency_from_matrix(path, labels) -> np.ndarray:
    file_cols, file_rows, raw = read_matrix(path)
    if file_cols != file_rows:
        raise ParseError(f"{path}: matrix row labels do not match column labels")
    # before the reordering below, where the last of two rows would win
    check_unique(file_cols, "taxon label", path)
    check_match(labels, file_cols, "label", path)
    if tuple(file_cols) != labels:
        # a repeated label is an error CoOccurrenceNetwork would raise;
        # raised here, because then labels are not a reordering of the file's
        check_unique(labels, "taxon label")
        order = {lab: i for i, lab in enumerate(file_cols)}
        _permute(raw, [order[lab] for lab in labels])
    return raw


def _permute(A: np.ndarray, perm: list[int]) -> None:
    """``A[...] = A[np.ix_(perm, perm)]`` without a second p x p array.

    Rows move along the cycles of ``perm``, one saved row per cycle; then
    each block of ROW_BLOCK rows takes its columns in ``perm`` order.
    """
    placed = [False] * len(perm)
    for start, src in enumerate(perm):
        if placed[start] or src == start:
            continue
        saved = A[start].copy()
        dst = start
        while perm[dst] != start:
            A[dst] = A[perm[dst]]
            placed[dst] = True
            dst = perm[dst]
        A[dst] = saved
        placed[dst] = True
    for r in range(0, A.shape[0], ROW_BLOCK):
        A[r:r + ROW_BLOCK] = A[r:r + ROW_BLOCK, perm]


def _adjacency_from_edges(path, rows, labels) -> np.ndarray:
    index = {lab: i for i, lab in enumerate(labels)}
    unknown = sorted({c for cells in rows for c in cells[:2] if c not in index})
    if unknown:
        raise ValidationError(f"{path}: edge labels not in taxon list: {unknown}")
    adj = np.zeros((len(labels), len(labels)))
    seen: set[tuple[int, int]] = set()
    for r, (src, dst, w) in enumerate(rows):
        i, j = index[src], index[dst]
        weight = parse_cell(w, path, row=r + 2, col=3)
        if i == j:
            warnings.warn(f"{path}: self-edge on {src!r} ignored")
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValidationError(f"{path}: duplicate edge {src!r}-{dst!r}")
        seen.add(key)
        adj[i, j] = adj[j, i] = weight
    return adj


def write_adjacency(net: CoOccurrenceNetwork, path, delimiter: str = ",") -> None:
    """Write the adjacency as a labeled matrix, formatting one row at a time."""
    write_table(path, ["taxon", *net.taxon_labels],
                _adjacency_rows(net), delimiter)


def _adjacency_rows(net: CoOccurrenceNetwork):
    # most inferred cells are +0.0, which fmt writes as "0"; only the others
    # (-0.0 included, written "-0") go through fmt
    for lab, row in zip(net.taxon_labels, net.adjacency):
        cells = ["0"] * net.n_taxa
        for j in np.flatnonzero((row != 0.0) | np.signbit(row)).tolist():
            cells[j] = fmt(row[j])
        yield [lab, *cells]


def write_edge_list(net: CoOccurrenceNetwork, path, *,
                    delimiter: str = ",") -> None:
    """Write the upper-triangle edges with weight > 0 (display export).

    Edges come in row-major order: by source index, then target index.
    """
    A = net.adjacency
    src, dst = np.nonzero(np.triu(A > 0, k=1))
    labels = net.taxon_labels
    rows = [[labels[i], labels[j], fmt(w)]
            for i, j, w in zip(src.tolist(), dst.tolist(), A[src, dst].tolist())]
    write_table(path, ["source", "target", "weight"], rows, delimiter)


def infer_network(m: AbundanceMatrix, cfg: NetworkInferenceConfig = NetworkInferenceConfig()) -> CoOccurrenceNetwork:
    """Infer co-occurrence weights by multi-regression on standardized columns.

    Each taxon column is regressed on all other columns with non-negative
    coefficients under an l1 penalty ``mu1`` and a squared-norm penalty
    ``mu2``, on the correlation-scale Gram matrix.  The regressions are
    solved exactly: a coordinate-descent pass to ``LOOSE_TOLERANCE`` (at
    most ``LOOSE_MAX_SWEEPS`` sweeps) finds each column's support, and an
    active-set finish solves the column on it until no coefficient off the
    support violates the KKT conditions by more than ``KKT_TOLERANCE``.
    The coefficient matrix is symmetrized as (B + B^T)/2 in place.

    Columns are standardized (zero mean, unit variance) first so the
    penalties act on partial-correlation scale regardless of the data's
    units; constant columns take no part and get zero weights.

    Raises:
        NumericError: a column's support system is singular (exactly
            collinear taxa with ``mu2 = 0``), or a column's support did not
            settle.
    """
    n, p = m.values.shape
    if p < 2:
        raise ValidationError("network inference needs at least 2 taxa")
    X = m.values
    sd = X.std(axis=0)
    active = sd > 0.0
    active_labels = [lab for lab, a in zip(m.taxon_labels, active) if a]
    Xs = (X[:, active] - X[:, active].mean(axis=0)) / sd[active]
    gram = Xs.T @ Xs / n
    if not exactly_symmetric(gram):
        symmetrize(gram)
    B_act = _solve_columns(gram, cfg, active_labels)
    B = np.zeros((p, p))
    idx = np.flatnonzero(active)
    B[np.ix_(idx, idx)] = B_act
    symmetrize(B)
    np.fill_diagonal(B, 0.0)
    return CoOccurrenceNetwork(B, m.taxon_labels)


def _solve_columns(gram, cfg: NetworkInferenceConfig, labels) -> np.ndarray:
    """Exact coefficient matrix: the loose pass, then the KKT finish.

    The loose pass's matrix is freed on return, before the caller builds
    the symmetrized weights.
    """
    B_loose, _, _ = enet_coordinate_descent(
        gram, cfg.mu1, cfg.mu2, LOOSE_MAX_SWEEPS, LOOSE_TOLERANCE
    )
    try:
        B, _ = enet_kkt_finish(gram, B_loose, cfg.mu1, cfg.mu2, KKT_TOLERANCE)
    except FinishError as exc:
        label = labels[exc.column]
        if exc.reason == "singular":
            raise NumericError(
                f"network inference: the support system of column {label!r} "
                f"is singular (exactly collinear taxa); it needs --mu2 > 0"
            ) from None
        raise NumericError(
            f"network inference did not converge on column {label!r}: its "
            f"support did not settle in the exact finish"
        ) from None
    return B


def convolution_operator(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric-normalized operator: D^{-1/2} (A + I) D^{-1/2}.

    D is the diagonal weighted degree of A + I; with a zero adjacency the
    operator is exactly the identity.  It is built in one new p x p array,
    the copy ``A + 0.0`` (which turns -0.0 into 0.0, as adding the
    identity's zeros does); the diagonal then gets its 1.0, and each block
    of ROW_BLOCK rows is multiplied by its block of
    ``np.outer(inv_sqrt, inv_sqrt)``.  Every entry is the same float as in
    ``(A + np.eye(p)) * np.outer(inv_sqrt, inv_sqrt)``.
    """
    op = adjacency + 0.0
    op[np.diag_indices_from(op)] += 1.0
    inv_sqrt = 1.0 / np.sqrt(op.sum(axis=1))
    for r in range(0, op.shape[0], ROW_BLOCK):
        op[r:r + ROW_BLOCK] *= np.outer(inv_sqrt[r:r + ROW_BLOCK], inv_sqrt)
    return op


def convolve(m: AbundanceMatrix, net: CoOccurrenceNetwork) -> np.ndarray:
    """Propagate abundances over the network: M = H (D^{-1/2} (A+I) D^{-1/2})."""
    if net.n_taxa != m.n_taxa:
        raise ValidationError(
            f"network has {net.n_taxa} taxa, abundance matrix has {m.n_taxa}"
        )
    if net.taxon_labels != m.taxon_labels:
        raise ValidationError("network taxon labels do not match abundance matrix")
    return m.values @ convolution_operator(net.adjacency)
