"""Loading, validation, filtering and normalization of abundance data.

The two domain objects defined here, :class:`AbundanceMatrix` and
:class:`FunctionalVariable`, are immutable value objects validated on
construction.  All operations are pure functions returning new objects.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .tables import (fmt, fmt_cells, parse_cell, read_matrix, read_table,
                     write_table)

ORIENTATIONS = ("samples-as-rows", "taxa-as-rows")


@dataclass(frozen=True)
class AbundanceMatrix:
    """Samples-by-taxa abundance table with row and column labels.

    Invariants (checked on construction): all entries are finite and
    non-negative, labels are unique, and label counts match the matrix
    dimensions.
    """

    values: np.ndarray
    sample_ids: tuple[str, ...]
    taxon_labels: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "taxon_labels", tuple(self.taxon_labels))
        if values.ndim != 2:
            raise ValidationError("abundance values must be a 2-d matrix")
        n, p = values.shape
        if len(self.sample_ids) != n:
            raise ValidationError(
                f"{len(self.sample_ids)} sample ids for {n} matrix rows"
            )
        if len(self.taxon_labels) != p:
            raise ValidationError(
                f"{len(self.taxon_labels)} taxon labels for {p} matrix columns"
            )
        check_unique(self.sample_ids, "sample id")
        check_unique(self.taxon_labels, "taxon label")
        if not np.isfinite(values).all():
            raise ValidationError("abundance matrix contains non-finite entries")
        if (values < 0).any():
            raise ValidationError("abundance matrix contains negative entries")

    @property
    def n_taxa(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FunctionalVariable:
    """Per-sample measurement of the function of interest (e.g. PMN)."""

    values: np.ndarray
    name: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValidationError("functional variable must be a 1-d vector")
        if not np.isfinite(values).all():
            raise ValidationError(f"functional variable {self.name!r} has non-finite entries")
        if values.size < 2 or np.ptp(values) == 0.0:
            raise ValidationError(
                f"functional variable {self.name!r} has zero variance"
            )


def check_unique(labels, kind: str, path=None) -> None:
    """Reject a repeated label, naming the first one that repeats.

    ``path``, when given, prefixes the message with the file it came from.
    """
    seen = set()
    for label in labels:
        if label in seen:
            where = "" if path is None else f"{path}: "
            raise ValidationError(f"{where}repeated {kind} {label!r}")
        seen.add(label)


def load_abundance(path, orientation: str = "samples-as-rows") -> AbundanceMatrix:
    """Load a labeled abundance table.

    The file must have one header row of labels and one leading label column.
    With ``orientation="taxa-as-rows"`` the parsed matrix is transposed so
    the result is always samples x taxa.
    """
    if orientation not in ORIENTATIONS:
        raise ValidationError(f"unknown orientation {orientation!r}")
    col_labels, row_labels, values = read_matrix(path)
    if values.size == 0:
        raise ParseError(f"{path}: expected a labeled matrix with data rows")
    if orientation == "taxa-as-rows":
        values = values.T.copy()
        row_labels, col_labels = col_labels, row_labels
    return AbundanceMatrix(values, tuple(row_labels), tuple(col_labels))


def write_abundance(m: AbundanceMatrix, path, delimiter: str = ",") -> None:
    """Write in samples-as-rows orientation, 12 significant digits."""
    header = ["sample_id", *m.taxon_labels]
    # a row with no taxa is its label alone
    rows = [[sid, fmt_cells(values, delimiter)] if values else [sid]
            for sid, values in zip(m.sample_ids, m.values.tolist())]
    write_table(path, header, rows, delimiter)


def filter_sparse_taxa(m: AbundanceMatrix, max_zero_fraction: float = 0.80) -> AbundanceMatrix:
    """Drop taxa whose fraction of zero-abundance samples strictly exceeds the threshold.

    Column order is otherwise preserved; the comparison is strict, so a
    column sitting exactly on the threshold is retained.
    """
    if not 0.0 <= max_zero_fraction <= 1.0:
        raise ValidationError("max_zero_fraction must be in [0, 1]")
    zero_frac = (m.values == 0.0).mean(axis=0)
    keep = zero_frac <= max_zero_fraction
    if not keep.any():
        raise ValidationError("no taxa remain after sparsity filtering")
    labels = tuple(lab for lab, k in zip(m.taxon_labels, keep) if k)
    return AbundanceMatrix(m.values[:, keep], m.sample_ids, labels)


def css_normalize(m: AbundanceMatrix, quantile: float = 0.50, scale: float = 1000.0) -> AbundanceMatrix:
    """Cumulative-sum scaling, one scale factor per sample.

    For each row, ``q`` is the given quantile of the row's nonzero values and
    the scale factor is the sum of all row values <= q; the row is divided by
    that factor and multiplied by ``scale``, which must be finite and
    positive.  Output rows are invariant to positive rescaling of the raw
    row.
    """
    if not 0.0 < quantile < 1.0:
        raise ValidationError("quantile must be in (0, 1)")
    if not (math.isfinite(scale) and scale > 0):
        raise ValidationError(f"scale must be finite and > 0, got {scale}")
    values = m.values
    out = np.empty_like(values)
    for i in range(values.shape[0]):
        row = values[i]
        nonzero = row[row > 0]
        if nonzero.size == 0:
            raise ValidationError(
                f"sample {m.sample_ids[i]!r} has no nonzero abundances"
            )
        q = np.quantile(nonzero, quantile)
        factor = row[row <= q].sum()
        if factor <= 0.0:
            raise ValidationError(
                f"sample {m.sample_ids[i]!r} has zero cumulative sum at quantile {quantile}"
            )
        out[i] = row / factor * scale
    return AbundanceMatrix(out, m.sample_ids, m.taxon_labels)


def load_function(path, abundance: AbundanceMatrix) -> FunctionalVariable:
    """Load a two-column (sample_id, value) table joined to an abundance matrix.

    The variable name is taken from the second header cell.  Sample ids must
    match the abundance matrix exactly (both directions); the result follows
    the abundance sample order.
    """
    header, rows, _ = read_table(path)
    if len(header) != 2:
        raise ParseError(f"{path}: expected exactly two columns (sample_id, value)")
    name = header[1]
    check_unique([sid for sid, _ in rows], "sample id", path)
    by_id = {sid: parse_cell(cell, path, row=i + 2, col=2)
             for i, (sid, cell) in enumerate(rows)}
    missing = [sid for sid in abundance.sample_ids if sid not in by_id]
    extra = [sid for sid in by_id if sid not in set(abundance.sample_ids)]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing from {path}: {missing}")
        if extra:
            parts.append(f"not in abundance matrix: {extra}")
        raise ValidationError("unmatched sample ids; " + "; ".join(parts))
    values = np.array([by_id[sid] for sid in abundance.sample_ids])
    return FunctionalVariable(values, name)


def write_function(fv: FunctionalVariable, sample_ids, path, delimiter: str = ",") -> None:
    rows = [[sid, fmt(v)] for sid, v in zip(sample_ids, fv.values)]
    write_table(path, ["sample_id", fv.name], rows, delimiter)
