"""Plain delimited-table reading and writing.

All file formats in this package are simple delimited text in UTF-8: one
mandatory header row, no quoting, decimal point '.'.  The delimiter is
auto-detected among comma and tab (tab wins when the header contains one).
Numeric cells are parsed exactly as Python's ``float()`` parses them,
surrounding whitespace allowed.  Numeric output uses 12 significant digits,
which round-trips any decimal input of up to 12 significant digits
bit-exactly through a float64.
"""

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError


def fmt(x) -> str:
    """Format a number with 12 significant digits."""
    return format(float(x), ".12g")


def sniff_delimiter(first_line: str) -> str:
    return "\t" if "\t" in first_line else ","


@contextmanager
def _input_errors(path):
    """Report an input that cannot be read or decoded as a ParseError.

    A missing file stays a ``FileNotFoundError``, which the CLI reports
    as a missing file.
    """
    try:
        yield
    except FileNotFoundError:
        raise
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror or exc})") from None


def read_text(path) -> str:
    """The whole text of an input file, decoded as UTF-8."""
    with _input_errors(path):
        return Path(path).read_text(encoding="utf-8")


def read_header(path) -> list[str]:
    """The header cells of a table, reading no further than its header."""
    with _input_errors(path), open(path, encoding="utf-8") as f:
        for line in f:
            for ln in line.splitlines():
                if ln != "":
                    return ln.split(sniff_delimiter(ln))
    raise ParseError(f"{path}: file is empty")


def _read_lines(path) -> list[str]:
    """The non-empty lines of a table; the first one is its header."""
    lines = [ln.rstrip("\r") for ln in read_text(path).splitlines()]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise ParseError(f"{path}: file is empty")
    return lines


def read_table(path) -> tuple[list[str], list[list[str]], str]:
    """Read a delimited table into (header, rows, delimiter).

    Raises:
        ParseError: empty or unreadable file, or ragged row (reported with
            its 1-based line number).
    """
    lines = _read_lines(path)
    delim = sniff_delimiter(lines[0])
    header = lines[0].split(delim)
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(delim)
        if len(cells) != len(header):
            raise ParseError(
                f"{path}: row {i} has {len(cells)} cells, expected {len(header)}"
            )
        rows.append(cells)
    return header, rows, delim


def parse_cell(cell: str, path, row: int, col: int) -> float:
    """Parse one numeric cell, reporting 1-based coordinates on failure."""
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: non-numeric cell {cell!r} at row {row}, column {col}"
        ) from None
    return value


def read_matrix(path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a labeled numeric matrix into (column labels, row labels, values).

    The header's first cell labels the row-label column; every data row
    is a label followed by one number per column label.  All numbers are
    parsed by one ``np.loadtxt`` call, whose values equal ``float()``'s
    on every cell it accepts.  When it rejects a cell (``float()`` also
    takes ``1_0`` and non-ASCII digits), or the rows are ragged, the table
    is read again cell by cell, which gives ``float()``'s values or the
    ParseError that names the row and column.
    """
    lines = _read_lines(path)
    delim = sniff_delimiter(lines[0])
    header = lines[0].split(delim)
    row_labels, bodies = [], []
    for line in lines[1:]:
        label, _, body = line.partition(delim)
        row_labels.append(label)
        bodies.append(body)
    del lines  # the bodies are copies; free the lines before parsing
    shape = (len(bodies), len(header) - 1)
    values = None
    # loadtxt skips empty lines (and warns when all are), and takes any
    # column count, so only a result of exactly the header's shape is the
    # table; an empty body is a fault the cell-by-cell reader reports
    if 0 not in shape and all(bodies):
        try:
            values = np.loadtxt(bodies, delimiter=delim, comments=None,
                                dtype=np.float64, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != shape:
        values = _parse_cells(path, shape)
    return header[1:], row_labels, values


def _parse_cells(path, shape) -> np.ndarray:
    """A matrix table's values by ``read_table`` and ``parse_cell``."""
    _, rows, _ = read_table(path)
    values = np.empty(shape)
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells[1:]):
            values[i, j] = parse_cell(cell, path, row=i + 2, col=j + 2)
    return values


def write_table(path, header: list[str], rows, delimiter: str = ",") -> None:
    """Write a table of pre-formatted string cells."""
    for name in header:
        _check_label(name, delimiter)
    out = [delimiter.join(header)]
    for cells in rows:
        out.append(delimiter.join(cells))
    Path(path).write_text("\n".join(out) + "\n")


def _check_label(label: str, delimiter: str) -> None:
    if delimiter in label or "\n" in label or "\r" in label:
        raise ValidationError(f"label {label!r} contains the delimiter or a newline")
