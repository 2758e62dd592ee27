"""Plain delimited-table reading and writing, and the GraphML writer.

All file formats in this package are simple delimited text in UTF-8: one
mandatory header row, no quoting, decimal point '.'.  A leading byte-order
mark is skipped.  The delimiter is auto-detected among comma and tab (tab
wins when the header contains one).  Numeric cells are parsed exactly as
Python's ``float()`` parses them, surrounding whitespace allowed.  Numeric
output uses 12 significant digits, which round-trips any decimal input of
up to 12 significant digits bit-exactly through a float64.

Tables are read and written a batch of lines at a time: a matrix read
holds the parsed values and its labels, not the file's text, and a write
holds one batch of lines.

Graph files are GraphML, written by :func:`write_graphml` in exactly the
bytes networkx 3.x's ``write_graphml`` writes for the same graph.
"""

import itertools
from contextlib import closing, contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError


def fmt(x) -> str:
    """Format a number with 12 significant digits."""
    return format(float(x), ".12g")


def fmt_cells(values, delimiter: str) -> str:
    """``delimiter.join(fmt(v) for v in values)`` in one format call.

    ``values`` are Python floats (a row of ``ndarray.tolist()``);
    ``"%.12g" % x`` and ``format(x, ".12g")`` are the same conversion, so
    the bytes are the same.
    """
    values = tuple(values)
    return delimiter.join(("%.12g",) * len(values)) % values


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
    """The whole text of an input file, decoded as UTF-8.

    A leading byte-order mark, which Excel writes in "CSV UTF-8", is
    skipped here and by every reader below.
    """
    with _input_errors(path):
        return Path(path).read_text(encoding="utf-8-sig")


#: the line boundaries of ``str.splitlines`` besides "\n" and "\r"
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAKS = "\n\r" + _OTHER_LINE_BREAKS

#: characters of text a table read or write handles at a time
_BATCH_CHARS = 1 << 14


def _iter_lines(path):
    """The non-empty lines of a table, read one batch of lines at a time.

    The lines are those of ``read_text(path).splitlines()``.  The file is
    read with universal newlines, so a carriage return ends a line, in
    batches of whole lines of about ``_BATCH_CHARS`` characters; a batch
    that holds one of ``str.splitlines``'s other line boundaries (form
    feed, the Unicode line and paragraph separators ...) is split again
    with ``str.splitlines``.
    """
    with _input_errors(path), open(path, encoding="utf-8-sig") as f:
        for batch in iter(lambda: f.readlines(_BATCH_CHARS), []):
            text = "".join(batch)
            if any(c in text for c in _OTHER_LINE_BREAKS):
                batch = text.splitlines()
            for line in batch:
                line = line.rstrip("\n")
                if line != "":
                    yield line


def read_header(path) -> list[str]:
    """The header cells of a table, reading no further than the first
    batch of lines (the header line alone, when it is ``_BATCH_CHARS``
    characters or longer)."""
    with closing(_iter_lines(path)) as lines:
        first = next(lines, None)
    if first is None:
        raise ParseError(f"{path}: file is empty")
    return first.split(sniff_delimiter(first))


def read_table(path) -> tuple[list[str], list[list[str]], str]:
    """Read a delimited table into (header, rows, delimiter).

    Raises:
        ParseError: empty or unreadable file, or ragged row (reported with
            its 1-based line number).
    """
    with closing(_iter_lines(path)) as lines:
        header_line = next(lines, None)
        if header_line is None:
            raise ParseError(f"{path}: file is empty")
        delim = sniff_delimiter(header_line)
        header = header_line.split(delim)
        rows = []
        for i, line in enumerate(lines, start=2):
            cells = line.split(delim)
            if len(cells) != len(header):
                raise ParseError(f"{path}: row {i} has {len(cells)} cells, "
                                 f"expected {len(header)}")
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
    is a label followed by one number per column label.  The rows are
    streamed from the file into one ``np.loadtxt`` call, which gets each
    row's cells without its label and returns the values; so the read
    holds the result and the labels, never the file's text.  Its values
    equal ``float()``'s on every cell it accepts.  When it rejects a cell
    (``float()`` also takes ``1_0`` and non-ASCII digits), or the rows are
    ragged, the table is read again cell by cell, which gives ``float()``'s
    values or the ParseError that names the row and column.
    """
    with closing(_iter_lines(path)) as lines:
        header_line = next(lines, None)
        if header_line is None:
            raise ParseError(f"{path}: file is empty")
        delim = sniff_delimiter(header_line)
        header = header_line.split(delim)
        row_labels = []

        def bodies():
            for line in lines:
                label, _, body = line.partition(delim)
                if not body:
                    # loadtxt would skip it: a fault the cell-by-cell
                    # reader reports
                    raise ValueError("a row without cells")
                row_labels.append(label)
                yield body

        values = None
        cells = bodies()
        try:
            first = next(cells, None) if len(header) > 1 else None
            # loadtxt warns on an input with no rows, and takes any column
            # count, so only a result of exactly the header's shape is the
            # table
            if first is not None:
                values = np.loadtxt(itertools.chain((first,), cells),
                                    delimiter=delim, comments=None,
                                    dtype=np.float64, ndmin=2)
        except ValueError:
            values = None
    if values is None or values.shape != (len(row_labels), len(header) - 1):
        return _parse_cells(path)
    return header[1:], row_labels, values


def _parse_cells(path) -> tuple[list[str], list[str], np.ndarray]:
    """``read_matrix`` by ``read_table`` and ``parse_cell``."""
    header, rows, _ = read_table(path)
    values = np.empty((len(rows), len(header) - 1))
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells[1:]):
            values[i, j] = parse_cell(cell, path, row=i + 2, col=j + 2)
    return header[1:], [cells[0] for cells in rows], values


def write_table(path, header: list[str], rows, delimiter: str = ",") -> None:
    """Write a table of pre-formatted string cells as UTF-8.

    ``rows`` is any iterable of cell lists; it is consumed one row at a
    time and written in batches of about ``_BATCH_CHARS`` characters, so
    a generator keeps one batch of lines in memory.  Every cell is
    checked: each row must join to one delimiter fewer than the header has
    cells, so a label that holds the delimiter is an error, and no cell
    may hold a line break.  A cell may be a run of numbers that
    :func:`fmt_cells` joined, standing for as many columns.

    Raises:
        ValidationError: a header or row cell that holds the delimiter or
            a line break (the message names it); the file is removed.
    """
    for name in header:
        _check_label(name, delimiter)
    width = len(header) - 1
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(delimiter.join(header) + "\n")
            lines, size = [], 0
            for cells in rows:
                line = delimiter.join(cells)
                if line.count(delimiter) != width:
                    for cell in cells:
                        _check_label(cell, delimiter)
                    raise ValidationError(f"a row has {len(cells)} cells, "
                                          f"expected {width + 1}")
                lines.append(line)
                size += len(line)
                if size >= _BATCH_CHARS:
                    _write_lines(f, lines, delimiter)
                    lines, size = [], 0
            _write_lines(f, lines, delimiter)
    except ValidationError:
        Path(path).unlink()
        raise


def _write_lines(f, lines: list[str], delimiter: str) -> None:
    """Write ``lines``, each ended by a newline, none holding a line break."""
    if not lines:
        return
    text = "\n".join(lines) + "\n"
    if (text.count("\n") != len(lines)
            or any(c in text for c in "\r" + _OTHER_LINE_BREAKS)):
        for line in lines:
            for cell in line.split(delimiter):
                _check_label(cell, delimiter)
    f.write(text)


def _check_label(label: str, delimiter: str) -> None:
    if delimiter in label or any(c in label for c in _LINE_BREAKS):
        raise ValidationError(
            f"label {label!r} contains the delimiter or a line break")


#: GraphML ``attr.type`` of each attribute value type, named as networkx does
_GRAPHML_TYPES = {int: "long", float: "double"}

_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
    'xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns '
    'http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">\n')


def _xml_attr(text: str) -> str:
    """Escape an XML attribute value as ElementTree does."""
    for char, ref in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
                      ('"', "&quot;"), ("\r", "&#13;"), ("\n", "&#10;"),
                      ("\t", "&#09;")):
        if char in text:
            text = text.replace(char, ref)
    return text


def write_graphml(path, nodes, edges) -> None:
    """Write an undirected graph as GraphML.

    ``nodes`` yields ``(label, attrs)`` and ``edges`` ``(u, v, attrs)``
    between labels of ``nodes``; attribute values are ints or floats.  The
    file holds exactly the bytes networkx 3.x's ``write_graphml`` writes
    for the ``nx.Graph`` built by adding them in order.  So a repeated
    label or pair updates the attributes of its first occurrence, edges
    come in node order, each from the endpoint that comes first, and key
    ids number the (name, type, scope) triples in order of first use over
    the nodes, then the edges.
    """
    node_attrs = {}
    for label, attrs in nodes:
        node_attrs.setdefault(label, {}).update(attrs)
    adj = {label: {} for label in node_attrs}
    for u, v, attrs in edges:
        data = adj[u].get(v)
        if data is None:
            data = adj[u][v] = adj[v][u] = {}
        data.update(attrs)

    ids = {label: _xml_attr(str(label)) for label in node_attrs}
    keys = {}  # (name, attr.type, scope) -> key id

    def element(tag, ident, attrs):
        if not attrs:
            return [f"    <{tag} {ident} />\n"]
        lines = [f"    <{tag} {ident}>\n"]
        for name, value in attrs.items():
            key = keys.setdefault((name, _GRAPHML_TYPES[type(value)], tag),
                                  f"d{len(keys)}")
            lines.append(f'      <data key="{key}">{value}</data>\n')
        lines.append(f"    </{tag}>\n")
        return lines

    body = []
    for label, attrs in node_attrs.items():
        body += element("node", f'id="{ids[label]}"', attrs)
    seen = set()
    for u, row in adj.items():
        for v, attrs in row.items():
            if v not in seen:
                body += element("edge", f'source="{ids[u]}" target="{ids[v]}"',
                                attrs)
        seen.add(u)

    # networkx inserts each new key before the others: newest key first
    head = [_GRAPHML_HEAD]
    head += [f'  <key id="{key}" for="{scope}" attr.name="{_xml_attr(name)}" '
             f'attr.type="{kind}" />\n'
             for (name, kind, scope), key in reversed(keys.items())]
    if body:
        text = "".join(head + ['  <graph edgedefault="undirected">\n']
                       + body + ["  </graph>\n</graphml>\n"])
    else:
        text = "".join(head + ['  <graph edgedefault="undirected" />\n'
                               "</graphml>\n"])
    Path(path).write_bytes(text.encode("utf-8", "xmlcharrefreplace"))
