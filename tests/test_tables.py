"""Delimited-table primitives: formatting, sniffing, error coordinates."""

import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresponse import tables
from coresponse.errors import ParseError, ValidationError
from coresponse.tables import (fmt, parse_cell, read_header, read_matrix,
                               read_table, read_text, sniff_delimiter,
                               write_table)


class TestFmt:
    def test_twelve_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333333"
        assert fmt(1234567890123456.0) == "1.23456789012e+15"

    def test_integers_stay_short(self):
        assert fmt(2.0) == "2"
        assert fmt(-15.0) == "-15"

    def test_round_trip_of_decimal_inputs(self):
        # values written with <= 12 significant digits survive a write/read
        # cycle bit-exactly
        rng = np.random.default_rng(0)
        vals = np.round(rng.uniform(-1e3, 1e3, size=500), 6)
        again = np.array([float(fmt(v)) for v in vals])
        assert np.array_equal(vals, again)


#: cells where a formatter could go wrong: signed zero, exponent switches,
#: subnormals, 17-digit values and the non-finite ones
TRICKY_FLOATS = (0.0, -0.0, 1e-5, 1e-4, 1e12, 1e16, 5e-324, 2.2250738585072e-308,
                 0.1 + 0.2, 1 / 3, 123456789012.5, 9007199254740993.0,
                 -2.5e-300, 1.7976931348623157e308, float("inf"),
                 float("-inf"), float("nan"))


class TestFmtCells:
    """One ``%`` call per row writes the bytes of ``fmt`` on every cell."""

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_tricky_values(self, delimiter):
        assert (tables.fmt_cells(TRICKY_FLOATS, delimiter)
                == delimiter.join(fmt(v) for v in TRICKY_FLOATS))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_subnormal=True), max_size=20))
    def test_any_floats(self, values):
        assert (tables.fmt_cells(values, ",")
                == ",".join(fmt(v) for v in values))

    def test_row_of_an_array(self):
        row = np.array([-0.0, 1e-5, 5e-324, 0.1 + 0.2])
        assert (tables.fmt_cells(row.tolist(), ",")
                == ",".join(fmt(v) for v in row))


class TestSniffing:
    def test_tab_wins_when_present(self):
        assert sniff_delimiter("a\tb,c") == "\t"

    def test_comma_otherwise(self):
        assert sniff_delimiter("a,b,c") == ","


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["id", "x"], [["a", "1.5"], ["b", "2"]])
        header, rows, delim = read_table(path)
        assert header == ["id", "x"]
        assert rows == [["a", "1.5"], ["b", "2"]]
        assert delim == ","

    def test_tab_round_trip(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_table(path, ["id", "x"], [["a", "1.5"]], "\t")
        header, rows, delim = read_table(path)
        assert delim == "\t"
        assert rows == [["a", "1.5"]]

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            read_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_table(path)

    def test_label_with_delimiter_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_table(tmp_path / "x.csv", ["a,b"], [])

    @pytest.mark.parametrize("label", ["s,1", "s\n1", "s\r1", "s\x0c1",
                                       "s\u20281", "s\x851"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_row_label_that_would_not_read_back_rejected(self, tmp_path,
                                                         label, column):
        # many good rows first, so the bad one is in a later batch
        good = [[f"r{i}", f"t{i}", "1.5"] for i in range(3000)]
        bad = ["r", "t", "2"]
        bad[column] = label
        path = tmp_path / "x.csv"
        with pytest.raises(ValidationError, match=re.escape(repr(label))):
            write_table(path, ["id", "taxon", "x"], good + [bad])
        assert not path.exists()

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_row_label_holding_the_other_delimiter_is_kept(self, tmp_path,
                                                           delimiter):
        other = "\t" if delimiter == "," else ","
        path = tmp_path / "x.csv"
        write_table(path, ["id", "x"], [[f"s{other}1", "1"]], delimiter)
        assert read_table(path)[1] == [[f"s{other}1", "1"]]

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="2 cells, expected 3"):
            write_table(tmp_path / "x.csv", ["id", "a", "b"], [["r", "1"]])

    def test_joined_number_cells_are_taken_whole(self, tmp_path):
        path = tmp_path / "x.csv"
        rows = [[f"r{i}", tables.fmt_cells([i, 0.5, 2.0], ",")]
                for i in range(5000)]
        write_table(path, ["id", "a", "b", "c"], rows)
        header, read, _ = read_table(path)
        assert header == ["id", "a", "b", "c"]
        assert read == [[f"r{i}", str(i), "0.5", "2"] for i in range(5000)]


class TestParseCell:
    def test_coordinates_in_message(self, tmp_path):
        with pytest.raises(ParseError, match="row 4.*column 2"):
            parse_cell("oops", "f.csv", 4, 2)

    def test_parses_floats(self):
        assert parse_cell("1.25e-3", "f.csv", 1, 1) == 1.25e-3


def cell_by_cell(path):
    """The reader every matrix load used before ``read_matrix``: one
    ``read_table`` row list, then ``parse_cell`` on each cell."""
    header, rows, _ = read_table(path)
    values = np.empty((len(rows), len(header) - 1))
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells[1:]):
            values[i, j] = parse_cell(cell, path, row=i + 2, col=j + 2)
    return header[1:], [cells[0] for cells in rows], values


def outcome(reader, path):
    """(labels, values as bits) or the ParseError message; loadtxt's
    warnings are errors here, so a warning cannot go unnoticed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cols, rows, values = reader(path)
        except ParseError as exc:
            return str(exc)
    assert values.dtype == np.float64
    return cols, rows, values.shape, values.view(np.uint64).tolist()


#: cells that float() and np.loadtxt may treat differently
TRAP_CELLS = ("1_0", "\u0661\u0662", "\uff11", "1#2", "#", "nan", "-nan",
              "inf", "-Infinity", "NaN", "-0", "+.5", "1e", "0x10", "",
              " ", "x7", " 2.5 ", "\t3\t", "\xa04\u2003", "1e400",
              "-1e-400", "4.9e-324", "1,5", "'1'", '"1"')

numbers = st.floats(allow_nan=False, width=64).map(repr)
clean_cells = st.one_of(numbers, numbers.map(lambda c: f" {c}  "))
any_cells = st.one_of(clean_cells, st.sampled_from(TRAP_CELLS))


@st.composite
def matrix_texts(draw):
    """A labeled matrix table with the layout faults seen in real inputs."""
    delim = draw(st.sampled_from([",", "\t"]))
    cells = draw(st.sampled_from([clean_cells, any_cells]))
    n_cols = draw(st.integers(0, 4))
    header = ["id"] + [f"c{j}" for j in range(n_cols)]
    lines = [delim.join(header)]
    for i in range(draw(st.integers(0, 4))):
        row = [f"r{i}"] + [draw(cells) for _ in range(n_cols)]
        fault = draw(st.sampled_from(
            ["none"] * 6 + ["extra", "short", "label-only", "blank-label",
                            "whitespace-only"]))
        if fault == "extra":
            row.append(draw(cells))
        elif fault == "short" and n_cols:
            row.pop()
        elif fault == "label-only":
            row = row[:1]
        elif fault == "blank-label":
            row[0] = ""
        elif fault == "whitespace-only":
            row = ["   "]
        lines.append(delim.join(row))
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
    if draw(st.booleans()):
        extra = draw(cells)
        lines[1:] = [ln + delim + extra for ln in lines[1:] if ln]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = newline if draw(st.booleans()) else ""
    return newline.join(lines) + end


class TestReadMatrix:
    """``read_matrix`` gives the cell-by-cell reader's bits, labels and
    messages."""

    @staticmethod
    def check(tmp_dir, text):
        path = Path(tmp_dir) / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(cell_by_cell, path)
        assert outcome(read_matrix, path) == expected
        return expected

    @settings(max_examples=400, deadline=None)
    @given(text=matrix_texts())
    def test_matches_cell_by_cell_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp_dir:
            self.check(tmp_dir, text)

    @pytest.mark.parametrize("cell", TRAP_CELLS)
    @pytest.mark.parametrize("delim", [",", "\t"])
    def test_trap_cell(self, tmp_path, cell, delim):
        rows = [["a", "1", "2"], ["b", "3", cell], ["c", "5", "6"]]
        text = "\n".join(delim.join(r) for r in [["id", "x", "y"], *rows])
        self.check(tmp_path, text + "\n")

    @pytest.mark.parametrize("text", [
        "id,x\na,1,9\nb,2\n",            # extra cell on one row
        "id,x\na,1,9\nb,2,9\n",          # extra cell on every row
        "id,x,y\na,1,2\nb\nc,3,4\n",     # label-only row
        "id,x,y\na,1,2\n   \nc,3,4\n",   # whitespace-only row
        "id,x,y\na,1,2\nb,3\n",          # short row
        "id,x,y\r\na,1,2\r\n\r\nb,3,4\r\n",   # CRLF and a blank line
        "id\tx\ty\na\t1\t2\nb\t3\t4",     # tab, no final newline
        "id,x,y\n",                      # header only
        "id\na\nb\n",                    # no value columns
        "id\na,1\n",                     # no value columns, ragged
    ])
    def test_layout_trap(self, tmp_path, text):
        self.check(tmp_path, text)

    def test_float_values_for_cells_loadtxt_rejects(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,x,y\na,1_0,\u0663.5\nb, 2 ,-0\n", encoding="utf-8")
        cols, rows, values = read_matrix(path)
        assert (cols, rows) == (["x", "y"], ["a", "b"])
        assert values.tolist() == [[10.0, 3.5], [2.0, -0.0]]
        assert np.signbit(values[1, 1])

    def test_header_only_gives_empty_rows_without_warning(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,x,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols, rows, values = read_matrix(path)
        assert (cols, rows, values.shape) == (["x", "y"], [], (0, 2))

    def test_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,x,y\na,1,2\nb,3,oops\n")
        with pytest.raises(ParseError) as exc:
            read_matrix(path)
        assert str(exc.value) == (
            f"{path}: non-numeric cell 'oops' at row 3, column 3")

    def test_clean_table_is_read_once(self, tmp_path, monkeypatch):
        # the cell-by-cell reader runs only when np.loadtxt cannot read
        # the table
        def refuse(path):
            raise AssertionError("fell back to the cell-by-cell reader")

        path = tmp_path / "m.csv"
        path.write_text("id,x,y\na,1.5,2\nb, 3 ,-4e-3\n")
        monkeypatch.setattr(tables, "read_table", refuse)
        assert read_matrix(path)[2].tolist() == [[1.5, 2.0], [3.0, -4e-3]]
        path.write_text("id,x,y\na,1_5,2\nb,3,4\n")
        with pytest.raises(AssertionError, match="fell back"):
            read_matrix(path)


class TestUnreadableInput:
    @pytest.mark.parametrize("reader", [read_table, read_matrix, read_header,
                                        read_text])
    def test_latin1_byte_is_a_parse_error(self, tmp_path, reader):
        path = tmp_path / "m.csv"
        path.write_bytes("id,x\n\xe9,1\n".encode("latin-1"))
        with pytest.raises(ParseError, match="not UTF-8"):
            reader(path)

    @pytest.mark.parametrize("reader", [read_table, read_matrix, read_header,
                                        read_text])
    def test_directory_is_a_parse_error(self, tmp_path, reader):
        with pytest.raises(ParseError) as exc:
            reader(tmp_path)
        assert str(exc.value).startswith(f"{tmp_path}: cannot read")

    @pytest.mark.parametrize("reader", [read_table, read_matrix, read_header,
                                        read_text])
    def test_missing_file_stays_file_not_found(self, tmp_path, reader):
        with pytest.raises(FileNotFoundError):
            reader(tmp_path / "ghost.csv")

    def test_utf8_labels_are_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("id,\u00e9\n\u00e9chantillon,1\n".encode("utf-8"))
        assert read_matrix(path)[:2] == (["\u00e9"], ["\u00e9chantillon"])


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark (Excel's "CSV UTF-8") is not part
    of the first header cell."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbfid,x,y\r\na,1,2\r\n")
        return path

    def test_readers_skip_it(self, path):
        assert read_text(path) == "id,x,y\na,1,2\n"
        assert read_header(path) == ["id", "x", "y"]
        assert read_table(path) == (["id", "x", "y"], [["a", "1", "2"]], ",")
        cols, rows, values = read_matrix(path)
        assert (cols, rows, values.tolist()) == (["x", "y"], ["a"],
                                                 [[1.0, 2.0]])

    def test_only_a_leading_mark_is_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"id,x\n\xef\xbb\xbfa,1\n")
        assert read_matrix(path)[1] == ["\ufeffa"]


class TestLineBoundaries:
    """Tables are read a line at a time, and split where
    ``str.splitlines`` splits the whole text."""

    @staticmethod
    def check(path, text):
        path.write_bytes(text.encode("utf-8"))
        expected = [ln for ln in text.splitlines() if ln != ""]
        assert list(tables._iter_lines(path)) == expected

    @pytest.mark.parametrize("text", [
        "id,x\ra,1\rb,2\r",                       # carriage returns only
        "id,x\x0ca,1\x1cb,2\u2028c,3\x85d,4\u2029",
        "id,x\r\n\r\n\x0b\na,1",
        "a" * 8191 + "\r\nb,1\r\n",             # CRLF across a read buffer
        "a" * 8191 + "\r" + "\n" * 3 + "b",
    ])
    def test_layouts(self, tmp_path, text):
        self.check(tmp_path / "t.csv", text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab,\n\r\x0b\x0c\x1c\x1e\x85\u2028 \t",
                   max_size=60))
    def test_any_text(self, text):
        with tempfile.TemporaryDirectory() as tmp_dir:
            self.check(Path(tmp_dir) / "t.csv", text)


class TestReadHeader:
    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n", "\n\r\n a\tb\n", "a,b", "a,b\r\nc,d\r\n",
        "a\x0cb\n1\n"])
    def test_matches_read_table_header(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_header(path) == read_table(path)[0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n\n")
        with pytest.raises(ParseError, match="empty"):
            read_header(path)


def peak_bytes(fn):
    """(result, peak bytes the Python heap grew by) of one ``fn()`` call."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: what a table read or write may hold besides its arrays at p=400: the
#: labels, a line of text and np.loadtxt's row buffers
SLACK = 256 * 1024


class TestMemory:
    """Tables are streamed: a read holds its result, a write one row."""

    P = 400

    def test_read_matrix_holds_its_result_not_the_text(self, tmp_path):
        values = np.random.default_rng(0).uniform(0, 1, (self.P, self.P))
        labels = [f"t{i}" for i in range(self.P)]
        path = tmp_path / "m.csv"
        write_table(path, ["taxon", *labels],
                    ([lab, *map(repr, row)]
                     for lab, row in zip(labels, values.tolist())))
        (cols, rows, read), peak = peak_bytes(lambda: read_matrix(path))
        assert (cols, rows) == (labels, labels)
        assert np.array_equal(read, values)
        # np.loadtxt grows its result by a quarter at a time
        assert peak <= 1.25 * read.nbytes + SLACK

    def test_write_table_peak_does_not_grow_with_rows(self, tmp_path):
        cells = [repr(v) for v in
                 np.random.default_rng(0).uniform(0, 1, self.P).tolist()]

        def write(n_rows):
            rows = ([f"r{i}", *cells] for i in range(n_rows))
            return peak_bytes(lambda: write_table(
                tmp_path / "t.csv", ["id", *map(str, range(self.P))], rows))[1]

        few, many = write(50), write(800)
        assert many <= few + 64 * 1024
