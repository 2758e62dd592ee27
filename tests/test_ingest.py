"""Abundance/function loading, sparsity filtering and normalization."""

import numpy as np
import pytest

from coresponse.errors import ValidationError
from coresponse.ingest import (AbundanceMatrix, FunctionalVariable, css_normalize,
                               filter_sparse_taxa, load_abundance, load_function,
                               write_abundance, write_function)
from coresponse.tables import fmt, write_table


def small_matrix():
    values = np.array([[1.0, 0.0, 3.0],
                       [2.0, 5.0, 0.0],
                       [0.0, 4.0, 6.0],
                       [7.0, 0.0, 0.0]])
    return AbundanceMatrix(values, ("s1", "s2", "s3", "s4"), ("t1", "t2", "t3"))


class TestAbundanceMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative"):
            AbundanceMatrix(np.array([[1.0, -2.0]]), ("s1",), ("t1", "t2"))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            AbundanceMatrix(np.array([[1.0, np.nan]]), ("s1",), ("t1", "t2"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="repeated taxon label 't1'"):
            AbundanceMatrix(np.ones((1, 2)), ("s1",), ("t1", "t1"))

    def test_rejects_duplicate_sample_ids(self):
        with pytest.raises(ValidationError, match="repeated sample id 's1'"):
            AbundanceMatrix(np.ones((2, 1)), ("s1", "s1"), ("t1",))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            AbundanceMatrix(np.ones((2, 2)), ("s1",), ("t1", "t2"))


class TestFunctionalVariable:
    def test_rejects_constant(self):
        with pytest.raises(ValidationError, match="zero variance"):
            FunctionalVariable(np.full(5, 3.0), "f")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            FunctionalVariable(np.array([1.0, np.nan]), "f")


class TestFilter:
    def test_strictly_greater_than_threshold_drops(self):
        # 4 samples: zero fractions are 0.25, 0.5, 0.75, 1.0 per column
        values = np.array([[1.0, 1.0, 1.0, 0.0],
                           [1.0, 1.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0, 0.0]])
        m = AbundanceMatrix(values, tuple("abcd"), tuple("wxyz"))
        kept = filter_sparse_taxa(m, max_zero_fraction=0.75)
        # exactly-at-threshold columns stay; only the all-zero column goes
        assert kept.taxon_labels == ("w", "x", "y")

    def test_default_keeps_80_percent_zero(self):
        values = np.zeros((5, 2))
        values[:, 0] = [1, 2, 3, 4, 5]
        values[0, 1] = 1.0  # 80% zeros: kept under the strict rule
        m = AbundanceMatrix(values, tuple("abcde"), ("t1", "t2"))
        assert filter_sparse_taxa(m).taxon_labels == ("t1", "t2")

    def test_error_when_nothing_remains(self):
        values = np.zeros((2, 2))
        m = AbundanceMatrix(values, ("a", "b"), ("t1", "t2"))
        with pytest.raises(ValidationError, match="no taxa remain"):
            filter_sparse_taxa(m, max_zero_fraction=0.0)


class TestCss:
    def test_hand_example(self):
        # row [1,0,3]: nonzero values {1,3}, median 2 -> values <= 2 sum to 1
        # scale factor 1 -> row * 1000
        m = small_matrix()
        out = css_normalize(m)
        np.testing.assert_allclose(out.values[0], [1000.0, 0.0, 3000.0])

    def test_row_scale_invariance(self):
        m = small_matrix()
        scaled = AbundanceMatrix(m.values * 7.0, m.sample_ids, m.taxon_labels)
        np.testing.assert_allclose(css_normalize(m).values,
                                   css_normalize(scaled).values, rtol=1e-12)

    def test_all_zero_sample_names_the_row(self):
        values = np.array([[1.0, 2.0], [0.0, 0.0]])
        m = AbundanceMatrix(values, ("good", "bad"), ("t1", "t2"))
        with pytest.raises(ValidationError, match="bad"):
            css_normalize(m)

    def test_preserves_zero_pattern(self):
        m = small_matrix()
        out = css_normalize(m)
        assert np.array_equal(out.values == 0.0, m.values == 0.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValidationError, match="scale must be finite"):
            css_normalize(small_matrix(), scale=scale)


def abundance_writer_oracle(m, path, delimiter):
    """write_abundance calling fmt on every cell."""
    rows = [[sid, *(fmt(v) for v in m.values[i])]
            for i, sid in enumerate(m.sample_ids)]
    write_table(path, ["sample_id", *m.taxon_labels], rows, delimiter)


class TestRoundTrip:
    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_writer_matches_per_cell_writer(self, tmp_path, delimiter):
        values = np.array([
            [0.0, -0.0, 1e-5, 1e12],
            [5e-324, 2.2250738585072e-308, 0.1 + 0.2, 1 / 3],
            [123456789012.5, 9007199254740993.0, 1e16, 1.7976931348623157e308],
        ])
        texts = []
        # the second matrix has no taxa: its rows are labels alone
        for m in (AbundanceMatrix(values, ("s1", "s2", "s3"),
                                  ("a", "b", "c", "d")),
                  AbundanceMatrix(np.zeros((2, 0)), ("s1", "s2"), ())):
            write_abundance(m, tmp_path / "ab.csv", delimiter)
            abundance_writer_oracle(m, tmp_path / "oracle.csv", delimiter)
            texts.append((tmp_path / "ab.csv").read_bytes())
            assert texts[-1] == (tmp_path / "oracle.csv").read_bytes()
        d = delimiter.encode()
        assert b"s1" + d + b"0" + d + b"-0" + d + b"1e-05" + d in texts[0]
        assert texts[1] == b"sample_id\ns1\ns2\n"

    def test_abundance_file_round_trip(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "ab.csv"
        write_abundance(m, path)
        again = load_abundance(path)
        assert again.sample_ids == m.sample_ids
        assert again.taxon_labels == m.taxon_labels
        np.testing.assert_array_equal(again.values, m.values)

    def test_taxa_as_rows_orientation(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "ab.csv"
        # write transposed by hand, read with the other orientation
        lines = ["taxon," + ",".join(m.sample_ids)]
        for j, lab in enumerate(m.taxon_labels):
            lines.append(lab + "," + ",".join(str(v) for v in m.values[:, j]))
        path.write_text("\n".join(lines) + "\n")
        again = load_abundance(path, orientation="taxa-as-rows")
        assert again.taxon_labels == m.taxon_labels
        np.testing.assert_array_equal(again.values, m.values)

    def test_function_join_reorders_to_sample_order(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "f.csv"
        path.write_text("sample_id,pmn\ns3,30\ns1,10\ns4,40\ns2,20\n")
        fv = load_function(path, m)
        assert fv.name == "pmn"
        np.testing.assert_array_equal(fv.values, [10.0, 20.0, 30.0, 40.0])

    def test_function_unmatched_ids_listed(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "f.csv"
        path.write_text("sample_id,pmn\ns1,10\ns2,20\ns3,30\nzz,40\n")
        with pytest.raises(ValidationError, match="zz"):
            load_function(path, m)

    def test_function_repeated_sample_id_named(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "f.csv"
        path.write_text("sample_id,pmn\ns1,10\ns2,20\ns1,30\ns4,40\n")
        with pytest.raises(ValidationError,
                           match=r"f\.csv: repeated sample id 's1'"):
            load_function(path, m)

    def test_function_file_round_trip(self, tmp_path):
        fv = FunctionalVariable(np.array([0.5, 1.5, -2.0]), "pmn")
        path = tmp_path / "f.csv"
        write_function(fv, ("a", "b", "c"), path)
        m = AbundanceMatrix(np.ones((3, 1)), ("a", "b", "c"), ("t1",))
        again = load_function(path, m)
        assert again.name == "pmn"
        np.testing.assert_array_equal(again.values, fv.values)
