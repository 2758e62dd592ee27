"""Synthetic data: planted structure, analytic correlation, file round trips."""

import numpy as np
import pytest

from coresponse.errors import ValidationError
from coresponse.ingest import css_normalize, load_abundance, load_function
from coresponse.network import convolve, load_adjacency
from coresponse.synth import (SynthSpec, block_adjacency, generate,
                              write_bundle)
from coresponse.utils import pearson


class TestBlockAdjacency:
    def test_equal_blocks(self):
        A = block_adjacency(6, 2, 0.8, 0.1)
        assert A[0, 1] == 0.8 and A[1, 2] == 0.8
        assert A[0, 3] == 0.1 and A[2, 5] == 0.1
        assert (np.diag(A) == 0.0).all()
        np.testing.assert_array_equal(A, A.T)

    def test_uneven_blocks_split_like_array_split(self):
        # 7 taxa in 3 blocks -> sizes 3, 2, 2
        A = block_adjacency(7, 3, 1.0, 0.0)
        assert A[0, 2] == 1.0 and A[0, 3] == 0.0
        assert A[3, 4] == 1.0 and A[4, 5] == 0.0
        assert A[5, 6] == 1.0

    def test_zero_inter_is_block_diagonal(self):
        A = block_adjacency(8, 2, 0.5, 0.0)
        assert (A[:4, 4:] == 0.0).all()
        assert (A[4:, :4] == 0.0).all()

    def test_single_block(self):
        A = block_adjacency(4, 1, 0.3, 0.0)
        off = A[~np.eye(4, dtype=bool)]
        assert (off == 0.3).all()


class TestSpecValidation:
    def test_empty_planted(self):
        with pytest.raises(ValidationError, match="empty"):
            SynthSpec(planted_group=())

    def test_duplicate_planted(self):
        with pytest.raises(ValidationError, match="duplicate"):
            SynthSpec(planted_group=(1, 1, 2))

    def test_out_of_range_planted(self):
        with pytest.raises(ValidationError, match="planted"):
            SynthSpec(n_taxa=10, planted_group=(0, 10))

    def test_weight_ordering(self):
        with pytest.raises(ValidationError, match="intra_block_weight"):
            SynthSpec(intra_block_weight=0.1, inter_block_weight=0.5)

    def test_negative_noise(self):
        with pytest.raises(ValidationError, match="noise_sigma"):
            SynthSpec(noise_sigma=-0.1)

    def test_more_blocks_than_taxa(self):
        with pytest.raises(ValidationError, match="blocks"):
            SynthSpec(n_taxa=3, n_blocks=4)

    def test_expected_r_formula(self):
        assert SynthSpec(noise_sigma=0.0).expected_r == 1.0
        np.testing.assert_allclose(SynthSpec(noise_sigma=1.0).expected_r,
                                   1.0 / np.sqrt(2.0), rtol=1e-15)
        np.testing.assert_allclose(SynthSpec(noise_sigma=0.05).expected_r,
                                   1.0 / np.sqrt(1.0025), rtol=1e-15)


def small_spec(**kw):
    base = dict(n_samples=50, n_taxa=20, n_blocks=4,
                planted_group=(0, 1, 2), noise_sigma=0.05, seed=0)
    base.update(kw)
    return SynthSpec(**base)


class TestGenerate:
    def test_bit_identical_reruns(self):
        a = generate(small_spec())
        b = generate(small_spec())
        np.testing.assert_array_equal(a.raw_abundance.values,
                                      b.raw_abundance.values)
        np.testing.assert_array_equal(a.abundance.values, b.abundance.values)
        np.testing.assert_array_equal(a.function.values, b.function.values)

    def test_seed_changes_data(self):
        a = generate(small_spec(seed=0))
        b = generate(small_spec(seed=1))
        assert not np.array_equal(a.raw_abundance.values,
                                  b.raw_abundance.values)

    def test_noiseless_signal_correlates_perfectly(self):
        bundle = generate(small_spec(noise_sigma=0.0))
        conv = convolve(bundle.abundance, bundle.network)
        s = conv[:, list(bundle.planted)].sum(axis=1)
        np.testing.assert_allclose(pearson(s, bundle.function.values), 1.0,
                                   rtol=1e-12)

    def test_observed_r_near_analytic(self):
        rs = []
        for seed in range(5):
            bundle = generate(small_spec(n_samples=400, noise_sigma=0.5,
                                         seed=seed))
            conv = convolve(bundle.abundance, bundle.network)
            s = conv[:, list(bundle.planted)].sum(axis=1)
            rs.append(pearson(s, bundle.function.values))
        np.testing.assert_allclose(np.mean(rs),
                                   small_spec(noise_sigma=0.5).expected_r,
                                   atol=0.03)

    def test_function_is_standardized(self):
        bundle = generate(small_spec())
        np.testing.assert_allclose(bundle.function.values.mean(), 0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(bundle.function.values.std(), 1.0,
                                   rtol=1e-12)

    def test_normalized_abundance_matches_css(self):
        bundle = generate(small_spec())
        again = css_normalize(bundle.raw_abundance)
        np.testing.assert_array_equal(bundle.abundance.values, again.values)

    def test_planted_sorted_and_labelled(self):
        bundle = generate(small_spec(planted_group=(7, 2, 11)))
        assert bundle.planted == (2, 7, 11)
        assert bundle.network.taxon_labels[0] == "T01"
        assert bundle.raw_abundance.sample_ids[0] == "S01"

    def test_label_width_grows(self):
        bundle = generate(SynthSpec(n_samples=120, n_taxa=15, n_blocks=3,
                                    planted_group=(0,), seed=0))
        assert bundle.raw_abundance.sample_ids[0] == "S001"
        assert bundle.network.taxon_labels[0] == "T001"

    def test_abundances_positive(self):
        bundle = generate(small_spec())
        assert (bundle.raw_abundance.values > 0).all()
        assert (bundle.abundance.values >= 0).all()


class TestWriteBundle:
    def test_files_reproduce_bundle(self, tmp_path):
        bundle = generate(small_spec())
        paths = write_bundle(bundle, tmp_path)
        assert set(paths) == {"abundance", "function", "adjacency",
                              "ground_truth"}

        raw = load_abundance(paths["abundance"])
        np.testing.assert_allclose(raw.values, bundle.raw_abundance.values,
                                   rtol=1e-9)
        assert raw.taxon_labels == bundle.raw_abundance.taxon_labels

        normalized = css_normalize(raw)
        np.testing.assert_allclose(normalized.values, bundle.abundance.values,
                                   rtol=1e-9)

        net = load_adjacency(paths["adjacency"], raw.taxon_labels)
        np.testing.assert_array_equal(net.adjacency, bundle.network.adjacency)

        fv = load_function(paths["function"], raw)
        np.testing.assert_allclose(fv.values, bundle.function.values,
                                   rtol=1e-9)

    def test_ground_truth_table(self, tmp_path):
        bundle = generate(small_spec(planted_group=(4, 9)))
        paths = write_bundle(bundle, tmp_path)
        lines = paths["ground_truth"].read_text().strip().splitlines()
        assert lines[0] == "planted_index,taxon_label,expected_r"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "4" and first[1] == "T05"
        np.testing.assert_allclose(float(first[2]), bundle.expected_r,
                                   rtol=1e-10)
