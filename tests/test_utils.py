"""Seed derivation, order-preserving parallel map, correlation, the
exact-symmetry test and the blocked (A + A^T)/2 passes."""

import sys

import numpy as np
import pytest

from coresponse.errors import ValidationError
from coresponse.utils import (ROW_BLOCK, asymmetry, child_int,
                              exactly_symmetric, generator, parallel_map,
                              pearson, seed_sequence, symmetrize)


def bit_cases():
    """p x p arrays for the in-place passes: random, all-zero and with -0.0
    entries, at p = 1, 2 and 65 (two whole row blocks and one row)."""
    rng = np.random.default_rng(7)
    for p in (1, 2, 2 * ROW_BLOCK + 1):
        A = rng.uniform(0, 1, (p, p))
        signed = A.copy()
        signed[rng.uniform(size=(p, p)) < 0.3] = -0.0
        yield pytest.param(A, id=f"random-{p}")
        yield pytest.param(np.zeros((p, p)), id=f"zero-{p}")
        yield pytest.param(signed, id=f"signed-zero-{p}")


def bits(A):
    return A.view(np.uint64)


class TestSeeds:
    def test_same_key_same_stream(self):
        a = generator(7, 1, 2).normal(size=5)
        b = generator(7, 1, 2).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = generator(7, 1, 2).normal(size=5)
        b = generator(7, 1, 3).normal(size=5)
        c = generator(8, 1, 2).normal(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_key_is_structural_not_concatenated(self):
        # (1, 23) and (12, 3) must name different streams
        assert child_int(0, 1, 23) != child_int(0, 12, 3)

    def test_child_int_deterministic_32_bit(self):
        value = child_int(42, 3, 1)
        assert value == child_int(42, 3, 1)
        assert 0 <= value < 2 ** 32

    def test_negative_master_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            seed_sequence(-1)

    def test_empty_key_allowed(self):
        assert child_int(5) == child_int(5)


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(40))
        assert parallel_map(lambda x: x * x, items, threads=8) == [
            x * x for x in items]

    def test_single_thread_path(self):
        assert parallel_map(str, [3, 1, 2], threads=1) == ["3", "1", "2"]

    def test_thread_count_equivalent(self):
        def work(x):
            return sum(i * x for i in range(50))

        serial = parallel_map(work, range(25), threads=1)
        threaded = parallel_map(work, range(25), threads=6)
        assert serial == threaded

    def test_empty(self):
        assert parallel_map(str, [], threads=4) == []


class TestPearson:
    def test_matches_corrcoef(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=30)
            b = rng.normal(size=30) + 0.5 * a
            np.testing.assert_allclose(pearson(a, b), np.corrcoef(a, b)[0, 1],
                                       rtol=1e-12)

    def test_perfect_and_inverse(self):
        a = np.linspace(0, 1, 10)
        np.testing.assert_allclose(pearson(a, 3 * a + 1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(pearson(a, -2 * a), -1.0, rtol=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError, match="zero-variance"):
            pearson(np.ones(5), np.arange(5.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            pearson(np.arange(4.0), np.arange(5.0))


HALF_MAX = sys.float_info.max / 2

#: (matrix, whether it is its own symmetrization)
SYMMETRY_CASES = {
    "symmetric": ([[1.0, 0.25], [0.25, 1 / 3]], True),
    "asymmetric within 1e-12": ([[0.0, 0.25], [0.25 + 1e-13, 0.0]], False),
    "asymmetric beyond 1e-12": ([[0.0, 0.4], [0.6, 0.0]], False),
    "-0.0 both ways": ([[-0.0, -0.0], [-0.0, 2.0]], True),
    "-0.0 against 0.0": ([[1.0, -0.0], [0.0, 1.0]], False),
    "max/2": ([[HALF_MAX, -HALF_MAX], [-HALF_MAX, 5e-324]], True),
    "above max/2": ([[0.0, 1e308], [1e308, 0.0]], False),
    "below -max/2": ([[0.0, -1e308], [-1e308, 0.0]], False),
    "nan": ([[np.nan, 0.0], [0.0, 1.0]], False),
    "inf": ([[np.inf, 0.0], [0.0, 1.0]], False),
    "non-square": ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]], False),
    "empty": (np.zeros((0, 0)), False),
}


class TestExactlySymmetric:
    @pytest.mark.parametrize("case", sorted(SYMMETRY_CASES))
    def test_true_only_where_symmetrization_keeps_every_bit(self, case):
        values, expected = SYMMETRY_CASES[case]
        A = np.array(values, dtype=np.float64)
        assert exactly_symmetric(A) is expected
        if expected:
            with np.errstate(all="raise"):
                assert ((A + A.T) / 2.0).tobytes() == A.tobytes()

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_any_memory_layout(self, layout):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 6))
        A = X + X.T
        A = np.asfortranarray(A) if layout == "fortran" else np.kron(
            A, np.ones((2, 2)))[::2, ::2]
        assert exactly_symmetric(A)
        A[0, 1] = np.nextafter(A[0, 1], np.inf)
        assert not exactly_symmetric(A)


class TestInPlacePasses:
    """The blocked passes give the bits of the formulas they replace."""

    @pytest.mark.parametrize("A", bit_cases())
    def test_symmetrize_matches_formula(self, A):
        expected = (A + A.T) / 2.0
        symmetrized = A.copy()
        symmetrize(symmetrized)
        assert np.array_equal(bits(symmetrized), bits(expected))
        assert asymmetry(A) == np.abs(A - A.T).max(initial=0.0)

    def test_asymmetry_of_nan_is_nan(self):
        A = np.zeros((70, 70))
        A[69, 3] = np.nan
        assert np.isnan(asymmetry(A))
