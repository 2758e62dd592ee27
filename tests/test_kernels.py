"""The two hot kernels: both group_terms formulations and coordinate descent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresponse import _kernels, ga
from coresponse.ga import OptimizerConfig, run_ga


def random_problem(seed, m=40, p=25, n=60):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    gram = X.T @ X
    gram = (gram + gram.T) / 2.0
    cvec = X.T @ rng.normal(size=n)
    pop = (rng.random((m, p)) < 0.3).astype(np.uint8)
    return pop, gram, cvec


def both(pop, gram, cvec):
    return (_kernels.group_terms(pop, gram, cvec),
            _kernels.group_terms(pop, gram, cvec, gathered=True))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestGroupTerms:
    def test_matches_direct_quadratic_form(self):
        pop, gram, cvec = random_problem(1)
        for num, quad, size in both(pop, gram, cvec):
            for i in range(pop.shape[0]):
                x = pop[i].astype(np.float64)
                np.testing.assert_allclose(num[i], x @ cvec, rtol=1e-12)
                np.testing.assert_allclose(quad[i], x @ gram @ x, rtol=1e-12)
                assert size[i] == int(pop[i].sum())

    def test_empty_rows_are_zero(self):
        pop, gram, cvec = random_problem(2)
        pop[0] = 0
        for num, quad, size in both(pop, gram, cvec):
            assert num[0] == 0.0 and quad[0] == 0.0 and size[0] == 0

    def test_all_rows_empty(self):
        pop, gram, cvec = random_problem(3)
        pop[:] = 0
        num, quad, size = _kernels.group_terms(pop, gram, cvec, gathered=True)
        assert not num.any() and not quad.any() and not size.any()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**20), m=st.integers(1, 30),
           p=st.integers(2, 80), density=st.floats(0.0, 1.0),
           cap=st.integers(1, 10))
    def test_gathered_matches_dense_and_direct(self, seed, m, p, density, cap):
        rng = np.random.default_rng(seed)
        _, gram, cvec = random_problem(seed, m=1, p=p, n=12)
        # rows at most `cap` bits, plus an empty row and a full row above it
        pop = np.zeros((m + 2, p), np.uint8)
        for i in range(m):
            k = min(rng.binomial(cap, density), p)
            pop[i, rng.choice(p, k, replace=False)] = 1
        pop[m + 1] = 1
        dense, gathered = both(pop, gram, cvec)
        X = pop.astype(np.float64)
        direct = (X @ cvec, np.einsum("ij,jk,ik->i", X, gram, X))
        # 1e-12 relative to the summed magnitudes, which bounds rounding
        # even where the terms cancel
        scale = (X @ np.abs(cvec) + 1e-300,
                 np.einsum("ij,jk,ik->i", X, np.abs(gram), X) + 1e-300)
        for term in range(2):
            for other in (dense[term], direct[term]):
                err = np.abs(gathered[term] - other) / scale[term]
                assert err.max() <= 1e-12
        np.testing.assert_array_equal(gathered[2], dense[2])
        assert gathered[0][m] == 0.0 and gathered[1][m] == 0.0

    @pytest.mark.parametrize("m", (1, 2, 7))
    @pytest.mark.parametrize("p", (2, 33, 300))
    def test_size_is_the_int64_popcount(self, m, p):
        rng = np.random.default_rng(m * p)
        _, gram, cvec = random_problem(m * p, m=1, p=p, n=12)
        pop = (rng.random((m, p)) < 0.2).astype(np.uint8)
        pop[0] = 0
        pop[-1] = 1  # with m=1 the row is all ones, not empty
        for rows in (pop, np.zeros_like(pop)):
            for _, _, size in both(rows, gram, cvec):
                assert size.dtype == np.int64 and size.shape == (m,)
                np.testing.assert_array_equal(size, rows.sum(axis=1))

    def test_gathered_rows_do_not_depend_on_other_rows(self):
        # a wider row pads every other row further; their sums must not move
        rng = np.random.default_rng(7)
        p, m = 400, 300
        _, gram, cvec = random_problem(7, m=1, p=p)
        pop = np.zeros((m, p), np.uint8)
        for i in range(m):
            pop[i, rng.choice(p, rng.integers(1, 12), replace=False)] = 1
        num, quad, _ = _kernels.group_terms(pop, gram, cvec, gathered=True)
        for width in (20, 90, p):
            wider = pop.copy()
            wider[5, :width] = 1
            num2, quad2, _ = _kernels.group_terms(wider, gram, cvec,
                                                  gathered=True)
            keep = np.arange(m) != 5
            np.testing.assert_array_equal(bits(num2[keep]), bits(num[keep]))
            np.testing.assert_array_equal(bits(quad2[keep]), bits(quad[keep]))

    def test_single_row_equals_its_row_in_a_population(self):
        pop, gram, cvec = random_problem(8, m=50, p=300)
        num, quad, _ = _kernels.group_terms(pop, gram, cvec, gathered=True)
        for i in (0, 17, 49):
            one = _kernels.group_terms(pop[i:i + 1], gram, cvec, gathered=True)
            assert bits(one[0])[0] == bits(num)[i]
            assert bits(one[1])[0] == bits(quad)[i]


class TestFormulationChoice:
    @pytest.mark.parametrize("k", [*range(1, 61), None])
    def test_p60_searches_stay_dense(self, k):
        assert not _kernels.prefers_gathered(60, k)

    def test_p600_uncapped_search_gathers(self):
        assert _kernels.prefers_gathered(600, None)

    @pytest.mark.parametrize("k", range(9, 51))
    def test_p1000_capped_searches_gather(self, k):
        assert _kernels.prefers_gathered(1000, k)

    @pytest.mark.parametrize("cap, first", ((10, 224), (58, 992), (None, 464)))
    def test_threshold_edges(self, cap, first):
        # p >= 16 w + 64, with w = 25 for an uncapped search
        assert _kernels.prefers_gathered(first, cap)
        assert not _kernels.prefers_gathered(first - 1, cap)

    def test_search_fixes_the_choice_once(self, monkeypatch):
        # run_ga asks once per search, with its taxon count and its cap
        rng = np.random.default_rng(0)
        M0 = rng.normal(size=(20, 1000))
        y0 = rng.normal(size=20)
        asked = []

        def asking(p, cap):
            asked.append((p, cap))
            return _kernels.prefers_gathered(p, cap)

        monkeypatch.setattr(ga, "prefers_gathered", asking)
        for kw in ({"k_opt": 10}, {"k_opt": 60}, {}):
            run_ga(M0, y0, OptimizerConfig(max_generations=3, **kw))
        assert asked == [(1000, 10), (1000, 60), (1000, None)]
        assert [_kernels.prefers_gathered(*call) for call in asked] == [
            True, False, True]


def scale_problem(seed, p=1000, n=100, planted=10):
    rng = np.random.default_rng(seed)
    M0 = rng.normal(size=(n, p))
    M0 -= M0.mean(axis=0)
    y0 = M0[:, :planted].sum(axis=1) + 0.5 * rng.normal(size=n)
    return M0, y0 - y0.mean()


class TestGaSearch:
    def test_tiny_search_finds_planted_taxon(self):
        rng = np.random.default_rng(0)
        M0 = rng.normal(size=(30, 10))
        M0 -= M0.mean(0)
        y0 = M0[:, 2] + 0.01 * rng.normal(size=30)
        y0 -= y0.mean()
        res = run_ga(M0, y0, OptimizerConfig(k_opt=1,
                                             max_generations=60, seed=1))
        assert res.best.indices().tolist() == [2]

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_gathered_search_matches_dense_search(self, seed, monkeypatch):
        M0, y0 = scale_problem(seed)
        cfg = OptimizerConfig(k_opt=10, max_generations=80,
                              seed=seed)
        assert _kernels.prefers_gathered(1000, cfg.k_opt)
        gathered = run_ga(M0, y0, cfg)
        monkeypatch.setattr(ga, "prefers_gathered", lambda p, cap: False)
        dense = run_ga(M0, y0, cfg)
        np.testing.assert_array_equal(gathered.best.bits, dense.best.bits)
        assert len(gathered.history) == len(dense.history)
        assert gathered.best_eval.pearson_r == pytest.approx(
            dense.best_eval.pearson_r, abs=1e-12)


def per_column_loop(gram, mu1, mu2, max_iter, tol):
    """One coordinate-descent regression per target column, in scalars."""
    p = gram.shape[0]
    B = np.zeros((p, p))
    for j in range(p):
        b = np.zeros(p)
        for _ in range(max_iter):
            delta = 0.0
            for k in range(p):
                if k == j:
                    continue
                rho = gram[k, j] - sum(gram[k, l] * b[l]
                                       for l in range(p) if l != k)
                bk = max((rho - mu1) / (gram[k, k] + mu2), 0.0)
                delta = max(delta, abs(bk - b[k]))
                b[k] = bk
            if delta < tol:
                break
        B[:, j] = b
    return B


class TestCoordinateDescent:
    def test_matches_per_column_loop(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 12))
        X = (X - X.mean(0)) / X.std(0)
        gram = X.T @ X / X.shape[0]
        gram = (gram + gram.T) / 2.0
        B, _, _ = _kernels.enet_coordinate_descent(gram, 0.05, 0.01, 500, 1e-10)
        ref = per_column_loop(gram, 0.05, 0.01, 500, 1e-10)
        np.testing.assert_allclose(B, ref, atol=1e-8)

    def test_full_shrinkage_under_large_l1(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 6))
        gram = X.T @ X / 50.0
        B, _, _ = _kernels.enet_coordinate_descent(gram, 1e6, 0.0, 100, 1e-12)
        assert np.array_equal(B, np.zeros_like(B))

    def test_nonnegative_and_zero_diagonal(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 8))
        X = (X - X.mean(0)) / X.std(0)
        gram = (X.T @ X) / 60.0
        B, _, _ = _kernels.enet_coordinate_descent(gram, 0.01, 0.01, 500, 1e-10)
        assert (B >= 0).all()
        assert np.array_equal(np.diag(B), np.zeros(8))


def standardized_gram(seed, n=80, p=12, mix=0.0):
    """Correlation-scale Gram matrix; ``mix`` correlates the columns."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X += mix * X @ rng.normal(size=(p, p))
    X = (X - X.mean(0)) / X.std(0)
    gram = X.T @ X / n
    return (gram + gram.T) / 2.0


def kkt_residuals(gram, B, mu1, mu2):
    """Worst |stationarity| on the supports and worst violation off them."""
    grad = gram - mu1 - gram @ B - mu2 * B
    on = B > 0
    off = ~on
    np.fill_diagonal(off, False)
    return (np.abs(grad[on]).max(initial=0.0),
            grad[off].max(initial=-np.inf))


def two_step(gram, mu1, mu2, loose=1e-2, tol=1e-12):
    B0, _, _ = _kernels.enet_coordinate_descent(gram, mu1, mu2, 10000, loose)
    return _kernels.enet_kkt_finish(gram, B0, mu1, mu2, tol)[0]


class TestKktFinish:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**20), n=st.integers(5, 60),
           p=st.integers(2, 30), mix=st.floats(0.0, 1.0),
           mu1=st.floats(0.0, 0.5), mu2=st.floats(0.01, 1.0),
           start=st.sampled_from(["loose", "zero", "all"]))
    def test_kkt_conditions_hold(self, seed, n, p, mix, mu1, mu2, start):
        gram = standardized_gram(seed, n, p, mix)
        if start == "loose":
            B0, _, _ = _kernels.enet_coordinate_descent(gram, mu1, mu2, 10000,
                                                        1e-2)
        else:
            # every coefficient outside the solution must leave, or every
            # one of the solution must enter
            B0 = np.full((p, p), float(start == "all"))
            np.fill_diagonal(B0, 0.0)
        B, rounds = _kernels.enet_kkt_finish(gram, B0, mu1, mu2, 1e-12)
        assert (B >= 0).all()
        assert not np.diag(B).any()
        assert (rounds >= 1).all()
        on, off = kkt_residuals(gram, B, mu1, mu2)
        assert on <= 1e-12
        assert off <= 1e-12

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_result_does_not_depend_on_the_start(self, seed):
        # the loose pass at three tolerances, a single sweep, and no pass
        gram = standardized_gram(seed, n=100, p=60, mix=0.3)
        starts = [_kernels.enet_coordinate_descent(gram, 0.1, 0.01, sweeps,
                                                   loose)[0]
                  for sweeps, loose in ((1000, 1e-2), (1000, 1e-6),
                                        (1000, 1e-8), (1, 1e-2))]
        starts.append(np.zeros_like(gram))
        finished = []
        for B0 in starts:
            B, _ = _kernels.enet_kkt_finish(gram, B0, 0.1, 0.01, 1e-8)
            finished.append(B)
        assert (finished[0] > 0).sum() > 60
        for B in finished[1:]:
            np.testing.assert_array_equal(bits(B), bits(finished[0]))

    def test_matches_per_column_loop(self):
        gram = standardized_gram(3)
        B = two_step(gram, 0.05, 0.01)
        ref = per_column_loop(gram, 0.05, 0.01, 5000, 1e-12)
        np.testing.assert_allclose(B, ref, rtol=0, atol=1e-9)

    def test_full_shrinkage_under_large_l1(self):
        gram = standardized_gram(5, p=6)
        B0 = np.ones((6, 6)) - np.eye(6)
        B, _ = _kernels.enet_kkt_finish(gram, B0, 1e6, 0.0, 1e-12)
        assert np.array_equal(B, np.zeros_like(B))

    def test_singular_support_names_the_column(self):
        # predictors 0 and 1 are the same column: with mu2 = 0 a support
        # holding both has no unique solution
        gram = standardized_gram(6, p=4)
        gram[1], gram[:, 1] = gram[0], gram[:, 0]
        B0 = np.zeros((4, 4))
        B0[[0, 1], 2] = 0.2
        with pytest.raises(_kernels.FinishError) as exc:
            _kernels.enet_kkt_finish(gram, B0, 0.01, 0.0, 1e-12)
        assert (exc.value.column, exc.value.reason) == (2, "singular")
        # a ridge term makes the same system solvable
        B, _ = _kernels.enet_kkt_finish(gram, B0, 0.01, 0.01, 1e-12)
        assert B[0, 2] > 0
        assert B[1, 2] == pytest.approx(B[0, 2], rel=1e-12)

    def test_round_cap_names_the_column(self, monkeypatch):
        # one solve allowed per column instead of 2p + 1
        finish_column = _kernels._finish_column
        monkeypatch.setattr(_kernels, "_finish_column",
                            lambda *args: finish_column(*args[:-1], 1))
        gram = standardized_gram(7, p=5, mix=1.0)
        with pytest.raises(_kernels.FinishError) as exc:
            _kernels.enet_kkt_finish(gram, np.zeros((5, 5)), 0.0, 0.01, 1e-12)
        assert (exc.value.column, exc.value.reason) == (0, "unsettled")


def _reference_coordinate_descent(gram, mu1, mu2, max_iter, tol):
    """The row-by-row sweep the blocked kernel replaced, kept as its oracle."""
    p = gram.shape[0]
    B = np.zeros((p, p))
    last_delta = np.zeros(p)
    for it in range(max_iter):
        delta = np.zeros(p)
        for k in range(p):
            # partial residual correlation of predictor k with every target
            rho = gram[k, :] - gram[k, :] @ B + gram[k, k] * B[k, :]
            bk = (rho - mu1) / (gram[k, k] + mu2)
            np.clip(bk, 0.0, None, out=bk)
            bk[k] = 0.0
            delta = np.maximum(delta, np.abs(bk - B[k, :]))
            B[k, :] = bk
        last_delta = delta
        if delta.max() < tol:
            return B, last_delta, np.full(p, it + 1, np.int64)
    return B, last_delta, np.full(p, max_iter, np.int64)


def finish_or_error(gram, B0, mu1, mu2):
    """The finished B's bits, or the (column, reason) of its FinishError."""
    try:
        return bits(_kernels.enet_kkt_finish(gram, B0, mu1, mu2, 1e-8)[0])
    except _kernels.FinishError as exc:
        return exc.column, exc.reason


def assert_same_start_and_finish(gram, mu1, mu2, max_iter=500, tol=1e-2):
    """Blocked and row-by-row passes agree; the finish cannot tell them apart."""
    B, delta, sweeps = _kernels.enet_coordinate_descent(gram, mu1, mu2,
                                                        max_iter, tol)
    B_ref, delta_ref, sweeps_ref = _reference_coordinate_descent(
        gram, mu1, mu2, max_iter, tol)
    np.testing.assert_array_equal(sweeps, sweeps_ref)
    np.testing.assert_array_equal(B > 0, B_ref > 0)
    assert np.abs(B - B_ref).max() <= 1e-12
    np.testing.assert_allclose(delta, delta_ref, rtol=0, atol=1e-12)
    finished = finish_or_error(gram, B, mu1, mu2)
    finished_ref = finish_or_error(gram, B_ref, mu1, mu2)
    if isinstance(finished_ref, tuple):
        assert finished == finished_ref
    else:
        assert not isinstance(finished, tuple), finished
        np.testing.assert_array_equal(finished, finished_ref)
    return B


class TestBlockedSweep:
    """The blocked sweep against the row-by-row loop it replaced."""

    @pytest.mark.parametrize("mu2", (0.0, 0.01))
    @pytest.mark.parametrize("p", (2, _kernels.CD_BLOCK - 1, _kernels.CD_BLOCK,
                                   _kernels.CD_BLOCK + 1,
                                   2 * _kernels.CD_BLOCK + 1))
    def test_matches_row_by_row_sweep(self, p, mu2):
        gram = standardized_gram(p, n=2 * p + 20, p=p, mix=0.3)
        B = assert_same_start_and_finish(gram, 0.05, mu2)
        assert (B > 0).any()

    @pytest.mark.parametrize("tol", (1e-2, 1e-8))
    def test_sweep_counts_at_two_tolerances(self, tol):
        p = 2 * _kernels.CD_BLOCK + 1
        gram = standardized_gram(11, n=200, p=p, mix=0.5)
        assert_same_start_and_finish(gram, 0.1, 0.01, tol=tol)

    def test_sweep_cap(self):
        p = _kernels.CD_BLOCK + 1
        gram = standardized_gram(12, n=200, p=p, mix=1.0)
        B, _, sweeps = _kernels.enet_coordinate_descent(gram, 0.0, 0.01, 2,
                                                        1e-12)
        B_ref, _, _ = _reference_coordinate_descent(gram, 0.0, 0.01, 2, 1e-12)
        assert (sweeps == 2).all()
        assert np.abs(B - B_ref).max() <= 1e-12

    @pytest.mark.parametrize("p", (2, _kernels.CD_BLOCK + 1))
    def test_full_shrinkage(self, p):
        gram = standardized_gram(13, n=100, p=p)
        B, delta, sweeps = _kernels.enet_coordinate_descent(gram, 1e6, 0.0,
                                                            100, 1e-12)
        assert not B.any() and not delta.any()
        assert (sweeps == 1).all()
        assert_same_start_and_finish(gram, 1e6, 0.0)

    @pytest.mark.parametrize("twins", ((3, 5), (_kernels.CD_BLOCK - 1,
                                                _kernels.CD_BLOCK)),
                             ids=("inside-a-block", "across-a-boundary"))
    def test_twin_taxa(self, twins):
        # with mu2 > 0 the finish puts both twins in every support that
        # holds one of them, whichever rounding-level start it gets
        p = 2 * _kernels.CD_BLOCK + 1
        rng = np.random.default_rng(14)
        X = rng.normal(size=(200, p))
        X += 0.5 * X @ rng.normal(size=(p, p)) / np.sqrt(p)
        a, b = twins
        X[:, b] = 2.0 * X[:, a]
        X = (X - X.mean(0)) / X.std(0)
        gram = X.T @ X / X.shape[0]
        gram = (gram + gram.T) / 2.0
        B = assert_same_start_and_finish(gram, 0.01, 0.01)
        finished, _ = _kernels.enet_kkt_finish(gram, B, 0.01, 0.01, 1e-8)
        others = np.delete(finished, twins, axis=1)
        np.testing.assert_array_equal(others[a] > 0, others[b] > 0)
        assert (others[a] > 0).any()

    def test_inferred_network_is_bitwise_the_reference_starts(self,
                                                              monkeypatch):
        from coresponse import network
        from coresponse.synth import SynthSpec, generate

        abundance = generate(SynthSpec(n_samples=200, n_taxa=200, n_blocks=8,
                                       planted_group=tuple(range(10)),
                                       seed=1)).abundance
        blocked = network.infer_network(abundance)
        monkeypatch.setattr(network, "enet_coordinate_descent",
                            _reference_coordinate_descent)
        reference = network.infer_network(abundance)
        assert (blocked.adjacency > 0).sum() > 200
        np.testing.assert_array_equal(bits(blocked.adjacency),
                                      bits(reference.adjacency))
