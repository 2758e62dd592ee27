"""AIC scoring, group-size sweeps and l1-penalty tuning."""

import math

import numpy as np
import pytest

from coresponse.errors import ValidationError
from coresponse.ga import OptimizerConfig
from coresponse.model_select import (DEFAULT_MU_GRID, RSS_FLOOR, SWEEP_COLUMNS,
                                     ModelSelectionResult, aic_for_group,
                                     mu_sweep, sweep_k, write_sweep)


def aic_oracle(bits, M, y):
    """Independent AIC via lstsq on the intercept + group-effect design."""
    s = M[:, np.flatnonzero(bits)].sum(axis=1)
    design = np.column_stack([np.ones_like(s), s])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rss = float(((y - design @ coef) ** 2).sum())
    n = len(y)
    lnl = -(n / 2.0) * (math.log(2.0 * math.pi * rss / n) + 1.0)
    return 2.0 * int(bits.sum()) - 2.0 * lnl


class TestAic:
    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(0)
        M = rng.uniform(0, 4, size=(50, 8))
        y = M[:, 1] + rng.normal(0, 0.5, size=50)
        for _ in range(20):
            bits = (rng.random(8) < 0.4).astype(np.uint8)
            if not bits.any():
                continue
            np.testing.assert_allclose(aic_for_group(bits, M, y),
                                       aic_oracle(bits, M, y), rtol=1e-10)

    def test_extra_redundant_member_costs_two(self):
        # duplicating a column doubles the effect without changing the fit,
        # so only the parameter-count term moves: exactly +2 per member
        rng = np.random.default_rng(1)
        M = rng.uniform(0, 4, size=(40, 5))
        M[:, 1] = M[:, 0]
        y = M[:, 0] + rng.normal(0, 0.3, size=40)
        one = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
        two = np.array([1, 1, 0, 0, 0], dtype=np.uint8)
        diff = aic_for_group(two, M, y) - aic_for_group(one, M, y)
        np.testing.assert_allclose(diff, 2.0, atol=1e-9)

    def test_perfect_fit_hits_rss_floor(self):
        n = 25
        M = np.linspace(1, 3, n)[:, None] * np.ones((1, 3))
        y = 2.0 * M[:, 0] + 1.0
        bits = np.array([1, 0, 0], dtype=np.uint8)
        aic = aic_for_group(bits, M, y)
        assert math.isfinite(aic)
        y0 = y - y.mean()
        rss = RSS_FLOOR * float(y0 @ y0)
        lnl = -(n / 2.0) * (math.log(2.0 * math.pi * rss / n) + 1.0)
        np.testing.assert_allclose(aic, 2.0 - 2.0 * lnl, rtol=1e-12)

    def test_better_fit_scores_lower_at_fixed_size(self):
        rng = np.random.default_rng(4)
        M = rng.uniform(0, 4, size=(60, 6))
        y = M[:, 0] + rng.normal(0, 0.2, size=60)
        good = np.array([1, 0, 0, 0, 0, 0], dtype=np.uint8)
        bad = np.array([0, 0, 0, 1, 0, 0], dtype=np.uint8)
        assert aic_for_group(good, M, y) < aic_for_group(bad, M, y)

    def test_empty_group_rejected(self):
        M = np.ones((10, 3)) + np.arange(10)[:, None]
        y = np.linspace(0, 1, 10)
        with pytest.raises(ValidationError, match="empty"):
            aic_for_group(np.zeros(3, dtype=np.uint8), M, y)

    def test_constant_effect_rejected(self):
        M = np.ones((10, 3))
        M[:, 2] = np.arange(10)
        y = np.linspace(0, 1, 10)
        with pytest.raises(ValidationError, match="zero variance"):
            aic_for_group(np.array([1, 0, 0], dtype=np.uint8), M, y)


class TestResultValidation:
    def test_chosen_k_must_minimize(self):
        per_k = ((2, (5.0,), 5.0), (3, (4.0,), 4.0), (4, (4.5,), 4.5))
        result = ModelSelectionResult(per_k=per_k)
        assert result.chosen_k == 3
        assert result.chosen_mu is None

    def test_k_ties_prefer_smaller(self):
        per_k = ((3, (4.0,), 4.0), (2, (4.0,), 4.0), (4, (4.0,), 4.0))
        assert ModelSelectionResult(per_k=per_k).chosen_k == 2
        with pytest.raises(TypeError):
            ModelSelectionResult(per_k=per_k, chosen_k=3)

    def test_mu_ties_prefer_larger(self):
        per_mu = ((0.1, 0.5), (0.2, 0.5), (0.05, 0.5), (0.3, 0.4))
        result = ModelSelectionResult(per_mu=per_mu)
        assert result.chosen_mu == 0.2
        assert result.chosen_k is None
        with pytest.raises(TypeError):
            ModelSelectionResult(per_mu=per_mu, chosen_mu=0.1)


def quick_cfg(**kw):
    base = dict(mode="size_cap", k_opt=2, population_size=60,
                max_generations=40, stagnation_limit=15, seed=0)
    base.update(kw)
    return OptimizerConfig(**base)


class TestSweepK:
    def test_recovers_planted_size(self):
        rng = np.random.default_rng(10)
        M = rng.uniform(0, 3, size=(50, 10))
        y = M[:, 2] + M[:, 5] + rng.normal(0, 0.1, size=50)
        result = sweep_k(M, y, k_range=(1, 4), repeats=2, cfg=quick_cfg())
        assert result.chosen_k == 2
        assert len(result.runs) == 4 * 2
        assert [row[0] for row in result.per_k] == [1, 2, 3, 4]

    def test_thread_count_invariant(self):
        rng = np.random.default_rng(11)
        M = rng.uniform(0, 3, size=(40, 8))
        y = M[:, 1] + rng.normal(0, 0.2, size=40)
        serial = sweep_k(M, y, k_range=(1, 3), repeats=2, cfg=quick_cfg())
        threaded = sweep_k(M, y, k_range=(1, 3), repeats=2, cfg=quick_cfg(),
                           threads=4)
        assert serial.per_k == threaded.per_k
        for a, b in zip(serial.runs, threaded.runs):
            assert a.aic == b.aic
            np.testing.assert_array_equal(a.bits, b.bits)

    def test_reproducible(self):
        rng = np.random.default_rng(12)
        M = rng.uniform(0, 3, size=(40, 8))
        y = M[:, 1] + rng.normal(0, 0.2, size=40)
        a = sweep_k(M, y, k_range=(2, 3), repeats=2, cfg=quick_cfg(seed=9))
        b = sweep_k(M, y, k_range=(2, 3), repeats=2, cfg=quick_cfg(seed=9))
        assert a.per_k == b.per_k and a.chosen_k == b.chosen_k

    def test_singleton_range(self):
        rng = np.random.default_rng(13)
        M = rng.uniform(0, 3, size=(30, 6))
        y = M[:, 4] + rng.normal(0, 0.2, size=30)
        result = sweep_k(M, y, k_range=(1, 1), repeats=3, cfg=quick_cfg())
        assert result.chosen_k == 1
        assert len(result.per_k) == 1 and len(result.per_k[0][1]) == 3

    def test_bad_range_rejected(self):
        M = np.random.default_rng(0).uniform(0, 1, size=(20, 4))
        y = M[:, 0]
        with pytest.raises(ValidationError, match="k_range"):
            sweep_k(M, y, k_range=(0, 3), repeats=1, cfg=quick_cfg())
        with pytest.raises(ValidationError, match="k_range"):
            sweep_k(M, y, k_range=(4, 2), repeats=1, cfg=quick_cfg())

    def test_export(self, tmp_path):
        rng = np.random.default_rng(14)
        M = rng.uniform(0, 3, size=(30, 5))
        y = M[:, 0] + rng.normal(0, 0.3, size=30)
        result = sweep_k(M, y, k_range=(1, 2), repeats=2, cfg=quick_cfg())
        path = tmp_path / "sweep.csv"
        write_sweep(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 4
        bits_col = [line.split(",")[4] for line in lines[1:]]
        assert all(len(b) == 5 and set(b) <= {"0", "1"} for b in bits_col)


class TestTuneMu:
    def test_default_grid_shape(self):
        assert DEFAULT_MU_GRID[0] == 1.0 / 30
        assert DEFAULT_MU_GRID[-1] == 1.0 / 100
        assert len(DEFAULT_MU_GRID) == 8
        assert all(a > b for a, b in zip(DEFAULT_MU_GRID, DEFAULT_MU_GRID[1:]))

    def test_chooses_from_grid(self):
        rng = np.random.default_rng(20)
        M = rng.uniform(0, 3, size=(60, 8))
        y = M[:, 3] + rng.normal(0, 0.1, size=60)
        grid = (1.0 / 30, 1.0 / 60, 1.0 / 100)
        cfg = quick_cfg(mode="l1", k_opt=None, seed=5)
        mu = mu_sweep(M, y, grid, cfg).chosen_mu
        assert mu in grid

    def test_scores_every_mu(self):
        rng = np.random.default_rng(21)
        M = rng.uniform(0, 3, size=(60, 8))
        y = M[:, 3] + rng.normal(0, 0.1, size=60)
        grid = (1.0 / 30, 1.0 / 100)
        cfg = quick_cfg(mode="l1", k_opt=None, seed=5)
        result = mu_sweep(M, y, grid, cfg)
        assert [row[0] for row in result.per_mu] == list(grid)
        assert all(math.isfinite(row[1]) for row in result.per_mu)
        assert result.chosen_mu == max(result.per_mu,
                                       key=lambda row: (row[1], row[0]))[0]

    def test_reproducible_and_thread_invariant(self):
        rng = np.random.default_rng(22)
        M = rng.uniform(0, 3, size=(60, 8))
        y = M[:, 3] + rng.normal(0, 0.1, size=60)
        grid = (1.0 / 30, 1.0 / 100)
        cfg = quick_cfg(mode="l1", k_opt=None, seed=5)
        a = mu_sweep(M, y, grid, cfg)
        b = mu_sweep(M, y, grid, cfg, threads=3)
        assert a.per_mu == b.per_mu and a.chosen_mu == b.chosen_mu

    def test_empty_grid_rejected(self):
        M = np.random.default_rng(0).uniform(0, 1, size=(20, 4))
        with pytest.raises(ValidationError, match="grid"):
            mu_sweep(M, M[:, 0], grid=())

    def test_inner_fraction_is_not_an_option(self):
        # the inner split is always half the training rows
        M = np.random.default_rng(0).uniform(0, 1, size=(20, 4))
        with pytest.raises(TypeError, match="inner_fraction"):
            mu_sweep(M, M[:, 0], (0.1,), inner_fraction=0.7)

    def test_negative_mu_rejected(self):
        M = np.random.default_rng(0).uniform(0, 1, size=(20, 4))
        with pytest.raises(ValidationError):
            mu_sweep(M, M[:, 0], grid=(0.1, -0.2))

    def test_strong_penalty_yields_singleton(self):
        # with a penalty far above any attainable correlation gain the
        # search settles on the single dominant taxon
        rng = np.random.default_rng(23)
        M = rng.uniform(0, 3, size=(50, 8))
        y = M[:, 6] + rng.normal(0, 0.05, size=50)
        y0 = (y - y.mean())
        mu = 2.0 * float(np.sqrt(y0 @ y0))
        from coresponse.ga import run_ga
        cfg = quick_cfg(mode="l1", k_opt=None, mu=mu, seed=3,
                        max_generations=80, stagnation_limit=30)
        result = run_ga(M - M.mean(axis=0), y0, cfg)
        assert result.best.size() == 1
        np.testing.assert_array_equal(result.best.indices(), [6])


class TestSearchDataChecks:
    """Both sweeps reject data a search cannot use, before searching."""

    def data(self):
        rng = np.random.default_rng(30)
        M = rng.uniform(0, 3, size=(40, 6))
        return M, M[:, 2] + rng.normal(0, 0.2, size=40)

    def with_nan(self, a, at):
        a = a.copy()
        a[at] = np.nan
        return a

    def test_mu_sweep_rejects_misaligned_rows(self):
        M, y = self.data()
        with pytest.raises(ValidationError, match="sample counts"):
            mu_sweep(M, y[:-1], (0.1, 0.05), quick_cfg(mode="l1", k_opt=None),
                     n_strata=4)

    def test_sweep_k_rejects_nan_in_M(self):
        M, y = self.data()
        with pytest.raises(ValidationError, match="non-finite"):
            sweep_k(self.with_nan(M, (3, 1)), y, (2, 2), 1, quick_cfg())

    def test_mu_sweep_rejects_nan_in_y(self):
        M, y = self.data()
        with pytest.raises(ValidationError, match="non-finite"):
            mu_sweep(M, self.with_nan(y, 5), (0.1, 0.05),
                     quick_cfg(mode="l1", k_opt=None), n_strata=4)

    def test_mu_sweep_rejects_2d_y_before_splitting(self):
        M, y = self.data()
        with pytest.raises(ValidationError, match="sample counts"):
            mu_sweep(M, y[:, None], (0.1,), quick_cfg(mode="l1", k_opt=None),
                     n_strata=4)
