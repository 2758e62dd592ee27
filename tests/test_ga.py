"""Genetic search: fitness arithmetic, penalties, determinism, optimality."""

import itertools
import math
import pickle
import sys
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresponse import ga
from coresponse._kernels import group_terms
from coresponse.errors import ValidationError
from coresponse.evaluation import evaluate_method
from coresponse.ga import (ALPHA, DEGENERATE_QUAD, HISTORY_COLUMNS,
                           FitnessEvaluation, GAResult, GroupChromosome,
                           Objective, OptimizerConfig, _draw,
                           _initial_population, _lexicographic_best,
                           check_search_data, group_r, run_ga, run_many)
from coresponse.importance import discover_importance
from coresponse.model_select import mu_sweep, sweep_k
from coresponse.utils import child_int, exactly_symmetric, generator, pearson


def centered_problem(seed, n=40, p=10):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0, 4, size=(n, p))
    y = rng.normal(size=n)
    M0 = M - M.mean(axis=0)
    y0 = y - y.mean()
    return M0, y0


def score_one(bits, M0, y0, cfg):
    """Score one chromosome as the search scores a population of one."""
    objective = Objective(M0, y0, cfg.size_cap)
    raw, pen, r, size = objective.evaluate(np.asarray(bits)[None], cfg)
    return FitnessEvaluation(float(raw[0]), float(r[0]), float(pen[0]),
                             int(size[0]))


def raw_oracle(bits, M0, y0):
    """Definitional surrogate: (g . y0) / ||g|| for the group effect g."""
    g = M0 @ np.asarray(bits, dtype=np.float64)
    return float(g @ y0 / np.sqrt(g @ g))


class TestFitness:
    def test_raw_matches_definitional_oracle(self):
        M0, y0 = centered_problem(0)
        rng = np.random.default_rng(1)
        cfg = OptimizerConfig(mode="l1", mu=0.0)
        for _ in range(50):
            bits = (rng.random(10) < 0.4).astype(np.uint8)
            if not bits.any():
                continue
            ev = score_one(bits, M0, y0, cfg)
            np.testing.assert_allclose(ev.raw_objective,
                                       raw_oracle(bits, M0, y0), rtol=1e-12)

    def test_pearson_r_matches_corrcoef(self):
        M0, y0 = centered_problem(2)
        bits = np.zeros(10, dtype=np.uint8)
        bits[[1, 4, 7]] = 1
        ev = score_one(bits, M0, y0, OptimizerConfig(mode="l1"))
        g = M0 @ bits.astype(np.float64)
        np.testing.assert_allclose(ev.pearson_r, np.corrcoef(g, y0)[0, 1],
                                   rtol=1e-12)

    def test_size_cap_penalty(self, monkeypatch):
        monkeypatch.setattr(ga, "ALPHA", 100.0)
        M0, y0 = centered_problem(3)
        bits = np.ones(10, dtype=np.uint8)
        cfg = OptimizerConfig(mode="size_cap", k_opt=4)
        ev = score_one(bits, M0, y0, cfg)
        expected = raw_oracle(bits, M0, y0) - 100.0 * (10 - 4)
        np.testing.assert_allclose(ev.penalized_fitness, expected, rtol=1e-12)

    def test_size_cap_inactive_within_cap(self):
        M0, y0 = centered_problem(4)
        bits = np.zeros(10, dtype=np.uint8)
        bits[:3] = 1
        cfg = OptimizerConfig(mode="size_cap", k_opt=4)
        ev = score_one(bits, M0, y0, cfg)
        assert ev.penalized_fitness == ev.raw_objective

    def test_l1_penalty(self):
        M0, y0 = centered_problem(5)
        bits = np.zeros(10, dtype=np.uint8)
        bits[[0, 3, 6, 9]] = 1
        ev = score_one(bits, M0, y0, OptimizerConfig(mode="l1", mu=0.2))
        expected = raw_oracle(bits, M0, y0) - 0.2 * 4
        np.testing.assert_allclose(ev.penalized_fitness, expected, rtol=1e-12)

    def test_empty_group_sentinel(self):
        M0, y0 = centered_problem(6)
        ev = score_one(np.zeros(10, dtype=np.uint8), M0, y0,
                              OptimizerConfig(mode="l1"))
        assert ev.raw_objective == 0.0
        assert ev.pearson_r == 0.0
        assert ev.penalized_fitness == -ALPHA
        assert ev.group_size == 0

    def test_constant_effect_sentinel(self):
        # a group whose effect has zero variance is degenerate, not an error
        M0, y0 = centered_problem(7)
        M0[:, 2] = 0.0  # a centered constant column
        bits = np.zeros(10, dtype=np.uint8)
        bits[2] = 1
        ev = score_one(bits, M0, y0, OptimizerConfig(mode="l1"))
        assert ev.penalized_fitness == -ALPHA

    def test_length_mismatch(self):
        M0, y0 = centered_problem(8)
        with pytest.raises(ValidationError, match="length"):
            score_one(np.ones(4, dtype=np.uint8), M0, y0,
                      OptimizerConfig(mode="l1"))

    def test_batch_matches_single(self):
        M0, y0 = centered_problem(9)
        rng = np.random.default_rng(10)
        pop = (rng.random((30, 10)) < 0.4).astype(np.uint8)
        cfg = OptimizerConfig(mode="size_cap", k_opt=3)
        objective = Objective(M0, y0)
        raw, pen, r, size = objective.evaluate(pop, cfg)
        for i in range(30):
            ev = score_one(pop[i], M0, y0, cfg)
            np.testing.assert_allclose(
                [raw[i], pen[i], r[i], float(size[i])],
                [ev.raw_objective, ev.penalized_fitness, ev.pearson_r,
                 float(ev.group_size)], rtol=1e-12)


class TestChromosome:
    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            GroupChromosome(np.array([0, 2, 1]))

    def test_indices_and_size(self):
        c = GroupChromosome(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        np.testing.assert_array_equal(c.indices(), [0, 2, 3])
        assert c.size() == 3


class TestConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="mode"):
            OptimizerConfig(mode="annealing")

    def test_size_cap_requires_k(self):
        with pytest.raises(ValidationError, match="k_opt"):
            OptimizerConfig(mode="size_cap")

    def test_negative_mu(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(mode="l1", mu=-0.1)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_mu(self, mu):
        with pytest.raises(ValidationError, match="mu"):
            OptimizerConfig(mode="l1", mu=mu)

    def test_alpha_is_not_an_option(self):
        with pytest.raises(TypeError, match="alpha"):
            OptimizerConfig(mode="size_cap", k_opt=2, alpha=100.0)

    def test_positional_arguments_rejected(self):
        # mode, k_opt, alpha, mu was the old order: 0.5 must not become mu
        with pytest.raises(TypeError):
            OptimizerConfig("size_cap", 2, 0.5)

    def test_tiny_population(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(mode="l1", population_size=1)

    def test_elite_fraction_below_one(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(mode="l1", elite_fraction=1.0)


def planted_problem(seed, n=60, p=12, members=(2, 5, 9)):
    """Data where the sum of a few columns correlates strongly with y."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(0, 3, size=(n, p))
    y = M[:, list(members)].sum(axis=1) + rng.normal(0, 0.2, size=n)
    M0 = M - M.mean(axis=0)
    y0 = y - y.mean()
    return M0, y0


def lexicographic_best_loop(population, candidates):
    """The tie rule as a loop: the first candidate with the smallest bytes."""
    best = candidates[0]
    best_key = population[best].tobytes()
    for idx in candidates[1:]:
        key = population[idx].tobytes()
        if key < best_key:
            best, best_key = idx, key
    return int(best)


@st.composite
def tied_populations(draw):
    """A 0/1 population of few distinct rows, each copied and bit-flipped,
    and a candidate subset of its indices in arbitrary order."""
    p = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = rng.integers(0, 2, size=(draw(st.integers(1, 4)), p),
                         dtype=np.uint8)
    m = draw(st.integers(1, 60))
    pop = bases[rng.integers(0, bases.shape[0], size=m)]
    # near duplicates: flip one bit in some copies
    flip = rng.random(m) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    pop[flip, rng.integers(0, p, size=int(flip.sum()))] ^= 1
    size = draw(st.integers(1, m))
    candidates = rng.permutation(m)[:size]
    if draw(st.booleans()):
        candidates = np.sort(candidates)
    return pop, candidates


class TestLexicographicBest:
    @settings(max_examples=300, deadline=None)
    @given(tied_populations())
    def test_matches_loop_oracle(self, case):
        pop, candidates = case
        assert (_lexicographic_best(pop, candidates)
                == lexicographic_best_loop(pop, candidates))

    def test_identical_rows_keep_first_candidate(self):
        pop = np.array([[0, 1, 1], [0, 1, 0], [0, 1, 0]], dtype=np.uint8)
        assert _lexicographic_best(pop, np.array([2, 0, 1])) == 2
        assert _lexicographic_best(pop, np.array([1, 2])) == 1
        assert _lexicographic_best(pop, np.array([0])) == 0


class TestRunGA:
    def test_recovers_planted_group(self):
        M0, y0 = planted_problem(0)
        cfg = OptimizerConfig(mode="size_cap", k_opt=3, seed=0,
                              max_generations=120, stagnation_limit=40)
        result = run_ga(M0, y0, cfg)
        np.testing.assert_array_equal(result.best.indices(), [2, 5, 9])
        assert result.best_eval.pearson_r > 0.9

    def test_deterministic(self):
        M0, y0 = planted_problem(1)
        cfg = OptimizerConfig(mode="l1", mu=0.05, seed=7, max_generations=60)
        a = run_ga(M0, y0, cfg)
        b = run_ga(M0, y0, cfg)
        np.testing.assert_array_equal(a.best.bits, b.best.bits)
        np.testing.assert_array_equal(a.history, b.history)

    def test_seed_changes_trajectory(self):
        M0, y0 = planted_problem(2)
        runs = [
            run_ga(M0, y0, OptimizerConfig(mode="l1", mu=0.05, seed=s,
                                           max_generations=30))
            for s in (0, 1)
        ]
        assert not np.array_equal(runs[0].history, runs[1].history)

    def test_scaling_y_leaves_trajectory_unchanged(self):
        # selection is rank-based, so a positive rescale of the functional
        # variable must produce the identical search path
        M0, y0 = planted_problem(3)
        cfg = OptimizerConfig(mode="size_cap", k_opt=3, seed=11,
                              max_generations=80)
        a = run_ga(M0, y0, cfg, record_populations=True)
        b = run_ga(M0, 10.0 * y0, cfg, record_populations=True)
        np.testing.assert_array_equal(a.best.bits, b.best.bits)
        for pa, pb in zip(a.populations, b.populations):
            np.testing.assert_array_equal(pa, pb)
        # correlation-scale history columns are scale-invariant too
        np.testing.assert_allclose(a.history[:, 3:], b.history[:, 3:],
                                   rtol=1e-9)

    def test_brute_force_optimum_size_cap(self):
        M0, y0 = centered_problem(20, n=30, p=7)
        cfg = OptimizerConfig(mode="size_cap", k_opt=2, seed=3,
                              max_generations=150, stagnation_limit=60)
        result = run_ga(M0, y0, cfg)
        best_pen, best_bits = -np.inf, None
        for r in (1, 2):
            for combo in itertools.combinations(range(7), r):
                bits = np.zeros(7, dtype=np.uint8)
                bits[list(combo)] = 1
                pen = raw_oracle(bits, M0, y0)
                if pen > best_pen:
                    best_pen, best_bits = pen, bits
        np.testing.assert_array_equal(result.best.bits, best_bits)
        np.testing.assert_allclose(result.best_eval.penalized_fitness,
                                   best_pen, rtol=1e-12)

    def test_brute_force_optimum_l1(self):
        M0, y0 = centered_problem(21, n=30, p=7)
        mu = 0.05
        cfg = OptimizerConfig(mode="l1", mu=mu, seed=4,
                              max_generations=150, stagnation_limit=60)
        result = run_ga(M0, y0, cfg)
        best_pen = -np.inf
        for r in range(1, 8):
            for combo in itertools.combinations(range(7), r):
                bits = np.zeros(7, dtype=np.uint8)
                bits[list(combo)] = 1
                best_pen = max(best_pen, raw_oracle(bits, M0, y0) - mu * r)
        np.testing.assert_allclose(result.best_eval.penalized_fitness,
                                   best_pen, rtol=1e-12)

    def test_elitism_keeps_max_fitness_monotone(self):
        for seed in range(3):
            M0, y0 = planted_problem(30 + seed)
            cfg = OptimizerConfig(mode="size_cap", k_opt=3, seed=seed,
                                  max_generations=40)
            history = run_ga(M0, y0, cfg).history
            max_fit = history[:, 1]
            assert (np.diff(max_fit) >= 0).all()

    def test_size_cap_respected(self):
        M0, y0 = planted_problem(40)
        cfg = OptimizerConfig(mode="size_cap", k_opt=2, seed=0,
                              max_generations=60)
        result = run_ga(M0, y0, cfg)
        assert result.best.size() <= 2

    def test_duplicate_columns_tie_break(self):
        # two identical columns give exactly tied singletons; the archive
        # keeps the lexicographically smallest bit vector, which has the 1
        # at the LATER position (0 sorts before 1)
        rng = np.random.default_rng(50)
        M = rng.uniform(0, 3, size=(40, 6))
        M[:, 1] = M[:, 0]
        y = M[:, 0] + rng.normal(0, 0.05, size=40)
        M0 = M - M.mean(axis=0)
        M0[:, 1] = M0[:, 0]
        y0 = y - y.mean()
        cfg = OptimizerConfig(mode="size_cap", k_opt=1, seed=0,
                              max_generations=60)
        result = run_ga(M0, y0, cfg)
        np.testing.assert_array_equal(result.best.indices(), [1])

    def test_stagnation_stops_early(self):
        M0, y0 = planted_problem(60)
        cfg = OptimizerConfig(mode="size_cap", k_opt=3, seed=0,
                              max_generations=500, stagnation_limit=5)
        history = run_ga(M0, y0, cfg).history
        assert history.shape[0] < 501

    def test_history_layout(self):
        M0, y0 = planted_problem(61)
        cfg = OptimizerConfig(mode="l1", mu=0.05, seed=0, max_generations=20,
                              stagnation_limit=20)
        result = run_ga(M0, y0, cfg, record_populations=True)
        history = result.history
        assert history.shape[1] == len(HISTORY_COLUMNS)
        np.testing.assert_array_equal(history[:, 0],
                                      np.arange(history.shape[0]))
        assert len(result.populations) == history.shape[0]
        # penalized max never exceeds raw-correlation max times ||y0||
        assert (history[:, 1] <= history[:, 3] * np.sqrt(y0 @ y0) + 1e-9).all()

    def test_single_taxon_rejected(self):
        M0 = np.zeros((10, 1))
        y0 = np.linspace(-1, 1, 10)
        with pytest.raises(ValidationError, match="at least 2"):
            run_ga(M0, y0, OptimizerConfig(mode="l1"))


def raw_problem(seed, n=50, p=10, members=(1, 4, 6)):
    """Uncentered data with a planted group, as the orchestrators see it."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(0, 3, size=(n, p))
    y = M[:, list(members)].sum(axis=1) + rng.normal(0, 0.3, size=n)
    return M, y


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.best.bits, b.best.bits)
    assert a.best_eval == b.best_eval
    np.testing.assert_array_equal(a.history, b.history)


def _reference_evaluate(objective, population, cfg):
    """Objective.evaluate as masked gathers and scatters, sizes by a uint8 sum."""
    pop = np.ascontiguousarray(population, dtype=np.uint8)
    num, quad, _ = group_terms(pop, objective.gram, objective.cvec,
                               objective.gathered)
    size = pop.sum(axis=1).astype(np.int64)
    ok = (size > 0) & (quad > DEGENERATE_QUAD)
    raw = np.zeros(len(num))
    raw[ok] = num[ok] / np.sqrt(quad[ok])
    if cfg.mode == "size_cap":
        excess = np.maximum(size - cfg.k_opt, 0).astype(np.float64)
        pen = raw - ALPHA * excess
    else:
        pen = raw - cfg.mu * size.astype(np.float64)
    pen[~ok] = -ALPHA
    r = np.zeros(len(num))
    if objective.y_norm > 0:
        r[ok] = raw[ok] / objective.y_norm
    return raw, pen, r, size


def _reference_run_ga(M0, y0, cfg, record_populations=False):
    """The genetic search written plainly: rng.choice for the parents,
    np.where crossovers, per-generation history reductions and an archive
    check on every generation.  run_ga must match it bit for bit."""
    objective = Objective(M0, y0, cfg.size_cap)
    p = objective.n_taxa
    pop = _initial_population(cfg, p, generator(cfg.seed, 0))
    raw, pen, r, size = _reference_evaluate(objective, pop, cfg)

    archive = None
    history = []
    populations = [pop.copy()] if record_populations else None

    def consider(pop, raw, pen, r, size):
        nonlocal archive
        if cfg.mode == "size_cap":
            feasible = np.flatnonzero(size <= cfg.k_opt)
            if feasible.size == 0:
                return False
        else:
            feasible = np.arange(len(pen))
        best_pen = pen[feasible].max()
        cand = feasible[pen[feasible] == best_pen]
        idx = lexicographic_best_loop(pop, cand)
        key = pop[idx].tobytes()
        entry = (best_pen, key, pop[idx].copy(), raw[idx], r[idx], size[idx])
        if archive is None or best_pen > archive[0]:
            archive = entry
            return True
        if best_pen == archive[0] and key < archive[1]:
            archive = entry
        return False

    def record(gen, pen, r, size):
        history.append(
            (float(gen), pen.max(), pen.mean(), r.max(), r.mean(), size.mean())
        )

    consider(pop, raw, pen, r, size)
    record(0, pen, r, size)

    n_elite = math.ceil(cfg.elite_fraction * cfg.population_size)
    n_off = cfg.population_size - n_elite
    n_pairs = (n_off + 1) // 2
    stagnation = 0

    for gen in range(1, cfg.max_generations + 1):
        if stagnation >= cfg.stagnation_limit:
            break
        rng = generator(cfg.seed, gen)

        order = np.argsort(pen, kind="stable")
        ranks = np.empty(cfg.population_size)
        ranks[order] = np.arange(1, cfg.population_size + 1)
        probs = ranks / ranks.sum()

        elite_order = np.argsort(-pen, kind="stable")[:n_elite]
        elites = pop[elite_order].copy()

        parents = rng.choice(cfg.population_size, size=2 * n_pairs, p=probs)
        mothers = pop[parents[0::2]]
        fathers = pop[parents[1::2]]
        cross_points = rng.integers(1, p, size=n_pairs)
        do_cross = rng.random(n_pairs) < cfg.crossover_prob
        tail = np.arange(p)[None, :] >= cross_points[:, None]
        swap = tail & do_cross[:, None]
        child_a = np.where(swap, fathers, mothers).astype(np.uint8)
        child_b = np.where(swap, mothers, fathers).astype(np.uint8)
        offspring = np.empty((2 * n_pairs, p), dtype=np.uint8)
        offspring[0::2] = child_a
        offspring[1::2] = child_b
        offspring = offspring[:n_off]

        do_mutate = rng.random(n_off) < cfg.mutation_prob
        flip_at = rng.integers(0, p, size=n_off)
        rows = np.flatnonzero(do_mutate)
        offspring[rows, flip_at[rows]] ^= 1

        pop = np.concatenate([elites, offspring])
        raw, pen, r, size = _reference_evaluate(objective, pop, cfg)
        improved = consider(pop, raw, pen, r, size)
        record(gen, pen, r, size)
        stagnation = 0 if improved else stagnation + 1
        if record_populations:
            populations.append(pop.copy())

    best_pen, _, best_bits, best_raw, best_r, best_size = archive
    best_eval = FitnessEvaluation(
        float(best_raw), float(best_r), float(best_pen), int(best_size)
    )
    return GAResult(
        best=GroupChromosome(best_bits),
        best_eval=best_eval,
        history=np.array(history),
        populations=tuple(populations) if record_populations else None,
    )


def oracle_problem(p, seed, zero_y=False):
    """Centered data of the benchmark's shape, planted on taxa 0..9."""
    rng = np.random.default_rng(seed)
    n = 100 if p <= 60 else 200
    M = rng.lognormal(0.0, 1.0, size=(n, p))
    y = M[:, :10].sum(axis=1) + rng.normal(0, 0.5, size=n)
    if zero_y:
        y = np.full(n, 3.0)
    return M - M.mean(axis=0), y - y.mean()


def oracle_cases():
    """(p, data seed, zero y, OptimizerConfig keywords) for the bitwise oracle."""
    cases = []
    for p in (60, 300, 1000):
        caps = {60: (2, 6, 12, 60), 300: (6, 10, 40, 300),
                1000: (10, 40, 1000)}[p]
        for seed in (0, 1):
            gens = 30 if p == 60 else 12
            for k in caps:
                cases.append((p, seed, False, dict(
                    mode="size_cap", k_opt=k, population_size=31 if seed else 200,
                    max_generations=gens, seed=seed)))
            for mu in (0.0, 0.02):
                cases.append((p, seed, False, dict(
                    mode="l1", mu=mu, population_size=17 if seed else 200,
                    max_generations=gens, seed=seed + 5)))
    # population, elitism and operator extremes at p=60
    for m in (2, 3, 17, 31):
        for elite in (0.0, 0.3):
            for cross, mut in ((0.0, 0.0), (1.0, 1.0), (0.8, 0.1)):
                for mode in (dict(mode="size_cap", k_opt=6),
                             dict(mode="l1", mu=0.02)):
                    cases.append((60, m, False, dict(
                        mode, population_size=m, elite_fraction=elite,
                        crossover_prob=cross, mutation_prob=mut,
                        max_generations=40, stagnation_limit=15, seed=m)))
    # the same extremes for gathered searches, whose copied rows keep their
    # scores: every child a copy (0/0) or every child changed (1/1)
    for p, mode in ((300, dict(mode="size_cap", k_opt=6)),
                    (1000, dict(mode="l1", mu=0.02))):
        for m in (2, 3, 17):
            for elite in (0.0, 0.3):
                for cross, mut in ((0.0, 0.0), (1.0, 1.0)):
                    cases.append((p, m, False, dict(
                        mode, population_size=m, elite_fraction=elite,
                        crossover_prob=cross, mutation_prob=mut,
                        max_generations=25, stagnation_limit=15, seed=m)))
    # a stagnation stop, and a functional variable that is all zero
    cases.append((60, 2, False, dict(mode="size_cap", k_opt=3,
                                     stagnation_limit=3, seed=1)))
    for mode in (dict(mode="size_cap", k_opt=4), dict(mode="l1", mu=0.0),
                 dict(mode="l1", mu=0.02)):
        cases.append((60, 3, True, dict(mode, population_size=31,
                                        max_generations=20, seed=2)))
    return cases


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRunGaOracle:
    """run_ga draws the same numbers and does the same float arithmetic as
    the plain loop above, so every search and its history keep their bits."""

    @pytest.mark.parametrize("p, seed, zero_y, kw", [
        pytest.param(*case, id="-".join(
            [f"p{case[0]}", f"data{case[1]}"] + ["zero_y"] * case[2]
            + [f"{key}={value}" for key, value in case[3].items()]))
        for case in oracle_cases()])
    def test_matches_reference_bit_for_bit(self, p, seed, zero_y, kw):
        M0, y0 = oracle_problem(p, seed, zero_y)
        cfg = OptimizerConfig(**kw)
        got = run_ga(M0, y0, cfg, record_populations=True)
        want = _reference_run_ga(M0, y0, cfg, record_populations=True)
        np.testing.assert_array_equal(got.best.bits, want.best.bits)
        a, b = got.best_eval, want.best_eval
        np.testing.assert_array_equal(
            float_bits([a.raw_objective, a.pearson_r, a.penalized_fitness]),
            float_bits([b.raw_objective, b.pearson_r, b.penalized_fitness]))
        assert a.group_size == b.group_size
        assert got.history.dtype == want.history.dtype
        assert got.history.shape == want.history.shape
        assert got.history.tobytes() == want.history.tobytes()
        assert len(got.populations) == len(want.populations)
        for pa, pb in zip(got.populations, want.populations):
            assert pa.dtype == pb.dtype and pa.shape == pb.shape
            assert pa.tobytes() == pb.tobytes()

    def test_operator_extremes_above_p60_run_gathered(self):
        extremes = [case for case in oracle_cases()
                    if case[0] > 60 and "crossover_prob" in case[3]]
        assert len(extremes) == 24
        for p, _, _, kw in extremes:
            assert Objective(np.zeros((2, p)), np.zeros(2),
                             OptimizerConfig(**kw).size_cap).gathered

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 300),
           size=st.integers(1, 400), rank_seed=st.integers(0, 2**32 - 1))
    def test_draw_is_generator_choice(self, seed, m, size, rank_seed):
        # the rank vectors of linear-rank selection, in any order
        rank_probs = np.arange(1.0, m + 1)
        rank_probs /= rank_probs.sum()
        probs = np.empty(m)
        probs[np.random.default_rng(rank_seed).permutation(m)] = rank_probs
        ours, theirs = generator(seed, 1), generator(seed, 1)
        got = _draw(ours, probs, size)
        want = theirs.choice(m, size=size, p=probs)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        # both leave the stream at the same place
        assert ours.random() == theirs.random()


class TestRowsScored:
    """A gathered search scores only the rows a generation changed; a dense
    one scores every row of every generation."""

    @staticmethod
    def rows_scored(monkeypatch, M0, y0, cfg):
        rows = []
        kernel = ga.group_terms

        def counting(pop, *args):
            rows.append(pop.shape[0])
            return kernel(pop, *args)

        monkeypatch.setattr(ga, "group_terms", counting)
        result = run_ga(M0, y0, cfg)
        return sum(rows), cfg.population_size * len(result.history)

    def test_gathered_search_skips_copied_rows(self, monkeypatch):
        M0, y0 = oracle_problem(300, 0)
        cfg = OptimizerConfig(mode="size_cap", k_opt=6, max_generations=20,
                              seed=3)
        assert Objective(M0, y0, cfg.size_cap).gathered
        scored, every = self.rows_scored(monkeypatch, M0, y0, cfg)
        assert scored < every

    def test_gathered_search_scores_every_changed_row(self, monkeypatch):
        # with no elites and every child mutated, no row is a copy
        M0, y0 = oracle_problem(300, 0)
        cfg = OptimizerConfig(mode="size_cap", k_opt=6, max_generations=20,
                              elite_fraction=0.0, crossover_prob=1.0,
                              mutation_prob=1.0, seed=3)
        scored, every = self.rows_scored(monkeypatch, M0, y0, cfg)
        assert scored == every

    def test_dense_search_scores_every_row(self, monkeypatch):
        M0, y0 = oracle_problem(60, 0)
        cfg = OptimizerConfig(mode="size_cap", k_opt=6, max_generations=20,
                              seed=3)
        assert not Objective(M0, y0, cfg.size_cap).gathered
        scored, every = self.rows_scored(monkeypatch, M0, y0, cfg)
        assert scored == every


class TestRunMany:
    def fast_cfg(self, seed, **kw):
        kw.setdefault("mode", "size_cap")
        kw.setdefault("k_opt", 3)
        return OptimizerConfig(population_size=40, max_generations=25,
                               stagnation_limit=10, seed=seed, **kw)

    def test_all_rows_equal_direct_run_on_centered_data(self):
        M, y = raw_problem(70)
        cfg = self.fast_cfg(3)
        [(result, score)] = run_many(M, y, [(cfg, None, None)])
        assert score is None
        assert_same_result(result, run_ga(M - M.mean(axis=0), y - y.mean(),
                                          cfg))

    def test_row_subset_equals_direct_run_and_scores_test_rows(self):
        M, y = raw_problem(71)
        train, test = np.arange(0, 50, 2), np.arange(1, 50, 2)
        cfg = self.fast_cfg(4, mode="l1", k_opt=None, mu=0.05)
        [(result, score)] = run_many(M, y, [(cfg, train, test)])
        Mt, yt = M[train], y[train]
        direct = run_ga(Mt - Mt.mean(axis=0), yt - yt.mean(), cfg)
        assert_same_result(result, direct)
        effect = M[test][:, direct.best.indices()].sum(axis=1)
        assert score == pearson(effect, y[test])

    def test_group_r_is_zero_on_a_constant_block(self):
        M = np.ones((6, 4))
        y = np.arange(6.0)
        assert group_r(M, y, np.array([0, 2])) == 0.0
        assert group_r(M, y, np.array([], dtype=np.int64)) == 0.0

    def test_job_order_and_thread_count(self):
        M, y = raw_problem(73)
        halves = (np.arange(25), np.arange(25, 50))
        jobs = [(self.fast_cfg(seed, k_opt=k), *rows)
                for seed, k, rows in [(0, 2, halves), (1, 3, (None, None)),
                                      (2, 4, halves[::-1]), (3, 2, halves)]]
        serial = run_many(M, y, jobs)
        for (cfg, train, test), (result, score) in zip(jobs, serial):
            alone = run_many(M, y, [(cfg, train, test)])[0]
            assert_same_result(result, alone[0])
            assert score == alone[1]
            assert result.best.size() <= cfg.k_opt
        threaded = run_many(M, y, jobs, threads=3)
        for (a, ra), (b, rb) in zip(serial, threaded):
            assert_same_result(a, b)
            assert ra == rb

    @pytest.mark.parametrize("case, match", [
        ("1-d M", "2-d"), ("short y", "sample counts"),
        ("2-d y", "sample counts"), ("nan in M", "non-finite"),
        ("inf in y", "non-finite")])
    def test_unsearchable_data_is_rejected(self, case, match):
        M, y = raw_problem(75)
        M, y = {"1-d M": (M[:, 0], y), "short y": (M, y[:-1]),
                "2-d y": (M, y[:, None]),
                "nan in M": (np.where(M > 2.9, np.nan, M), y),
                "inf in y": (M, np.where(y > y.max() - 1e-9, np.inf, y)),
                }[case]
        with pytest.raises(ValidationError, match=match):
            check_search_data(M, y)
        halves = (np.arange(25), np.arange(25, 50))
        for rows in ((None, None), halves):
            with pytest.raises(ValidationError, match=match):
                run_many(M, y, [(self.fast_cfg(0), *rows)])

    def test_evaluate_l1_with_mu_grid_is_thread_independent(self):
        M, y = raw_problem(74, n=60, p=8)
        cfg = self.fast_cfg(5, mode="l1", k_opt=None)
        reports = [evaluate_method(M, y, cfg, repeats=3, method_tag="baseline",
                                   mu_grid=(0.2, 0.05, 0.01), n_strata=5,
                                   threads=threads)
                   for threads in (1, 3)]
        np.testing.assert_array_equal(reports[0].per_repeat_test_r,
                                      reports[1].per_repeat_test_r)


class TestObjectiveGram:
    """Objective keeps G = M0^T M0 itself when it is exactly symmetric,
    which is then (G + G^T)/2 bit for bit; anything else takes the sum."""

    @staticmethod
    def oracle(M0):
        gram = M0.T @ M0
        return (gram + gram.T) / 2.0

    @pytest.mark.parametrize("layout", ["full", "split", "fortran"])
    def test_product_is_kept_and_equals_symmetrization(self, layout):
        M, y = raw_problem(80, n=60, p=40)
        if layout == "split":
            M, y = M[::2], y[::2]
        M0, y0 = M - M.mean(axis=0), y - y.mean()
        if layout == "fortran":
            M0 = np.asfortranarray(M0)
        gram = Objective(M0, y0).gram
        # numpy computes M0.T @ M0 exactly symmetric
        assert exactly_symmetric(M0.T @ M0)
        assert gram.tobytes() == self.oracle(M0).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("case", ["above max/2", "nan"])
    def test_other_grams_take_the_sum(self, case):
        M, y = raw_problem(81, n=60, p=12)
        M0, y0 = M - M.mean(axis=0), y - y.mean()
        if case == "above max/2":
            # the largest diagonal entry lands at 1.2e308: finite, but 2G
            # is not
            M0 = M0 * math.sqrt(1.2e308 / np.diag(M0.T @ M0).max())
        else:
            M0[3, 5] = np.nan
        assert not exactly_symmetric(M0.T @ M0)
        gram = Objective(M0, y0).gram
        assert gram.tobytes() == self.oracle(M0).tobytes()
        if case == "above max/2":
            assert np.isinf(gram).any()


class TestSharedObjective:
    """run_many builds one Objective per run of consecutive jobs on one
    train, keeps no more alive than searches run, and scores every search
    as its own Objective would."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Record the live Objective count at each build."""
        live, counts = weakref.WeakSet(), []
        init = Objective.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            live.add(self)
            counts.append(len(live))

        monkeypatch.setattr(Objective, "__init__", counting)
        return counts

    @staticmethod
    def fast(**kw):
        kw.setdefault("mode", "size_cap")
        kw.setdefault("seed", 9)
        return OptimizerConfig(population_size=30, max_generations=12,
                               stagnation_limit=6, **kw)

    @staticmethod
    def same_bits(a, b):
        assert pickle.dumps(a) == pickle.dumps(b)

    def check(self, builds, call, expected):
        results = []
        for threads in (1, 3):
            builds.clear()
            results.append(call(threads))
            assert len(builds) == expected
            assert max(builds) <= threads
        self.same_bits(*results)
        return results[0]

    def test_sweep_k(self, builds):
        # p=300: the capped searches gather, the shared build is dense
        M, y = raw_problem(82, n=40, p=300)
        cfg = self.fast(k_opt=2)
        result = self.check(builds, lambda threads: sweep_k(
            M, y, (2, 4), 2, cfg, threads=threads), 1)
        M0, y0 = M - M.mean(axis=0), y - y.mean()
        for run in result.runs:
            alone = run_ga(M0, y0, replace(cfg, k_opt=run.k, seed=child_int(
                cfg.seed, run.k, run.repeat)))
            np.testing.assert_array_equal(run.bits, alone.best.bits)
            assert run.pearson_r == alone.best_eval.pearson_r

    def test_discover_importance(self, builds):
        M, y = raw_problem(83, n=40, p=12)
        self.check(builds, lambda threads: discover_importance(
            M, y, self.fast(k_opt=3), 4, threads=threads), 1)

    def test_mu_sweep(self, builds):
        M, y = raw_problem(84, n=40, p=12)
        self.check(builds, lambda threads: mu_sweep(
            M, y, (0.1, 0.05, 0.01), self.fast(mode="l1"), n_strata=4,
            inner_repeats=3, threads=threads), 3)

    @pytest.mark.parametrize("mode, mu_grid, expected", [
        ("size_cap", None, 3),
        # per split, one build for its inner split and one for its own run
        ("l1", (0.1, 0.01), 3 * 2)])
    def test_evaluate_method(self, builds, mode, mu_grid, expected):
        M, y = raw_problem(85, n=40, p=12)
        cfg = self.fast(mode=mode, k_opt=3 if mode == "size_cap" else None)
        self.check(builds, lambda threads: evaluate_method(
            M, y, cfg, 3, method_tag="m", n_strata=4, mu_grid=mu_grid,
            threads=threads), expected)

    def test_mixed_formulations_in_one_call(self, builds):
        # caps 3 (gathered at p=300) and 20 (dense) on one train; a train
        # that comes back after another is built again, so that only one
        # Objective is alive at a time in a serial call
        M, y = raw_problem(86, n=40, p=300)
        train, test = np.arange(0, 40, 2), np.arange(1, 40, 2)
        jobs = [(self.fast(k_opt=k, seed=s), rows, rows2)
                for s, (k, rows, rows2) in enumerate(
                    [(3, train, test), (20, train, test), (3, None, None),
                     (20, None, None), (3, train, None)])]
        results = self.check(builds, lambda threads: run_many(
            M, y, jobs, threads), 3)
        for (cfg, rows, _), (result, _) in zip(jobs, results):
            Mt, yt = (M, y) if rows is None else (M[rows], y[rows])
            alone = run_ga(Mt - Mt.mean(axis=0), yt - yt.mean(), cfg)
            assert_same_result(result, alone)

    def test_builds_under_thread_switching(self, builds, monkeypatch):
        # more workers than cores, a short switch interval and a slow
        # build: a race in acquire would build an Objective twice, and a
        # release that drops it early would make a later job build again
        M, y = raw_problem(87, n=30, p=10)
        trains = (np.arange(0, 30, 2), None, np.arange(1, 30, 2))
        jobs = [(self.fast(k_opt=2, seed=s), train, None)
                for train in trains for s in range(8)]
        serial = run_many(M, y, jobs)
        init = Objective.__init__

        def slow(self, *args, **kwargs):
            time.sleep(0.005)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Objective, "__init__", slow)
        builds.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_many(M, y, jobs, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == len(trains)
        self.same_bits(serial, threaded)
