"""Genetic search over binary taxon-membership vectors.

The objective is the centered-correlation surrogate
``x.M0^T.y0 / sqrt(x.M0^T.M0.x)`` (equal to the Pearson correlation of the
group effect with the functional variable, times the constant ||y0||),
penalized either by a hard size cap or by an l1 term on the group size.

The search is a generational GA with linear-rank selection, single-point
crossover, single-bit mutation and elitism.  Selection depends only on the
fitness ORDER of the population, so rescaling the functional variable by a
positive constant leaves trajectories unchanged.  All randomness comes from
per-generation streams derived from the config seed; runs are deterministic
and thread-count independent.  Every repeated search goes through run_many.
"""

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from ._kernels import L1_START_BITS, group_terms, prefers_gathered
from .errors import ValidationError
from .utils import (exactly_symmetric, generator, parallel_map, pearson,
                    symmetrize)

#: hard-cap penalty weight: sqrt of the largest finite double
ALPHA = math.sqrt(sys.float_info.max)

#: groups whose effect has squared norm below this are treated as degenerate
DEGENERATE_QUAD = 1e-15

#: operator rates: each child pair is crossed with CROSSOVER_PROB, each
#: child mutated with MUTATION_PROB, and ceil(ELITE_FRACTION * m) of the m
#: rows are copied over as elites
CROSSOVER_PROB = 0.8
MUTATION_PROB = 0.1
ELITE_FRACTION = 0.05

HISTORY_COLUMNS = (
    "generation",
    "max_fitness",
    "mean_fitness",
    "max_r",
    "mean_r",
    "mean_size",
)


@dataclass(frozen=True)
class GroupChromosome:
    """Binary membership vector over the p taxa."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or not np.isin(bits, (0, 1)).all():
            raise ValidationError("chromosome bits must be a 1-d 0/1 vector")
        object.__setattr__(self, "bits", bits)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def size(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True, kw_only=True)
class OptimizerConfig:
    """GA hyperparameters and the size penalty.

    A config is capped exactly when it sets ``k_opt``: the search then
    subtracts ``ALPHA * max(size - k_opt, 0)``.  An uncapped config
    subtracts ``mu * size``.  A capped config keeps ``mu`` at 0.
    """

    k_opt: int | None = None
    mu: float = 0.0
    population_size: int = 200
    max_generations: int = 500
    stagnation_limit: int = 50
    seed: int = 0

    def __post_init__(self):
        counts = ("population_size", "max_generations", "stagnation_limit",
                  "seed") + (() if self.k_opt is None else ("k_opt",))
        for name in counts:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.mu, bool) or not isinstance(
                self.mu, (int, float, np.integer, np.floating)):
            raise ValidationError(f"mu must be a real number, got {self.mu!r}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValidationError("mu must be finite and >= 0")
        if self.k_opt is not None:
            if self.k_opt < 1:
                raise ValidationError("k_opt must be >= 1")
            if self.mu:
                raise ValidationError("a capped config (k_opt) cannot set mu")
        if self.population_size < 2:
            raise ValidationError("population_size must be >= 2")
        if self.max_generations < 1 or self.stagnation_limit < 1:
            raise ValidationError("max_generations and stagnation_limit must be >= 1")


@dataclass(frozen=True)
class FitnessEvaluation:
    """Objective terms for one chromosome.

    ``raw_objective`` is the unnormalized surrogate; ``pearson_r`` divides it
    by ||y0||.  Degenerate chromosomes (empty group, or zero variance of the
    group effect) get raw_objective = pearson_r = 0 and the finite sentinel
    ``-ALPHA`` as penalized fitness.
    """

    raw_objective: float
    pearson_r: float
    penalized_fitness: float
    group_size: int


@dataclass(frozen=True)
class GAResult:
    best: GroupChromosome
    best_eval: FitnessEvaluation
    history: np.ndarray


class Objective:
    """Precomputed quadratic form for batch fitness evaluation.

    Holds G = M0^T M0 (symmetrized), c = M0^T y0 and ||y0||; evaluates
    populations through ``group_terms`` in the formulation the caller
    names, so searches with different caps can share one objective.
    """

    def __init__(self, M0: np.ndarray, y0: np.ndarray):
        M0 = np.asarray(M0, dtype=np.float64)
        y0 = np.asarray(y0, dtype=np.float64)
        if M0.ndim != 2 or y0.ndim != 1 or M0.shape[0] != y0.shape[0]:
            raise ValidationError("M0 must be n x p and y0 length n")
        gram = M0.T @ M0
        # numpy's M0.T @ M0 is exactly symmetric, and then its
        # symmetrization is the same array
        if not exactly_symmetric(gram):
            symmetrize(gram)
        self.gram = gram
        self.cvec = M0.T @ y0
        self.y_norm = float(np.sqrt(y0 @ y0))
        self.n_taxa = M0.shape[1]

    def evaluate(self, population: np.ndarray, cfg: OptimizerConfig,
                 gathered: bool):
        """Return (raw, penalized, r, size) arrays for a population matrix,
        scored by the gathered formulation if ``gathered``, else dense."""
        pop = np.ascontiguousarray(population, dtype=np.uint8)
        if pop.ndim != 2 or pop.shape[1] != self.n_taxa:
            raise ValidationError(f"chromosome length must be {self.n_taxa}")
        num, quad, size = group_terms(pop, self.gram, self.cvec, gathered)
        ok = (size > 0) & (quad > DEGENERATE_QUAD)
        # degenerate rows keep raw = 0.0 and so r = 0.0
        raw = np.sqrt(quad, out=np.zeros(len(num)), where=ok)
        np.divide(num, raw, out=raw, where=ok)
        if cfg.k_opt is None:
            pen = raw - cfg.mu * size
        else:
            pen = raw - ALPHA * np.maximum(size - cfg.k_opt, 0)
        pen[~ok] = -ALPHA
        r = raw / self.y_norm if self.y_norm > 0 else np.zeros(len(num))
        return raw, pen, r, size


def _initial_population(cfg: OptimizerConfig, p: int, rng: np.random.Generator) -> np.ndarray:
    pop = np.zeros((cfg.population_size, p), dtype=np.uint8)
    if cfg.k_opt is None:
        prob = min(0.5, L1_START_BITS / p)
        pop[:] = rng.random((cfg.population_size, p)) < prob
    else:
        k = min(cfg.k_opt, p)
        # k distinct random bits per individual, so generation 0 is feasible
        order = rng.random((cfg.population_size, p)).argsort(axis=1)
        rows = np.repeat(np.arange(cfg.population_size), k)
        pop[rows, order[:, :k].ravel()] = 1
    return pop


def _lexicographic_best(population: np.ndarray, candidates: np.ndarray) -> int:
    """The candidate whose row has the smallest bytes; ties go to the first."""
    if candidates.shape[0] == 1:
        return int(candidates[0])
    rows = np.ascontiguousarray(population[candidates])
    # one raw-bytes item per row, which sorts as the row's tobytes() does
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))
    return int(candidates[np.argsort(keys.ravel(), kind="stable")[0]])


def _draw(rng: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(probs), size, p=probs)`` without its argument checks.

    This is numpy's own algorithm for that call (``Generator.choice`` with
    replacement): the same cdf and the same uniforms give the same indices
    and leave the stream in the same state.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _rescore(objective, pop, cfg, scores, source, changed):
    """(raw, penalized, r, size) of ``pop`` under the gathered formulation,
    whose row i is row ``source[i]`` of the last generation, with ``scores``
    its arrays, unless ``changed[i]``: only the changed rows go through the
    kernel."""
    raw, pen, r, size = (values[source] for values in scores)
    rows = np.flatnonzero(changed)
    if rows.size:
        fresh = objective.evaluate(pop[rows], cfg, True)
        for values, new in zip((raw, pen, r, size), fresh):
            values[rows] = new
    return raw, pen, r, size


def run_ga(M0: np.ndarray, y0: np.ndarray, cfg: OptimizerConfig, *,
           objective: Objective | None = None) -> GAResult:
    """Run the genetic search on centered data.

    Returns the best chromosome ever seen (elitist archive; ties broken
    toward the lexicographically smallest bit vector), its evaluation, and a
    per-generation history table with columns ``HISTORY_COLUMNS``.
    Deterministic given ``cfg.seed``.  The search picks the dense or
    gathered formulation once, from the taxon count and ``cfg.k_opt``,
    and scores every population with it.  A gathered search scores only the
    rows that are not exact copies of a row of the previous generation.
    ``objective``, when given, is the :class:`Objective` of ``(M0, y0)``,
    which are then not read.
    """
    if objective is None:
        objective = Objective(M0, y0)
    p = objective.n_taxa
    if p < 2:
        raise ValidationError("need at least 2 taxa to optimize over")
    gathered = prefers_gathered(p, cfg.k_opt)

    m = cfg.population_size
    n_elite = math.ceil(ELITE_FRACTION * m)
    n_off = m - n_elite
    n_pairs = (n_off + 1) // 2
    cols = np.arange(p)
    # the selection probability of rank j (worst 1 ... best m) is j / sum
    rank_probs = np.arange(1.0, m + 1)
    rank_probs /= rank_probs.sum()
    # generations fill two buffers in turn: elites first, then the children
    # pair by pair; with an odd offspring count the last child falls past
    # the population
    buffers = [np.empty((n_elite + 2 * n_pairs, p), np.uint8) for _ in range(2)]
    children = [buf[n_elite:].reshape(n_pairs, 2, p) for buf in buffers]
    # the row of the last generation that each row copies (elites, then
    # each child's own parent), and whether crossover or mutation changed it
    source = np.empty(m, np.intp)
    changed = np.zeros(m, bool)

    pop = _initial_population(cfg, p, generator(cfg.seed, 0))
    raw, pen, r, size = objective.evaluate(pop, cfg, gathered)

    archive = None  # (pen, bits_bytes, bits, raw, r, size)
    scores = [(pen, r, size)]

    def consider(pop, raw, pen, r, size):
        """Update the best-ever archive; True iff best fitness improved."""
        nonlocal archive
        if cfg.k_opt is not None:
            pen = np.where(size <= cfg.k_opt, pen, -np.inf)
        best_pen = pen.max()
        if best_pen == -np.inf:  # no feasible row, possible only without elitism
            return False
        if archive is not None and best_pen < archive[0]:
            return False
        idx = _lexicographic_best(pop, np.flatnonzero(pen == best_pen))
        key = pop[idx].tobytes()
        entry = (best_pen, key, pop[idx].copy(), raw[idx], r[idx], size[idx])
        if archive is None or best_pen > archive[0]:
            archive = entry
            return True
        if key < archive[1]:
            archive = entry
        return False

    consider(pop, raw, pen, r, size)
    stagnation = 0

    for gen in range(1, cfg.max_generations + 1):
        if stagnation >= cfg.stagnation_limit:
            break
        rng = generator(cfg.seed, gen)
        nxt = buffers[gen % 2]
        elite_order = np.argsort(-pen, kind="stable")[:n_elite]
        np.take(pop, elite_order, axis=0, out=nxt[:n_elite])

        # linear-rank selection
        probs = np.empty(m)
        probs[np.argsort(pen, kind="stable")] = rank_probs
        parents = _draw(rng, probs, 2 * n_pairs)
        pairs = pop[parents].reshape(n_pairs, 2, p)  # mother, father

        # single-point crossover: XOR both parents with the bits where they
        # differ past the cut, which swaps their tails
        cross_points = rng.integers(1, p, size=n_pairs)
        do_cross = rng.random(n_pairs) < CROSSOVER_PROB
        diff = pairs[:, 0] ^ pairs[:, 1]
        diff &= cols >= np.where(do_cross, cross_points, p)[:, None]
        np.bitwise_xor(pairs, diff[:, None], out=children[gen % 2])

        do_mutate = rng.random(n_off) < MUTATION_PROB
        flip_at = rng.integers(0, p, size=n_off)
        rows = np.flatnonzero(do_mutate)
        nxt[n_elite + rows, flip_at[rows]] ^= 1

        pop = nxt[:m]
        # a gathered row scores the same bits in any batch, so copies keep
        # their scores; a dense product may round a row differently in a
        # smaller batch, so a dense search scores every row
        if gathered:
            source[:n_elite] = elite_order
            source[n_elite:] = parents[:n_off]
            changed[n_elite:] = np.repeat(diff.any(axis=1), 2)[:n_off]
            changed[n_elite:] |= do_mutate
            raw, pen, r, size = _rescore(objective, pop, cfg,
                                         (raw, pen, r, size), source, changed)
        else:
            raw, pen, r, size = objective.evaluate(pop, cfg, False)
        improved = consider(pop, raw, pen, r, size)
        scores.append((pen, r, size))
        stagnation = 0 if improved else stagnation + 1

    best_pen, _, best_bits, best_raw, best_r, best_size = archive
    if cfg.k_opt is not None and best_size > cfg.k_opt:
        raise ValidationError("internal error: archived group exceeds the size cap")
    best_eval = FitnessEvaluation(
        float(best_raw), float(best_r), float(best_pen), int(best_size)
    )
    # each generation's summaries, reduced row by row as 1-d arrays would be
    pens, rs, sizes = (np.stack(column) for column in zip(*scores))
    history = np.column_stack([
        np.arange(len(scores), dtype=np.float64), pens.max(axis=1),
        pens.mean(axis=1), rs.max(axis=1), rs.mean(axis=1), sizes.mean(axis=1),
    ])
    return GAResult(best=GroupChromosome(best_bits), best_eval=best_eval,
                    history=history)


def group_r(M: np.ndarray, y: np.ndarray, indices) -> float:
    """Pearson r of the group effect ``M[:, indices].sum(1)`` with y.

    A degenerate effect (empty group or zero variance) scores 0.0.
    """
    try:
        return pearson(M[:, indices].sum(axis=1), y)
    except ValidationError:
        return 0.0


def check_search_data(M, y) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(M, y)`` as float arrays after checking a search can use them.

    ``M`` must be a samples x taxa matrix and ``y`` a vector with one entry
    per row of ``M``, all finite.  Every repeated search checks here before
    it indexes rows.
    """
    M = np.asarray(M, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if M.ndim != 2:
        raise ValidationError("M must be a 2-d samples x taxa matrix")
    if y.ndim != 1 or y.shape[0] != M.shape[0]:
        raise ValidationError("sample counts of M and y differ")
    if not (np.isfinite(M).all() and np.isfinite(y).all()):
        raise ValidationError("M and y must not contain non-finite entries")
    return M, y


class _SharedObjective:
    """The :class:`Objective` of consecutive jobs on one train: built by the
    first of them to start and dropped when the last of them ends."""

    def __init__(self, M, y, train):
        self.M, self.y, self.train = M, y, train
        self.searches = 0
        self.objective = None
        self.lock = threading.Lock()

    def acquire(self) -> Objective:
        with self.lock:
            if self.objective is None:
                M, y = ((self.M, self.y) if self.train is None
                        else (self.M[self.train], self.y[self.train]))
                self.objective = Objective(M - M.mean(axis=0), y - y.mean())
            return self.objective

    def release(self) -> None:
        with self.lock:
            self.searches -= 1
            if not self.searches:
                self.objective = None


def run_many(M: np.ndarray, y: np.ndarray, jobs, threads: int = 1) -> list:
    """Run one search per ``(cfg, train, test)`` job; results in job order.

    Each search runs on rows ``train`` (all rows when None), centered on
    their own means; its best group gets the :func:`group_r` score on rows
    ``test``, or None.  Consecutive jobs that pass the same ``train``
    object (or None) share one :class:`Objective`, which lives from the
    first of them to start to the last to end, so no more are alive at
    once than searches run.  Seeds come only from each job's cfg, so the
    ``(GAResult, score)`` pairs do not depend on ``threads``.  The data are
    checked by :func:`check_search_data`.
    """
    M, y = check_search_data(M, y)
    items, shared = [], None  # (job, the objective it shares)
    for job in jobs:
        if shared is None or job[1] is not shared.train:
            shared = _SharedObjective(M, y, job[1])
        shared.searches += 1
        items.append((job, shared))

    def one(item):
        (cfg, train, test), shared = item
        try:
            result = run_ga(None, None, cfg, objective=shared.acquire())
        finally:
            shared.release()
        if test is None:
            return result, None
        return result, group_r(M[test], y[test], result.best.indices())

    return parallel_map(one, items, threads)
