"""Group-size selection by AIC sweep and l1-penalty tuning.

``sweep_k`` repeats the capped genetic search for every candidate group size
and scores each run's best group with an AIC built from the simple
regression of the functional variable on the group effect.  ``mu_sweep``
picks the l1 penalty weight on an inner stratified split of the training
data.  All seeds derive from the config seed and the (k, repeat) or
(repeat, grid-index) coordinates, so sweeps are reproducible and safe to
parallelize.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .ga import GroupChromosome, OptimizerConfig, check_search_data, run_many
from .utils import child_int

DEFAULT_K_RANGE = (2, 50)
DEFAULT_REPEATS = 10
#: candidate l1 penalty weights, strongest first
DEFAULT_MU_GRID = tuple(1.0 / d for d in range(30, 101, 10))

#: relative floor applied to the residual sum of squares (perfect-fit guard)
RSS_FLOOR = 1e-12

SWEEP_COLUMNS = ("k", "repeat", "aic", "r", "group_bits")


@dataclass(frozen=True)
class SweepRun:
    """One genetic-search run inside an AIC sweep."""

    k: int
    repeat: int
    aic: float
    pearson_r: float
    bits: np.ndarray


@dataclass(frozen=True)
class ModelSelectionResult:
    """Outcome of a size sweep and/or an l1-penalty grid search.

    ``per_k`` holds (k, per-repeat AICs, mean AIC) triples; ``per_mu`` holds
    (mu, mean validation r) pairs.  Each half may be empty when only the
    other selection was performed.  ``chosen_k`` minimizes the mean AIC,
    ties going to the smaller k; ``chosen_mu`` maximizes the mean validation
    r, ties going to the larger mu; each is None when its half is empty.
    """

    per_k: tuple = ()
    per_mu: tuple = ()
    runs: tuple = ()
    chosen_k: int | None = field(init=False)
    chosen_mu: float | None = field(init=False)

    def __post_init__(self):
        k_row = min(self.per_k, key=lambda r: (r[2], r[0]), default=(None,))
        mu_row = max(self.per_mu, key=lambda r: (r[1], r[0]), default=(None,))
        object.__setattr__(self, "chosen_k", k_row[0])
        object.__setattr__(self, "chosen_mu", mu_row[0])


def aic_for_group(x, M: np.ndarray, y: np.ndarray) -> float:
    """AIC of the regression y ~ intercept + slope * (M x).

    The group size plays the role of the parameter count: the score is
    2*size - 2*lnL with the Gaussian profile log-likelihood
    lnL = -(n/2) (ln(2*pi*RSS/n) + 1).  RSS is floored at
    1e-12 * n * var(y) so perfect fits stay finite.
    """
    bits = x.bits if isinstance(x, GroupChromosome) else GroupChromosome(np.asarray(x)).bits
    M = np.asarray(M, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if M.ndim != 2 or y.ndim != 1 or M.shape[0] != y.shape[0]:
        raise ValidationError("M must be n x p and y length n")
    if bits.shape[0] != M.shape[1]:
        raise ValidationError("chromosome length does not match taxon count")
    k = int(bits.sum())
    if k == 0:
        raise ValidationError("AIC undefined for an empty group")

    n = y.shape[0]
    s = M[:, np.flatnonzero(bits)].sum(axis=1)
    s0 = s - s.mean()
    y0 = y - y.mean()
    ss = float(s0 @ s0)
    yy = float(y0 @ y0)
    if ss <= 0.0:
        raise ValidationError("group effect has zero variance; AIC undefined")
    if yy <= 0.0:
        raise ValidationError("functional variable has zero variance")

    rss = yy - float(s0 @ y0) ** 2 / ss
    rss = max(rss, RSS_FLOOR * yy)
    lnl = -(n / 2.0) * (math.log(2.0 * math.pi * rss / n) + 1.0)
    return 2.0 * k - 2.0 * lnl


def sweep_k(M: np.ndarray, y: np.ndarray, k_range=DEFAULT_K_RANGE,
            repeats: int = DEFAULT_REPEATS, cfg: OptimizerConfig | None = None,
            *, threads: int = 1) -> ModelSelectionResult:
    """Repeat the capped search for every k in ``k_range`` and pick by AIC.

    ``k_range`` is an inclusive (low, high) interval.  Each (k, repeat) run
    uses the seed derived from (cfg.seed, k, repeat); the chosen k minimizes
    the mean AIC over repeats, ties going to the smaller k.
    """
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo < 1 or hi < lo:
        raise ValidationError("k_range must be an interval with 1 <= low <= high")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    if cfg is None:
        cfg = OptimizerConfig(mode="size_cap", k_opt=lo)

    coords = [(k, rep) for k in range(lo, hi + 1) for rep in range(repeats)]
    jobs = [(replace(cfg, mode="size_cap", k_opt=k,
                     seed=child_int(cfg.seed, k, rep)), None, None)
            for k, rep in coords]
    results = run_many(M, y, jobs, threads)
    runs = [SweepRun(k, rep, aic_for_group(result.best, M, y),
                     result.best_eval.pearson_r, result.best.bits)
            for (k, rep), (result, _) in zip(coords, results)]

    per_k = []
    for k in range(lo, hi + 1):
        aics = tuple(run.aic for run in runs if run.k == k)
        per_k.append((k, aics, float(np.mean(aics))))
    return ModelSelectionResult(per_k=tuple(per_k), runs=tuple(runs))


def mu_sweep(M_train: np.ndarray, y_train: np.ndarray, grid=DEFAULT_MU_GRID,
             cfg: OptimizerConfig | None = None, *, n_strata: int = 10,
             inner_repeats: int = 1, threads: int = 1) -> ModelSelectionResult:
    """Score every mu on inner stratified splits of the training data.

    For each inner repeat the training data is split in half once more; the
    l1 search runs on the inner-train half and each candidate group is
    scored by the Pearson correlation of its effect with y on the other half
    (0.0 when the effect is degenerate there).  The chosen mu maximizes the
    mean validation r, ties going to the larger mu.
    """
    from .evaluation import stratified_split

    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValidationError("mu grid must not be empty")
    if any(g < 0 or not math.isfinite(g) for g in grid):
        raise ValidationError("mu values must be finite and >= 0")
    if inner_repeats < 1:
        raise ValidationError("inner_repeats must be >= 1")
    if cfg is None:
        cfg = OptimizerConfig(mode="l1")
    M_train, y_train = check_search_data(M_train, y_train)

    jobs = []
    for rep in range(inner_repeats):
        plan = stratified_split(y_train, 0.5, n_strata,
                                seed=child_int(cfg.seed, rep, 0))
        jobs.extend((replace(cfg, mode="l1", mu=mu,
                             seed=child_int(cfg.seed, rep, 1 + j)),
                     plan.train_indices, plan.test_indices)
                    for j, mu in enumerate(grid))

    results = run_many(M_train, y_train, jobs, threads)
    scores = np.array([s for _, s in results]).reshape(inner_repeats, len(grid))
    per_mu = tuple((grid[j], float(scores[:, j].mean()))
                   for j in range(len(grid)))
    return ModelSelectionResult(per_mu=per_mu)


def write_sweep(result: ModelSelectionResult, path, delimiter: str = ",") -> None:
    """Export per-run sweep detail as a (k, repeat, aic, r, group_bits) table."""
    from .tables import fmt, write_table

    rows = [
        [str(run.k), str(run.repeat), fmt(run.aic), fmt(run.pearson_r),
         "".join(str(int(b)) for b in run.bits)]
        for run in result.runs
    ]
    write_table(path, list(SWEEP_COLUMNS), rows, delimiter)
