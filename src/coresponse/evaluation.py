"""Repeated stratified train/test evaluation and paired comparison.

Splits are stratified on equal-frequency bins of the functional variable so
train and test preserve its distribution.  Held-out performance is always
the definitional Pearson correlation between the group effect on the test
rows and the test responses.  Each method searches one full-data matrix,
convolved once from the full-data adjacency by ``convolved_matrix`` and
split into train and test rows afterwards; the network is treated as an
input to the method, not re-inferred per split (a deliberate, documented
leakage trade-off).
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .ga import OptimizerConfig, check_search_data, run_many
from .ingest import AbundanceMatrix
from .model_select import mu_sweep
from .network import CoOccurrenceNetwork, convolution_operator
from .utils import child_int, generator

SIGNIFICANCE_LEVEL = 0.05

PER_REPEAT_COLUMNS = ("repeat", "method", "test_r")
SUMMARY_COLUMNS = ("method", "mean_r", "std_r", "repeats")
TTEST_COLUMNS = ("method_a", "method_b", "t", "p", "significant")

#: terms of the t-tail series built per numpy call
_SERIES_BLOCK = 1024


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint train/test index sets covering all samples."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        train = np.asarray(self.train_indices, dtype=np.int64)
        test = np.asarray(self.test_indices, dtype=np.int64)
        union = np.concatenate([train, test])
        n = union.shape[0]
        if n == 0 or not np.array_equal(np.sort(union), np.arange(n)):
            raise ValidationError(
                "train and test must disjointly cover all sample indices"
            )
        object.__setattr__(self, "train_indices", train)
        object.__setattr__(self, "test_indices", test)


@dataclass(frozen=True)
class EvaluationReport:
    """Held-out correlations across repeats for one method.

    ``mean_r`` and ``std_r`` are derived from the vector; ``std_r`` is the
    sample standard deviation (ddof=1), 0.0 for a single repeat.
    """

    per_repeat_test_r: np.ndarray
    method_tag: str
    mean_r: float = field(init=False)
    std_r: float = field(init=False)

    def __post_init__(self):
        r = np.asarray(self.per_repeat_test_r, dtype=np.float64)
        if r.ndim != 1 or r.shape[0] < 1:
            raise ValidationError("per_repeat_test_r must be a non-empty vector")
        object.__setattr__(self, "per_repeat_test_r", r)
        object.__setattr__(self, "mean_r", float(r.mean()))
        object.__setattr__(self, "std_r",
                           float(r.std(ddof=1)) if r.shape[0] > 1 else 0.0)

    @property
    def repeats(self) -> int:
        return self.per_repeat_test_r.shape[0]


class TTestResult(NamedTuple):
    t: float
    p: float
    significant: bool


def stratified_split(y, fraction: float = 0.5, n_strata: int = 10,
                     seed: int = 0) -> SplitPlan:
    """Split samples into train/test preserving the distribution of y.

    Samples are sorted by y (ties kept in index order) and cut into
    ``n_strata`` equal-frequency bins; each bin contributes its rounded
    share to the train side.  Bins with a single sample are assigned
    alternately (train first) with a warning.  Deterministic given seed.
    """
    values = np.asarray(y, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < 2:
        raise ValidationError("need at least 2 samples to split")
    if not 0.0 < fraction < 1.0:
        raise ValidationError("fraction must be strictly between 0 and 1")
    if n_strata < 1:
        raise ValidationError("n_strata must be >= 1")

    order = np.argsort(values, kind="stable")
    rng = generator(seed)
    train, test = [], []
    n_single = 0
    for stratum in np.array_split(order, n_strata):
        if stratum.size == 0:
            continue
        if stratum.size == 1:
            warnings.warn("stratum with a single sample; assigning alternately")
            (train if n_single % 2 == 0 else test).append(stratum[0])
            n_single += 1
            continue
        perm = rng.permutation(stratum)
        n_train = math.floor(fraction * stratum.size + 0.5)
        train.extend(perm[:n_train])
        test.extend(perm[n_train:])
    if not train or not test:
        raise ValidationError(
            "split produced an empty side; adjust fraction or strata"
        )
    return SplitPlan(np.sort(np.asarray(train, dtype=np.int64)),
                     np.sort(np.asarray(test, dtype=np.int64)))


def convolved_matrix(m: AbundanceMatrix,
                     net: CoOccurrenceNetwork | None) -> np.ndarray:
    """Full-data topological abundance; ``net=None`` means the identity operator."""
    if net is None:
        return m.values
    if net.taxon_labels != m.taxon_labels:
        raise ValidationError("abundance and network taxon labels differ")
    return m.values @ convolution_operator(net.adjacency)


def evaluate_method(M: np.ndarray, y: np.ndarray, cfg: OptimizerConfig,
                    repeats: int = 100, *, method_tag: str,
                    fraction: float = 0.5, n_strata: int = 10, mu_grid=None,
                    inner_repeats: int = 1,
                    threads: int = 1) -> EvaluationReport:
    """Score one method over repeated stratified splits of ``(M, y)``.

    ``M`` is the full-data matrix the method searches: the convolved
    abundance, or the raw abundance for the identity-graph baseline.  Per
    repeat: split, search on the train rows (centered on train means), then
    correlate the chosen group's effect with y on the test rows.  A
    degenerate test effect scores 0.0.  In l1 mode a non-None ``mu_grid``
    re-tunes mu on every training set.  Split seeds depend only on
    (cfg.seed, repeat), so methods sharing a config seed see identical
    splits and can be compared pairwise.
    """
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    M, y = check_search_data(M, y)

    plans = [stratified_split(y, fraction, n_strata,
                              seed=child_int(cfg.seed, i, 0))
             for i in range(repeats)]
    jobs = []
    for i, plan in enumerate(plans):
        run_cfg = replace(cfg, seed=child_int(cfg.seed, i, 2))
        if cfg.mode == "l1" and mu_grid is not None:
            tuned = mu_sweep(M[plan.train_indices], y[plan.train_indices],
                             mu_grid, replace(cfg, seed=child_int(cfg.seed, i, 1)),
                             n_strata=n_strata, inner_repeats=inner_repeats,
                             threads=threads)
            run_cfg = replace(run_cfg, mu=tuned.chosen_mu)
        jobs.append((run_cfg, plan.train_indices, plan.test_indices))

    rs = [score for _, score in run_many(M, y, jobs, threads)]
    return EvaluationReport(np.asarray(rs, dtype=np.float64), method_tag)


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided Student-t p-value, P(|T| >= |t|) with ``df`` degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df + t²).  With a = df/2 and y = 1 - x it is
    ``x^a √y · g(a) · 2F1(a+½, 1; a+1; x)``, and on the side where that
    series is slow (x ≥ (a+1)/(a+5/2), p above ~0.08) it is taken as
    ``1 - x^a √y · 2a·g(a) · 2F1(a+½, 1; 3/2; y)``.  Every term of both
    series is positive, so the tail keeps its relative precision far out
    (p = 1e-300 and below).  g(a) = Γ(a+½)/(√π Γ(a+1)) is the exact
    product of (k+½)/(k+1) from g(0) = 1 or g(½) = 2/π, so no difference
    of log-gammas enters.
    """
    if df < 1 or df != int(df):
        raise ValidationError("degrees of freedom must be a positive integer")
    df = int(df)
    t = float(t)
    if math.isnan(t):
        return math.nan
    a = df / 2.0
    x = df / (df + t * t)
    y = 1.0 - x
    a0, g = (0.5, 2.0 / math.pi) if df % 2 else (0.0, 1.0)
    g *= math.prod((a0 + k + 0.5) / (a0 + k + 1.0) for k in range(df // 2))
    front = x ** a * math.sqrt(y) * g
    if x < (a + 1.0) / (a + 2.5):
        return front * _unit_hypergeometric(a + 0.5, a + 1.0, x)
    return 1.0 - 2.0 * a * front * _unit_hypergeometric(a + 0.5, 1.5, y)


def _unit_hypergeometric(c: float, d: float, z: float) -> float:
    """2F1(c, 1; d; z) = sum over j of prod_{i<j} z (c+i)/(d+i).

    For 0 <= z whose term ratios stay below 1.  Terms are built and
    summed a block at a time, until the tail past the last term, bounded
    by a geometric series of the larger of z and the last ratio, is below
    half an ulp of the sum.
    """
    total, term, start = 1.0, 1.0, 0
    while True:
        i = np.arange(start, start + _SERIES_BLOCK, dtype=np.float64)
        ratios = z * (c + i) / (d + i)
        terms = term * np.cumprod(ratios)
        total += float(terms.sum())
        term = float(terms[-1])
        q = max(z, float(ratios[-1]))
        if term * q <= 2.0 ** -53 * total * (1.0 - q):
            return total
        start += _SERIES_BLOCK


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test on a - b.

    The p-value is :func:`t_two_sided_p` at n - 1 degrees of freedom;
    ``significant`` applies the 0.05 threshold.  Identical difference
    vectors (zero variance) are an error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ValidationError("paired test needs two equal-length vectors (n >= 2)")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValidationError("paired differences have zero variance")
    n = d.shape[0]
    t = float(d.mean() / (sd / math.sqrt(n)))
    p = t_two_sided_p(t, n - 1)
    return TTestResult(t, p, p < SIGNIFICANCE_LEVEL)


def write_reports(reports, per_repeat_path, summary_path,
                  delimiter: str = ",") -> None:
    """Export long-format per-repeat correlations plus per-method summaries."""
    from .tables import fmt, write_table

    long_rows = []
    summary_rows = []
    for report in reports:
        long_rows.extend(
            [str(i), report.method_tag, fmt(r)]
            for i, r in enumerate(report.per_repeat_test_r)
        )
        summary_rows.append([report.method_tag, fmt(report.mean_r),
                             fmt(report.std_r), str(report.repeats)])
    write_table(per_repeat_path, list(PER_REPEAT_COLUMNS), long_rows, delimiter)
    write_table(summary_path, list(SUMMARY_COLUMNS), summary_rows, delimiter)


def write_t_tests(reports, path, delimiter: str = ",") -> None:
    """Export pairwise paired t-tests between all report pairs.

    When two methods score identically on every repeat the statistic is
    undefined; the pair still gets a row, with empty t/p cells and
    ``significant`` set from the constant difference (``no`` for a zero
    gap, ``yes`` for a nonzero one, where the t statistic diverges).
    """
    from .tables import fmt, write_table

    rows = []
    for i, ra in enumerate(reports):
        for rb in reports[i + 1:]:
            a = ra.per_repeat_test_r
            b = rb.per_repeat_test_r
            if (a.shape == b.shape and a.shape[0] >= 2
                    and float(np.std(a - b, ddof=1)) == 0.0):
                sig = "no" if float(a[0] - b[0]) == 0.0 else "yes"
                rows.append([ra.method_tag, rb.method_tag, "", "", sig])
                continue
            t, p, sig = paired_t_test(a, b)
            rows.append([ra.method_tag, rb.method_tag, fmt(t), fmt(p),
                         "yes" if sig else "no"])
    write_table(path, list(TTEST_COLUMNS), rows, delimiter)
