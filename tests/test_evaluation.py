"""Stratified splitting, repeated held-out evaluation and paired t-tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from coresponse.errors import ValidationError
from coresponse.evaluation import (EvaluationReport, SplitPlan, TTestResult,
                                   convolved_matrix, evaluate_method,
                                   paired_t_test, stratified_split,
                                   t_two_sided_p, write_reports,
                                   write_t_tests)
from coresponse.ga import OptimizerConfig
from coresponse.ingest import AbundanceMatrix, FunctionalVariable
from coresponse.network import CoOccurrenceNetwork


class TestStratifiedSplit:
    def test_disjoint_cover(self):
        y = np.random.default_rng(0).normal(size=37)
        plan = stratified_split(y, 0.5, 10, seed=3)
        union = np.sort(np.concatenate([plan.train_indices,
                                        plan.test_indices]))
        np.testing.assert_array_equal(union, np.arange(37))

    def test_even_strata_split_one_one(self):
        # 20 samples in 10 bins: every adjacent sorted pair contributes one
        # sample to each side
        y = np.random.default_rng(1).normal(size=20)
        plan = stratified_split(y, 0.5, 10, seed=0)
        assert plan.train_indices.shape == (10,)
        assert plan.test_indices.shape == (10,)
        order = np.argsort(y, kind="stable")
        train = set(plan.train_indices.tolist())
        for pair in order.reshape(10, 2):
            assert sum(int(i) in train for i in pair) == 1

    def test_train_sizes_stable_across_seeds(self):
        y = np.random.default_rng(2).normal(size=40)
        sizes = {
            stratified_split(y, 0.5, 10, seed=s).train_indices.shape[0]
            for s in range(100)
        }
        assert sizes == {20}

    def test_deterministic(self):
        y = np.random.default_rng(3).normal(size=30)
        a = stratified_split(y, 0.5, 10, seed=7)
        b = stratified_split(y, 0.5, 10, seed=7)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)

    def test_seed_changes_assignment(self):
        y = np.random.default_rng(4).normal(size=30)
        a = stratified_split(y, 0.5, 10, seed=0)
        b = stratified_split(y, 0.5, 10, seed=1)
        assert not np.array_equal(a.train_indices, b.train_indices)

    def test_accepts_functional_variable(self):
        y = np.random.default_rng(5).normal(size=24)
        fv = FunctionalVariable(y, "activity")
        plan = stratified_split(fv.values, 0.5, 6, seed=0)
        assert plan.train_indices.size + plan.test_indices.size == 24

    def test_rounded_share_per_stratum(self):
        # fraction 0.7 on strata of 2 rounds to 1 train sample per stratum
        y = np.random.default_rng(6).normal(size=20)
        plan = stratified_split(y, 0.7, 10, seed=0)
        assert plan.train_indices.shape[0] == 10

    def test_empty_side_is_an_error(self):
        # fraction 0.75 on strata of 2 rounds every sample into train
        y = np.random.default_rng(7).normal(size=20)
        with pytest.raises(ValidationError, match="empty side"):
            stratified_split(y, 0.75, 10, seed=0)

    def test_singleton_strata_alternate(self):
        y = np.arange(5.0)
        with pytest.warns(UserWarning, match="single sample"):
            plan = stratified_split(y, 0.5, 5, seed=0)
        assert plan.train_indices.shape[0] == 3  # train, test, train, ...
        assert plan.test_indices.shape[0] == 2

    def test_fraction_bounds(self):
        y = np.arange(10.0)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError, match="fraction"):
                stratified_split(y, bad, 5, seed=0)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError, match="at least 2"):
            stratified_split(np.array([1.0]), 0.5, 1, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 60), frac=st.floats(0.2, 0.8),
           strata=st.integers(1, 12), seed=st.integers(0, 2**20))
    def test_always_disjoint_cover(self, n, frac, strata, seed):
        y = np.random.default_rng(n * 31 + strata).normal(size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                plan = stratified_split(y, frac, strata, seed=seed)
            except ValidationError:
                return  # an empty side is a legitimate refusal
        union = np.sort(np.concatenate([plan.train_indices,
                                        plan.test_indices]))
        np.testing.assert_array_equal(union, np.arange(n))
        overlap = np.intersect1d(plan.train_indices, plan.test_indices)
        assert overlap.size == 0


class TestSplitPlanValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="disjointly"):
            SplitPlan(np.array([0, 1]), np.array([1, 2]))

    def test_gap_rejected(self):
        with pytest.raises(ValidationError, match="disjointly"):
            SplitPlan(np.array([0, 1]), np.array([3]))

    def test_valid_plan(self):
        plan = SplitPlan(np.array([0, 2]), np.array([1, 3]))
        np.testing.assert_array_equal(plan.train_indices, [0, 2])
        np.testing.assert_array_equal(plan.test_indices, [1, 3])


class TestPairedTTest:
    def test_textbook_differences(self):
        # d = 1..5: mean 3, sd sqrt(2.5), t = 3*sqrt(2)
        res = paired_t_test(np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                            np.zeros(5))
        np.testing.assert_allclose(res.t, 3.0 * np.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(res.p, 0.0132355995637, rtol=1e-9)
        assert res.significant

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = rng.integers(3, 40)
            a = rng.normal(size=n)
            b = a + rng.normal(0.1, 0.5, size=n)
            res = paired_t_test(a, b)
            t_ref, p_ref = stats.ttest_rel(a, b)
            np.testing.assert_allclose(res.t, t_ref, rtol=1e-10)
            np.testing.assert_allclose(res.p, p_ref, rtol=1e-10)

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        ab = paired_t_test(a, b)
        ba = paired_t_test(b, a)
        np.testing.assert_allclose(ab.t, -ba.t, rtol=1e-12)
        np.testing.assert_allclose(ab.p, ba.p, rtol=1e-12)

    def test_identical_vectors_rejected(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="zero variance"):
            paired_t_test(a, a)

    def test_constant_shift_rejected(self):
        # a constant nonzero difference also has zero variance
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="zero variance"):
            paired_t_test(a, a + 1.0)

    def test_clear_shift_significant(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=30)
        b = a - 1.0 + rng.normal(0, 0.05, size=30)
        res = paired_t_test(a, b)
        assert res.t > 0 and res.significant

    def test_pure_noise_rarely_significant(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(60):
            a = rng.normal(size=20)
            b = rng.normal(size=20)
            if paired_t_test(a, b).significant:
                hits += 1
        assert hits <= 10  # ~5% expected under the null

    def test_result_type(self):
        res = paired_t_test(np.array([1.0, 2.0, 4.0]), np.array([0.5, 1.0, 2.0]))
        assert isinstance(res, TTestResult)
        assert 0.0 <= res.p <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            paired_t_test(np.arange(4.0), np.arange(5.0))


def t_grid(df):
    """|t| values whose two-sided p runs from 1 down to 1e-300.

    They are the t of p = 1, 0.5, 0.2, 0.08, 1e-2, 1e-4, 1e-8, 1e-12,
    1e-20, 1e-50, 1e-100, 1e-200 and 1e-300, plus the two t on either
    side of where ``t_two_sided_p`` changes series, x = (a+1)/(a+5/2).
    At df=1 the t of the smallest p underflow x = df/(df + t²) to 0, and
    p is 0 on both sides there.
    """
    ps = np.array([1.0, 0.5, 0.2, 0.08, 1e-2, 1e-4, 1e-8, 1e-12, 1e-20,
                   1e-50, 1e-100, 1e-200, 1e-300])
    switch = np.sqrt(1.5 * df / (df / 2 + 1))
    return np.concatenate([np.abs(special.stdtrit(df, ps / 2)),
                           switch * np.array([1 - 1e-9, 1 + 1e-9])])


def betainc_oracle(t, df):
    t = float(t)
    return float(special.betainc(df / 2, 0.5, df / (df + t * t)))


class TestTTail:
    # The closed forms are written without the cancellation of 1 - ... in
    # the tail: 1 - (2/pi) atan t = (2/pi) atan(1/t), and
    # 1 - t/s = 2 / (s (s + t)) with s = sqrt(2 + t^2).

    def test_df1_is_the_cauchy_tail(self):
        for t in (0.01, 0.3, 1.0, 2.5, 10.0, 300.0, 1e6):
            np.testing.assert_allclose(
                t_two_sided_p(t, 1), 2 / np.pi * np.arctan(1 / t), rtol=1e-14)

    def test_df2_closed_form(self):
        for t in (0.01, 0.3, 1.0, 2.5, 10.0, 300.0, 1e6):
            s = np.sqrt(2 + t * t)
            np.testing.assert_allclose(
                t_two_sided_p(t, 2), 2 / (s * (s + t)), rtol=1e-14)

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 99, 1000])
    def test_zero_t_gives_one(self, df):
        assert t_two_sided_p(0.0, df) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 99, 1000])
    def test_symmetric_in_t(self, df):
        for t in (1e-6, 0.4, 1.9, 7.0, 40.0):
            assert t_two_sided_p(-t, df) == t_two_sided_p(t, df)

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 99, 1000])
    def test_decreasing_in_abs_t(self, df):
        p = [t_two_sided_p(t, df) for t in np.linspace(0.0, 30.0, 1501)]
        assert np.all(np.diff(p) < 0)

    def test_infinite_t_gives_zero(self):
        assert t_two_sided_p(np.inf, 5) == 0.0
        assert t_two_sided_p(-np.inf, 5) == 0.0

    @pytest.mark.parametrize("df", [0, -3, 2.5])
    def test_bad_df_rejected(self, df):
        with pytest.raises(ValidationError, match="degrees of freedom"):
            t_two_sided_p(1.0, df)

    def test_matches_betainc_for_df_up_to_1000(self):
        for df in range(1, 1001):
            for t in t_grid(df):
                np.testing.assert_allclose(t_two_sided_p(t, df),
                                           betainc_oracle(t, df),
                                           rtol=1e-12, atol=0, err_msg=f"df={df}")

    def test_matches_betainc_tightly_at_small_df(self):
        for df in range(1, 101):
            for t in t_grid(df):
                ref = betainc_oracle(t, df)
                if ref >= 1e-12:
                    np.testing.assert_allclose(t_two_sided_p(t, df), ref,
                                               rtol=1e-13, atol=0,
                                               err_msg=f"df={df}")


class TestEvaluationReport:
    def test_summary_recomputed(self):
        r = np.array([0.4, 0.6, 0.8])
        rep = EvaluationReport(r, "baseline")
        np.testing.assert_allclose(rep.mean_r, 0.6, rtol=1e-15)
        np.testing.assert_allclose(rep.std_r, np.std(r, ddof=1), rtol=1e-15)
        assert rep.repeats == 3

    def test_single_repeat_std_zero(self):
        rep = EvaluationReport(np.array([0.7]), "convolved")
        assert rep.std_r == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EvaluationReport(np.array([]), "baseline")


def planted(seed, n=60, p=8, col=3, noise=0.1):
    rng = np.random.default_rng(seed)
    H = rng.uniform(0, 3, size=(n, p))
    y = H[:, col] + rng.normal(0, noise, size=n)
    return H, y


def tiny_cfg(**kw):
    base = dict(k_opt=1, population_size=40,
                max_generations=25, stagnation_limit=10, seed=0)
    base.update(kw)
    return OptimizerConfig(**base)


def abundance(H):
    n, p = H.shape
    return AbundanceMatrix(H, tuple(f"s{i}" for i in range(n)),
                           tuple(f"t{j}" for j in range(p)))


def zero_graph(labels):
    return CoOccurrenceNetwork(np.zeros((len(labels), len(labels))), labels)


class TestConvolvedMatrix:
    def test_none_is_passthrough(self):
        H, _ = planted(0)
        out = convolved_matrix(abundance(H), None)
        np.testing.assert_array_equal(out, H)

    def test_zero_adjacency_matches_passthrough(self):
        H, _ = planted(1)
        m = abundance(H)
        out = convolved_matrix(m, zero_graph(m.taxon_labels))
        np.testing.assert_array_equal(out, H)

    # a network over fewer taxa than the matrix also has different labels
    @pytest.mark.parametrize("pick", [lambda t: t[::-1], lambda t: t[:5]],
                             ids=["reordered", "subset"])
    def test_label_mismatch(self, pick):
        H, _ = planted(2)
        m = abundance(H)
        with pytest.raises(ValidationError, match="labels"):
            convolved_matrix(m, zero_graph(pick(m.taxon_labels)))


class TestEvaluateMethod:
    def test_baseline_recovers_planted_taxon(self):
        H, y = planted(10)
        cfg = tiny_cfg(population_size=80, max_generations=40,
                       stagnation_limit=20)
        report = evaluate_method(H, y, cfg, repeats=4, method_tag="baseline")
        assert report.method_tag == "baseline"
        assert report.mean_r > 0.9
        assert report.repeats == 4

    def test_zero_graph_equals_baseline_exactly(self):
        # the identity operator makes the convolved method the baseline;
        # shared split seeds then produce bitwise-identical correlations
        H, y = planted(11)
        base = evaluate_method(H, y, tiny_cfg(), repeats=3,
                               method_tag="baseline")
        m = abundance(H)
        conv = evaluate_method(convolved_matrix(m, zero_graph(m.taxon_labels)),
                               y, tiny_cfg(), repeats=3,
                               method_tag="convolved")
        np.testing.assert_array_equal(base.per_repeat_test_r,
                                      conv.per_repeat_test_r)
        assert conv.method_tag == "convolved"

    def test_deterministic(self):
        H, y = planted(12)
        a = evaluate_method(H, y, tiny_cfg(seed=4), repeats=3,
                            method_tag="baseline")
        b = evaluate_method(H, y, tiny_cfg(seed=4), repeats=3,
                            method_tag="baseline")
        np.testing.assert_array_equal(a.per_repeat_test_r, b.per_repeat_test_r)

    def test_thread_count_invariant(self):
        H, y = planted(13)
        serial = evaluate_method(H, y, tiny_cfg(), repeats=4,
                                 method_tag="baseline")
        threaded = evaluate_method(H, y, tiny_cfg(), repeats=4,
                                   method_tag="baseline", threads=4)
        np.testing.assert_array_equal(serial.per_repeat_test_r,
                                      threaded.per_repeat_test_r)

    def test_l1_with_inner_tuning(self):
        H, y = planted(14)
        cfg = tiny_cfg(k_opt=None)
        report = evaluate_method(H, y, cfg, repeats=2,
                                 mu_grid=(0.5, 0.05),
                                 method_tag="baseline_l1")
        assert report.method_tag == "baseline_l1"
        assert np.isfinite(report.per_repeat_test_r).all()

    def test_capped_config_with_mu_grid_rejected(self):
        # tuning mu needs an uncapped config
        H, y = planted(14)
        with pytest.raises(ValidationError, match="uncapped"):
            evaluate_method(H, y, tiny_cfg(), repeats=2, mu_grid=(0.5, 0.05),
                            method_tag="baseline")

    def test_explicit_tag_respected(self):
        H, y = planted(15)
        report = evaluate_method(H, y, tiny_cfg(), repeats=2,
                                 method_tag="custom")
        assert report.method_tag == "custom"

    def test_sample_mismatch(self):
        H, y = planted(16)
        with pytest.raises(ValidationError, match="sample counts"):
            evaluate_method(H, y[:-1], tiny_cfg(), repeats=2,
                            method_tag="baseline")


class TestExports:
    def test_report_files(self, tmp_path):
        reports = [EvaluationReport(np.array([0.5, 0.7]), "baseline"),
                   EvaluationReport(np.array([0.8, 0.9]), "convolved")]
        per_path = tmp_path / "per_repeat.csv"
        sum_path = tmp_path / "summary.csv"
        write_reports(reports, per_path, sum_path)
        per_lines = per_path.read_text().strip().splitlines()
        assert per_lines[0] == "repeat,method,test_r"
        assert len(per_lines) == 1 + 4
        sum_lines = sum_path.read_text().strip().splitlines()
        assert sum_lines[0] == "method,mean_r,std_r,repeats"
        assert sum_lines[1].startswith("baseline,0.6,")

    def test_t_test_file(self, tmp_path):
        rng = np.random.default_rng(0)
        base = rng.normal(0.5, 0.1, size=10)
        reports = [EvaluationReport(base, "baseline"),
                   EvaluationReport(base + rng.normal(0.3, 0.05, 10),
                                    "convolved")]
        path = tmp_path / "tests.csv"
        write_t_tests(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method_a,method_b,t,p,significant"
        assert len(lines) == 2
        assert lines[1].split(",")[-1] in {"yes", "no"}

    def test_identical_methods_get_degenerate_row(self, tmp_path):
        # two methods finding the same group on every split tie exactly;
        # the pair is reported with empty statistics, not an error
        rng = np.random.default_rng(4)
        scores = rng.normal(0.9, 0.02, size=8)
        reports = [EvaluationReport(scores, "convolved"),
                   EvaluationReport(scores.copy(), "convolved_l1")]
        path = tmp_path / "tests.csv"
        write_t_tests(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "convolved,convolved_l1,,,no"

    def test_constant_gap_is_flagged_significant(self, tmp_path):
        # a constant nonzero gap has zero variance but a diverging t;
        # eighths keep the +0.25 shift exact so the gap is truly constant
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 8, size=6) / 8.0
        reports = [EvaluationReport(scores + 0.25, "convolved"),
                   EvaluationReport(scores, "baseline")]
        path = tmp_path / "tests.csv"
        write_t_tests(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "convolved,baseline,,,yes"
