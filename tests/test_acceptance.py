"""End-to-end acceptance gate for the co-response discovery pipeline.

Each test checks one shippable property, prints exactly one ``[PASS]`` /
``[FAIL]`` line (run ``pytest -s tests/test_acceptance.py`` to see them
inline) and then asserts, so the suite doubles as a release checklist.
Every expected value comes from an independent oracle — naive loops,
exhaustive enumeration, closed-form algebra or hand-worked examples —
never from the code under test, and the stated runtime budgets are part
of the assertions.
"""

import itertools
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from coresponse._kernels import prefers_gathered
from coresponse.analytics import centralities, louvain, modularity
from coresponse.cli import main
from coresponse.evaluation import evaluate_method, paired_t_test
from coresponse.ga import GroupChromosome, Objective, OptimizerConfig, run_ga
from coresponse.importance import aggregate_importance
from coresponse.ingest import AbundanceMatrix
from coresponse.model_select import DEFAULT_MU_GRID, mu_sweep, sweep_k
from coresponse.network import CoOccurrenceNetwork, convolve, write_adjacency
from coresponse.synth import SynthSpec, generate, write_bundle
from coresponse.utils import child_int, pearson


def report(num: int, name: str, ok: bool, detail: str) -> None:
    """Print the gate's verdict line, then enforce it."""
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}")
    assert ok, f"acceptance gate {num:02d} ({name}) failed: {detail}"


def recovery_spec(seed: int, **overrides) -> SynthSpec:
    """Synthetic family shared by the recovery/selection/evaluation gates.

    Moderate block mixing keeps every planted member individually
    informative after convolution — under heavy mixing, proper subsets of
    the planted group reach the same correlation and exact membership
    stops being identifiable — while the graph still moves enough signal
    off the raw columns for the convolved search to beat the identity
    baseline.
    """
    params = dict(n_samples=100, n_taxa=60, n_blocks=4,
                  intra_block_weight=0.2, inter_block_weight=0.05,
                  planted_group=tuple(range(6)), noise_sigma=0.05, seed=seed)
    params.update(overrides)
    return SynthSpec(**params)


def naive_convolve(H: list, A: list) -> list:
    """Reference convolution as explicit Python loops on nested lists."""
    n, p = len(H), len(A)
    ah = [[A[i][j] + (1.0 if i == j else 0.0) for j in range(p)]
          for i in range(p)]
    d = [sum(row) for row in ah]
    s = [[ah[i][j] / math.sqrt(d[i] * d[j]) for j in range(p)]
         for i in range(p)]
    out = [[0.0] * p for _ in range(n)]
    for i in range(n):
        hi, oi = H[i], out[i]
        for k in range(p):
            hik = hi[k]
            sk = s[k]
            for j in range(p):
                oi[j] += hik * sk[j]
    return out


def dir_files(path: Path) -> dict:
    """Map file name -> bytes for every regular file in a directory."""
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())
            if f.is_file()}


def same_files(a: Path, b: Path, *, ignore=()) -> tuple[bool, str]:
    """Byte-compare two output directories, minus the ignored names."""
    fa, fb = dir_files(a), dir_files(b)
    for name in ignore:
        fa.pop(name, None)
        fb.pop(name, None)
    if fa.keys() != fb.keys():
        return False, f"file sets differ: {sorted(fa)} vs {sorted(fb)}"
    for name in fa:
        if fa[name] != fb[name]:
            return False, f"{name} differs"
    return True, f"{len(fa)} files identical"


class TestAcceptanceGate:
    def test_01_convolution_matches_naive_oracle(self):
        """100 random matrix/graph pairs agree with a triple-loop oracle."""
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 31))
            p = int(rng.integers(2, 31))
            H = rng.random((n, p))
            W = rng.random((p, p))
            A = (W + W.T) / 2.0
            np.fill_diagonal(A, 0.0)
            labels = tuple(f"t{i}" for i in range(p))
            matrix = AbundanceMatrix(
                values=H, sample_ids=tuple(f"s{i}" for i in range(n)),
                taxon_labels=labels)
            net = CoOccurrenceNetwork(adjacency=A, taxon_labels=labels)
            got = convolve(matrix, net)
            want = np.array(naive_convolve(H.tolist(), A.tolist()))
            worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12 and elapsed < 1.0
        report(1, "convolution oracle", ok,
               f"max abs err {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")

    def test_02_zero_graph_pipeline_equals_no_graph_baseline(
            self, tmp_path, run_recorded):
        """An all-zero graph reproduces the graph-free path bit for bit."""
        start = time.perf_counter()
        spec = recovery_spec(0, n_samples=40, n_taxa=12, n_blocks=3,
                             planted_group=(0, 1, 2), noise_sigma=0.1)
        bundle = generate(spec)
        H, y = bundle.abundance, bundle.function.values
        zero_net = CoOccurrenceNetwork(
            adjacency=np.zeros((12, 12)), taxon_labels=H.taxon_labels)
        conv = convolve(H, zero_net)

        same_matrix = np.array_equal(conv, H.values)

        cfg = OptimizerConfig(k_opt=3, seed=42)
        y0 = y - y.mean()
        ga_conv, pops_conv = run_recorded(conv - conv.mean(axis=0), y0, cfg)
        ga_raw, pops_raw = run_recorded(H.values - H.values.mean(axis=0), y0,
                                        cfg)
        same_pops = (
            len(pops_conv) == len(pops_raw) == len(ga_conv.history)
            and all(np.array_equal(a, b) for a, b in
                    zip(pops_conv, pops_raw)))
        same_history = np.array_equal(ga_conv.history, ga_raw.history)
        same_best = (
            np.array_equal(ga_conv.best.bits, ga_raw.best.bits)
            and ga_conv.best_eval == ga_raw.best_eval)

        paths = write_bundle(bundle, tmp_path / "data")
        zeros_path = tmp_path / "zeros.csv"
        write_adjacency(zero_net, zeros_path)
        base_argv = ["discover", "--abundance", str(paths["abundance"]),
                     "--function", str(paths["function"]),
                     "--k", "3", "--runs", "6", "--seed", "11"]
        out_zero = tmp_path / "out_zero"
        out_flag = tmp_path / "out_flag"
        assert main(base_argv + ["--adjacency", str(zeros_path),
                                 "--out", str(out_zero)]) == 0
        assert main(base_argv + ["--no-graph", "--out", str(out_flag)]) == 0
        # resolved_config.txt echoes the differing flags by design.
        same_cli, cli_detail = same_files(out_zero, out_flag,
                                          ignore=("resolved_config.txt",))
        elapsed = time.perf_counter() - start

        ok = (same_matrix and same_pops and same_history and same_best
              and same_cli and elapsed < 10.0)
        report(2, "identity-graph equivalence", ok,
               f"matrix={same_matrix} populations={same_pops} "
               f"history={same_history} best={same_best} "
               f"cli[{cli_detail}], {elapsed:.1f}s (< 10s)")

    def test_03_ga_best_matches_exhaustive_enumeration(self):
        """The capped search finds the true optimum over all small groups."""
        start = time.perf_counter()
        hits = 0
        for seed in range(10):
            bundle = generate(recovery_spec(
                seed, n_samples=40, n_taxa=12, n_blocks=3,
                planted_group=(0, 1, 2), noise_sigma=0.1))
            M = convolve(bundle.abundance, bundle.network)
            y = bundle.function.values
            M0 = M - M.mean(axis=0)
            y0 = y - y.mean()
            cfg = OptimizerConfig(k_opt=3,
                                  seed=child_int(seed, 7))
            found = run_ga(M0, y0, cfg).best_eval.penalized_fitness
            objective = Objective(M0, y0)
            gathered = prefers_gathered(12, cfg.k_opt)
            best = -np.inf
            for size in (1, 2, 3):
                for combo in itertools.combinations(range(12), size):
                    bits = np.zeros(12, dtype=np.uint8)
                    bits[list(combo)] = 1
                    _, pen, _, _ = objective.evaluate(bits[None], cfg,
                                                      gathered)
                    best = max(best, pen[0])
            if abs(found - best) <= 1e-9:
                hits += 1
        elapsed = time.perf_counter() - start
        ok = hits >= 9 and elapsed < 30.0
        report(3, "brute-force optimality", ok,
               f"{hits}/10 optimal (need >= 9, tol 1e-9), "
               f"{elapsed:.1f}s (< 30s)")

    def test_04_l1_discovery_recovers_planted_group(self):
        """Tuned sparse search recovers the planted taxa and their signal."""
        start = time.perf_counter()
        truth = set(range(6))
        jaccards, planted_rs = [], []
        for seed in range(10):
            bundle = generate(recovery_spec(seed))
            M = convolve(bundle.abundance, bundle.network)
            y = bundle.function.values
            cfg = OptimizerConfig(seed=child_int(seed, 17))
            mu = mu_sweep(M, y, DEFAULT_MU_GRID, cfg).chosen_mu
            result = run_ga(M - M.mean(axis=0), y - y.mean(),
                            replace(cfg, mu=mu))
            found = set(result.best.indices().tolist())
            jaccards.append(len(found & truth) / len(found | truth))
            planted_rs.append(pearson(M[:, :6].sum(axis=1), y))
        mean_j = float(np.mean(jaccards))
        mean_r = float(np.mean(planted_rs))
        analytic = 1.0 / math.sqrt(1.0 + 0.05 ** 2)
        elapsed = time.perf_counter() - start
        ok = (mean_j >= 0.8 and mean_r >= 0.99
              and abs(mean_r - analytic) <= 0.005 and elapsed < 120.0)
        report(4, "planted-group recovery", ok,
               f"mean Jaccard {mean_j:.3f} (>= 0.8), planted r {mean_r:.6f} "
               f"vs analytic {analytic:.6f} (>= 0.99, within 0.005), "
               f"{elapsed:.1f}s (< 2min)")

    def test_05_convolved_search_beats_baseline_on_held_out_splits(self):
        """Convolved columns carry the signal the raw baseline misses."""
        start = time.perf_counter()
        bundle = generate(recovery_spec(0))
        H = bundle.abundance.values
        M = convolve(bundle.abundance, bundle.network)
        y = bundle.function.values
        cfg = OptimizerConfig(k_opt=6, seed=123)
        base = evaluate_method(H, y, cfg, repeats=20, fraction=0.5,
                               n_strata=10, method_tag="baseline")
        conv = evaluate_method(M, y, cfg, repeats=20, fraction=0.5,
                               n_strata=10, method_tag="convolved")
        tt = paired_t_test(conv.per_repeat_test_r, base.per_repeat_test_r)
        elapsed = time.perf_counter() - start
        ok = (conv.mean_r > base.mean_r and tt.p < 0.05 and elapsed < 180.0)
        report(5, "convolved-over-baseline gap", ok,
               f"mean test r {conv.mean_r:.4f} vs {base.mean_r:.4f}, "
               f"paired t={tt.t:.2f} p={tt.p:.2e} (< 0.05), "
               f"{elapsed:.1f}s (< 3min)")

    def test_06_aic_sweep_chooses_near_planted_size(self):
        """Model selection lands near the planted group size."""
        start = time.perf_counter()
        chosen = []
        for seed in range(10):
            bundle = generate(recovery_spec(seed))
            M = convolve(bundle.abundance, bundle.network)
            result = sweep_k(
                M, bundle.function.values, (2, 12), repeats=3,
                cfg=OptimizerConfig(k_opt=2,
                                    seed=child_int(seed, 29)))
            chosen.append(result.chosen_k)
        in_range = sum(5 <= k <= 8 for k in chosen)
        elapsed = time.perf_counter() - start
        ok = in_range >= 8 and elapsed < 180.0
        report(6, "size-sweep sanity", ok,
               f"chosen k {chosen}, {in_range}/10 in [5, 8] (need >= 8), "
               f"{elapsed:.1f}s (< 3min)")

    def test_07_surrogate_r_matches_definitional_pearson(self):
        """The fast fitness surrogate is the Pearson correlation."""
        rng = np.random.default_rng(7)
        n, p = 80, 25
        M = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        M0 = M - M.mean(axis=0)
        y0 = y - y.mean()
        cfg = OptimizerConfig(k_opt=p, seed=0)
        bits = (rng.random((1000, p)) < 0.3).astype(np.uint8)
        empty = bits.sum(axis=1) == 0
        bits[empty, rng.integers(0, p, size=int(empty.sum()))] = 1
        objective = Objective(M0, y0)
        gathered = prefers_gathered(p, cfg.k_opt)
        worst = 0.0
        for row in bits:
            surrogate = objective.evaluate(row[None], cfg, gathered)[2][0]
            definitional = float(np.corrcoef(M @ row, y)[0, 1])
            worst = max(worst, abs(surrogate - definitional))
        ok = worst <= 1e-10
        report(7, "fitness/r consistency", ok,
               f"max |surrogate - Pearson| {worst:.2e} over 1000 "
               f"chromosomes (tol 1e-10)")

    def test_08_response_scaling_leaves_search_trajectory_identical(
            self, run_recorded):
        """Scaling y by 10 changes no selection, mutation or outcome."""
        bundle = generate(recovery_spec(
            3, n_samples=40, n_taxa=12, n_blocks=3,
            planted_group=(0, 1, 2), noise_sigma=0.1))
        M = convolve(bundle.abundance, bundle.network)
        y = bundle.function.values
        M0 = M - M.mean(axis=0)
        y0 = y - y.mean()
        cfg = OptimizerConfig(k_opt=3, seed=5)
        ga_a, pops_a = run_recorded(M0, y0, cfg)
        ga_b, pops_b = run_recorded(M0, y0 * 10.0, cfg)
        same_pops = (
            len(pops_a) == len(pops_b) == len(ga_a.history)
            and all(np.array_equal(a, b) for a, b in zip(pops_a, pops_b)))
        same_best = np.array_equal(ga_a.best.bits, ga_b.best.bits)
        # fitness columns scale with y; the correlation columns do not
        r_close = np.allclose(ga_a.history[:, 3:5], ga_b.history[:, 3:5],
                              rtol=0, atol=1e-12)
        ok = same_pops and same_best and r_close
        report(8, "argmax scale invariance", ok,
               f"populations={same_pops} best={same_best} r-history="
               f"{r_close} over {len(pops_a)} generations")

    def test_09_importance_matrix_diagonal_equals_vector(self):
        """diag(L) == I bitwise, and the two-run hand example is exact."""
        rng = np.random.default_rng(9)
        diag_exact = True
        for _ in range(50):
            p = int(rng.integers(1, 40))
            t = int(rng.integers(1, 12))
            runs = [(GroupChromosome(rng.random(p) < 0.4),
                     float(rng.uniform(-1, 1))) for _ in range(t)]
            agg = aggregate_importance(runs)
            if not np.array_equal(np.diag(agg.pair_importance),
                                  agg.taxon_importance):
                diag_exact = False
                break

        hand = aggregate_importance([
            (GroupChromosome(np.array([1, 1, 0])), 0.5),
            (GroupChromosome(np.array([0, 1, 1])), 0.3),
        ])
        want_I = np.array([0.25, (0.5 + 0.3) / 2, 0.15])
        want_L = np.array([[0.25, 0.25, 0.0],
                           [0.25, (0.5 + 0.3) / 2, 0.15],
                           [0.0, 0.15, 0.15]])
        hand_ok = (np.allclose(hand.taxon_importance, want_I,
                               rtol=1e-15, atol=0)
                   and np.allclose(hand.pair_importance, want_L,
                                   rtol=1e-15, atol=0))
        ok = diag_exact and hand_ok
        report(9, "importance algebra", ok,
               f"diag(L)==I bitwise over 50 random aggregations: "
               f"{diag_exact}, hand oracle exact: {hand_ok}")

    def test_10_network_analytics_match_hand_oracles(self):
        """Clustering and closeness agree with hand-computed values."""
        # two disconnected unit triangles: Q = 2*(3/12 - (6/12)^2) = 0.5
        tri = np.zeros((6, 6))
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            tri[a, b] = tri[b, a] = 1.0
        labels6 = tuple(f"t{i}" for i in range(6))
        net6 = CoOccurrenceNetwork(adjacency=tri, taxon_labels=labels6)
        clusters = louvain(net6, seed=0)
        tri_ok = (abs(clusters.modularity_q - 0.5) <= 1e-12
                  and clusters.n_clusters == 2)

        # unit path a-b-c: closeness = mean reciprocal distance
        path = np.array([[0.0, 1.0, 0.0],
                         [1.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0]])
        net3 = CoOccurrenceNetwork(adjacency=path,
                                   taxon_labels=("a", "b", "c"))
        closeness = centralities(net3).closeness
        want = np.array([(1.0 + 0.5) / 2, (1.0 + 1.0) / 2, (1.0 + 0.5) / 2])
        path_ok = bool(np.max(np.abs(closeness - want)) <= 1e-12)

        # recomputing Q from the returned assignment reproduces it
        rng = np.random.default_rng(10)
        W = rng.random((12, 12)) * (rng.random((12, 12)) < 0.3)
        A = (W + W.T) / 2.0
        np.fill_diagonal(A, 0.0)
        net12 = CoOccurrenceNetwork(
            adjacency=A, taxon_labels=tuple(f"t{i}" for i in range(12)))
        result = louvain(net12, seed=1)
        recomputed = modularity(A, result.assignment)
        self_ok = abs(result.modularity_q - recomputed) <= 1e-10

        ok = tri_ok and path_ok and self_ok
        report(10, "analytics oracles", ok,
               f"triangles Q={clusters.modularity_q:.3f}/"
               f"{clusters.n_clusters} clusters: {tri_ok}, path closeness: "
               f"{path_ok}, Q self-consistency: {self_ok}")

    def test_11_cli_reruns_byte_identical_across_thread_counts(self, tmp_path):
        """Equal config and seed give byte-equal outputs at any threads."""
        data = tmp_path / "data"
        synth_argv = ["synth", "--n-samples", "40", "--n-taxa", "12",
                      "--n-blocks", "3", "--intra", "0.2",
                      "--planted", "0,1,2", "--noise-sigma", "0.1",
                      "--seed", "3", "--out", str(data)]
        assert main(synth_argv) == 0
        ab, fn = str(data / "abundance.csv"), str(data / "function.csv")
        adj = str(data / "adjacency.csv")
        fast = ["--population-size", "60", "--max-generations", "60",
                "--stagnation-limit", "15"]
        discover_out = tmp_path / "importance_source"
        assert main(["discover", "--abundance", ab, "--function", fn,
                     "--adjacency", adj, "--k", "3", "--runs", "4",
                     "--seed", "2", "--out", str(discover_out)] + fast) == 0
        nodes = str(discover_out / "importance_nodes.csv")

        commands = {
            "synth": synth_argv[:-2],
            "ingest": ["ingest", "--abundance", ab, "--function", fn],
            "infer-net": ["infer-net", "--abundance", ab],
            "select-k": ["select-k", "--abundance", ab, "--function", fn,
                         "--adjacency", adj, "--k-min", "2", "--k-max", "4",
                         "--repeats", "2", "--seed", "2"] + fast,
            "discover": ["discover", "--abundance", ab, "--function", fn,
                         "--adjacency", adj, "--k", "3", "--runs", "4",
                         "--seed", "2"] + fast,
            "evaluate": ["evaluate", "--abundance", ab, "--function", fn,
                         "--adjacency", adj, "--methods",
                         "baseline,convolved", "--k", "3", "--repeats", "4",
                         "--seed", "2"] + fast,
            "analyze": ["analyze", "--adjacency", adj,
                        "--importance", nodes, "--top-k", "3", "--seed", "2"],
        }

        # only the searching commands take a thread count; the others run
        # a third time without one
        threaded = {"select-k", "discover", "evaluate"}
        failures = []
        checked = 0
        for name, argv in commands.items():
            outs = {}
            for tag, threads in (("a1", 1), ("b1", 1), ("c4", 4)):
                out = tmp_path / f"{name}_{tag}"
                flags = (["--threads", str(threads)] if name in threaded
                         else [])
                assert main(argv + flags + ["--out", str(out)]) == 0
                outs[tag] = out
            # the config snapshot echoes the invocation (--out, --threads),
            # so it is not a numeric output; everything else must match
            rerun_same, d1 = same_files(
                outs["a1"], outs["b1"], ignore=("resolved_config.txt",))
            rerun_threads, d4 = same_files(
                outs["a1"], outs["c4"], ignore=("resolved_config.txt",))
            checked += 1
            if not rerun_same:
                failures.append(f"{name} rerun: {d1}")
            if not rerun_threads:
                failures.append(f"{name} threads 1 vs 4: {d4}")
        ok = not failures
        report(11, "determinism", ok,
               f"{checked}/7 subcommands byte-identical across reruns and "
               f"thread counts" + (f"; {failures}" if failures else ""))
