"""What the benchmark harness under ``perfbench/`` needs from the package.

The harness traces the package from outside: ``tracing.Tracer.install``
looks up every traced function by module and attribute name, and
``workloads.Chain`` builds each stage's command line.  A rename in the
package breaks every benchmark run, so both are checked here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import coresponse.cli as cli
from coresponse import evaluation, importance, model_select
from coresponse.analytics import LOUVAIN_RESTARTS, louvain
from coresponse.ga import OptimizerConfig
from coresponse.network import CoOccurrenceNetwork

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads
    yield tracing, workloads
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def package_attributes():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "coresponse" or name.startswith("coresponse.")
            for attr, value in vars(module).items() if callable(value)}


class TestTracer:
    def test_every_target_resolves_and_uninstall_restores(self, harness):
        tracing, _ = harness
        before = package_attributes()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.louvain is not louvain
        finally:
            tracer.uninstall()
        assert package_attributes() == before

    def test_louvain_restarts_are_counted(self, harness):
        tracing, _ = harness
        A = np.zeros((6, 6))
        for a, b in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]:
            A[a, b] = A[b, a] = 1.0
        net = CoOccurrenceNetwork(A, tuple(f"t{i}" for i in range(6)))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli.louvain(net, 1.0, seed=0)
        finally:
            tracer.uninstall()
        metrics, _ = tracing.layer_metrics(tracer)
        assert metrics["analytics.louvain_restarts"] == LOUVAIN_RESTARTS
        assert metrics["analytics.edges"] == 7


def traced(tracing, call):
    """Per-layer metrics of one call made with the tracer installed."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer)[0]


def search_data():
    rng = np.random.default_rng(0)
    M = rng.uniform(0, 3, size=(40, 8))
    y = M[:, [1, 5]].sum(axis=1) + rng.normal(0, 0.3, size=40)
    return M, y


FAST = dict(population_size=20, max_generations=5, stagnation_limit=3)


@pytest.mark.parametrize("threads", [1, 2])
class TestRepeatedSearchCounts:
    """Every repeated search goes through the traced run_ga and parallel_map,
    so ga.runs, utils.parallel_items and model_select.mu_sweep_runs count
    the jobs of each orchestrator."""

    def check(self, metrics, runs, mu_sweep_runs=0):
        assert metrics["ga.runs"] == runs
        assert metrics["utils.parallel_items"] == runs
        assert metrics["model_select.mu_sweep_runs"] == mu_sweep_runs

    def test_sweep_k(self, harness, threads):
        M, y = search_data()
        cfg = OptimizerConfig(k_opt=2, **FAST)
        metrics = traced(harness[0], lambda: model_select.sweep_k(
            M, y, (2, 4), 2, cfg, threads=threads))
        self.check(metrics, 3 * 2)

    def test_mu_sweep(self, harness, threads):
        M, y = search_data()
        cfg = OptimizerConfig(**FAST)
        metrics = traced(harness[0], lambda: model_select.mu_sweep(
            M, y, (0.1, 0.05, 0.01), cfg, n_strata=4, inner_repeats=2,
            threads=threads))
        self.check(metrics, 3 * 2, 3 * 2)

    def test_evaluate_method(self, harness, threads):
        M, y = search_data()
        cfg = OptimizerConfig(**FAST)
        metrics = traced(harness[0], lambda: evaluation.evaluate_method(
            M, y, cfg, 3, method_tag="baseline_l1", n_strata=4,
            mu_grid=(0.1, 0.01), inner_repeats=2, threads=threads))
        # per repeat: 2 mu x 2 inner splits to tune, then the held-out run
        self.check(metrics, 3 * (2 * 2 + 1), 3 * 2 * 2)

    def test_discover_importance(self, harness, threads):
        M, y = search_data()
        cfg = OptimizerConfig(k_opt=2, **FAST)
        metrics = traced(harness[0], lambda: importance.discover_importance(
            M, y, cfg, 4, threads=threads))
        self.check(metrics, 4)


class TestOneConvolutionPerCommand:
    """A command convolves its data once, however many searches read it."""

    @pytest.fixture
    def bundle(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(["synth", "--n-samples", "40", "--n-taxa", "12",
                         "--n-blocks", "3", "--planted", "0,1",
                         "--out", str(data)]) == 0
        return ["--abundance", str(data / "abundance.csv"),
                "--function", str(data / "function.csv"),
                "--adjacency", str(data / "adjacency.csv")]

    def convolve_calls(self, tracing, argv):
        codes = []
        metrics = traced(tracing, lambda: codes.append(cli.main(argv)))
        assert codes == [0]
        return metrics["network.convolve_calls"]

    def test_discover_l1_with_mu_tuning(self, harness, bundle, tmp_path):
        argv = ["discover", *bundle, "--mode", "l1", "--mu-grid", "0.1,0.05",
                "--runs", "2", "--population-size", "20",
                "--max-generations", "5", "--stagnation-limit", "3",
                "--out", str(tmp_path / "discover")]
        assert self.convolve_calls(harness[0], argv) == 1

    def test_evaluate_two_graph_methods(self, harness, bundle, tmp_path):
        argv = ["evaluate", *bundle, "--methods", "convolved,convolved_l1",
                "--k", "2", "--mu-grid", "0.1,0.05", "--repeats", "2",
                "--strata", "4", "--population-size", "20",
                "--max-generations", "5", "--stagnation-limit", "3",
                "--out", str(tmp_path / "evaluate")]
        assert self.convolve_calls(harness[0], argv) == 1


class TestWorkloadArguments:
    @pytest.mark.parametrize("name", ["quickstart", "scale", "inferred"])
    def test_every_stage_parses(self, harness, tmp_path, name):
        _, workloads = harness
        it = tmp_path / "it"
        (it / "sweep").mkdir(parents=True)
        (it / "sweep" / "chosen_k.txt").write_text("6\n")
        chain = workloads.Chain(workloads.WORKLOADS[name], 1,
                                tmp_path / "inp", it)
        argvs = [make_argv() for _, make_argv in chain.stages()]
        argvs += [chain.quality_sweep(), chain.rescore(1)]
        parser = cli.build_parser()
        for argv in argvs:
            args = parser.parse_args(argv)
            assert args.command == argv[0]
