"""Command line behavior: exit codes, config handling, pipeline wiring."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coresponse
from coresponse import cli
from coresponse.cli import build_parser, main
from coresponse.importance import read_importance
from coresponse.model_select import DEFAULT_MU_GRID

GA_FAST = ["--population-size", "60", "--max-generations", "30",
           "--stagnation-limit", "12"]


def run(argv):
    return main([str(a) for a in argv])


def make_bundle(tmp_path, **kw):
    out = tmp_path / "data"
    argv = ["synth", "--n-samples", 40, "--n-taxa", 12, "--n-blocks", 3,
            "--planted", "0,1", "--noise-sigma", 0.05, "--out", out]
    for key, value in kw.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert run(argv) == 0
    return out


class TestVersionAndUsage:
    def test_version_string(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("coresponse ")
        assert "table format 1" in out

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["ingest"])
        assert exc.value.code == 2


def optional_modules_after(code, cwd):
    """The scipy and networkx modules a fresh interpreter holds after ``code``."""
    script = (code + "\nimport sys\nprint(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('scipy', 'networkx')))")
    src = str(Path(coresponse.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


class TestStartUp:
    """Start-up needs numpy alone; scipy loads only in analyze."""

    def test_import_loads_neither_scipy_nor_networkx(self, tmp_path):
        assert optional_modules_after(
            "import coresponse, coresponse.cli", tmp_path) == "[]"

    def test_numpy_only_commands_load_no_scipy(self, tmp_path):
        fast = ", ".join(repr(a) for a in GA_FAST)
        data = "'--abundance', 'd/abundance.csv', '--function', 'd/function.csv'"
        code = f"""
from coresponse.cli import main
def run(*argv):
    assert main(list(argv)) == 0, argv
run('synth', '--n-samples', '40', '--n-taxa', '12', '--n-blocks', '3',
    '--planted', '0,1', '--out', 'd')
run('ingest', {data}, '--out', 'i')
run('infer-net', '--abundance', 'd/abundance.csv', '--out', 'n')
run('select-k', {data}, '--adjacency', 'd/adjacency.csv', '--k-min', '1',
    '--k-max', '2', '--repeats', '1', '--out', 's', {fast})
run('discover', {data}, '--adjacency', 'd/adjacency.csv', '--k', '2',
    '--runs', '2', '--out', 'k', {fast})
run('discover', {data}, '--adjacency', 'd/adjacency.csv', '--mode', 'l1',
    '--mu-grid', '0.1,0.05', '--runs', '2', '--out', 'l', {fast})
run('evaluate', {data}, '--adjacency', 'd/adjacency.csv',
    '--methods', 'baseline,convolved', '--k', '2', '--repeats', '3',
    '--out', 'e', {fast})
"""
        assert optional_modules_after(code, tmp_path) == "[]"


class TestExitCodes:
    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = run(["ingest", "--abundance", tmp_path / "nope.csv",
                    "--function", tmp_path / "also_nope.csv",
                    "--out", tmp_path / "out"])
        assert code == 3
        assert "missing file" in capsys.readouterr().err

    def test_ragged_table_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample,t1,t2\ns1,1.0\n")
        fn = tmp_path / "fn.csv"
        fn.write_text("sample_id,activity\ns1,1.0\n")
        code = run(["ingest", "--abundance", bad, "--function", fn,
                    "--out", tmp_path / "out"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_latin1_abundance_exits_3(self, tmp_path, capsys):
        data = make_bundle(tmp_path)
        bad = tmp_path / "latin1.csv"
        text = (data / "abundance.csv").read_text()
        bad.write_bytes(text.replace("sample_id", "\xe9chantillon", 1)
                        .encode("latin-1"))
        code = run(["ingest", "--abundance", bad,
                    "--function", data / "function.csv",
                    "--out", tmp_path / "out"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "UTF-8" in err

    @pytest.mark.parametrize("option", ["--abundance", "--adjacency"])
    def test_directory_as_input_exits_3(self, tmp_path, capsys, option):
        data = make_bundle(tmp_path)
        folder = tmp_path / "folder"
        folder.mkdir()
        inputs = {"--abundance": data / "abundance.csv",
                  "--adjacency": data / "adjacency.csv", option: folder}
        code = run(["discover", "--function", data / "function.csv",
                    "--k", 2, "--runs", 1, "--out", tmp_path / "out",
                    *(x for pair in inputs.items() for x in pair)] + GA_FAST)
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {folder}: ")

    def test_latin1_adjacency_exits_3(self, tmp_path, capsys):
        data = make_bundle(tmp_path)
        bad = tmp_path / "latin1_adj.csv"
        bad.write_bytes((data / "adjacency.csv").read_bytes() + b"\xe9\n")
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--adjacency", bad,
                    "--k", 2, "--runs", 1, "--out", tmp_path / "out"]
                   + GA_FAST)
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_negative_abundance_exits_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample,t1,t2\ns1,1.0,-2.0\ns2,2.0,1.0\n")
        fn = tmp_path / "fn.csv"
        fn.write_text("sample_id,activity\ns1,1.0\ns2,2.0\n")
        code = run(["ingest", "--abundance", bad, "--function", fn,
                    "--out", tmp_path / "out"])
        assert code == 4

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_css_scale_exits_4(self, tmp_path, capsys, scale):
        data = make_bundle(tmp_path)
        out = tmp_path / "out"
        code = run(["ingest", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--css-scale", scale, "--out", out])
        assert code == 4
        assert "scale must be finite and > 0" in capsys.readouterr().err
        assert not (out / "abundance_normalized.csv").exists()

    def test_max_iterations_is_not_an_option(self, tmp_path):
        # the loose pass's sweep cap and the finish's KKT tolerance are
        # fixed: the finish's result does not depend on where the pass
        # stopped, and 1e-8 is the tolerance of an exact solve
        ab = self.abundance_file(
            tmp_path, np.random.default_rng(0).uniform(1, 5, (30, 3)))
        config = tmp_path / "run.cfg"
        for key, value in (("max_iterations", 1), ("tolerance", 1e-6)):
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                run(["infer-net", "--abundance", ab, flag, value,
                     "--out", tmp_path / "out"])
            assert exc.value.code == 2
            config.write_text(f"{key}={value}\n")
            assert run(["infer-net", "--abundance", ab, "--config", config,
                        "--out", tmp_path / "out"]) == 3

    @staticmethod
    def abundance_file(tmp_path, values):
        ab = tmp_path / "ab.csv"
        ab.write_text(f"sample,{','.join(f't{j}' for j in range(values.shape[1]))}\n"
                      + "".join(f"s{i},{','.join(map(repr, row))}\n"
                                for i, row in enumerate(values.tolist())))
        return ab

    def test_proportional_taxa_exit_0(self, tmp_path):
        # columns b, 2b, b + noise and two noise columns, default penalties
        rng = np.random.default_rng(0)
        base = rng.uniform(1, 5, size=80)
        values = np.column_stack([base, 2 * base,
                                  base + rng.normal(0, 0.5, 80),
                                  rng.uniform(1, 5, size=(80, 2))])
        code = run(["infer-net", "--abundance",
                    self.abundance_file(tmp_path, values),
                    "--out", tmp_path / "out"])
        assert code == 0
        assert (tmp_path / "out" / "adjacency.csv").exists()

    def test_singular_support_exits_5(self, tmp_path, capsys):
        # four pairs of identical taxa, no ridge term
        rng = np.random.default_rng(0)
        u = rng.uniform(1, 5, size=(40, 4))
        values = np.column_stack([u[:, [0, 0, 1, 1, 2, 2, 3, 3]],
                                  u.sum(axis=1) + rng.normal(0, 0.5, 40)])
        code = run(["infer-net", "--abundance",
                    self.abundance_file(tmp_path, values), "--mu1", 0.01,
                    "--mu2", 0, "--out", tmp_path / "out"])
        assert code == 5
        assert "--mu2 > 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "adjacency.csv").exists()

    @pytest.mark.parametrize("flag", ["--mu1", "--mu2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_inference_setting_exits_4(self, tmp_path, capsys,
                                                   flag, value):
        data = make_bundle(tmp_path)
        code = run(["infer-net", "--abundance", data / "abundance.csv",
                    f"{flag}={value}", "--out", tmp_path / "out"])
        assert code == 4
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "out" / "adjacency.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_mu_exits_4(self, tmp_path, capsys, value):
        data = make_bundle(tmp_path)
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--no-graph",
                    "--mode", "l1", f"--mu={value}", "--runs", 2,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert "mu" in capsys.readouterr().err
        assert not (tmp_path / "out" / "discovery_summary.csv").exists()

    def test_missing_network_choice_exits_4(self, tmp_path, capsys):
        data = make_bundle(tmp_path)
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--k", 2,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert "--no-graph" in capsys.readouterr().err

    def test_size_cap_without_k_exits_4(self, tmp_path, capsys):
        data = make_bundle(tmp_path)
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--no-graph",
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert "--k" in capsys.readouterr().err

    def test_unknown_method_exits_4(self, tmp_path, capsys):
        data = make_bundle(tmp_path)
        code = run(["evaluate", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--methods", "baseline,psychic", "--k", 2,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert "psychic" in capsys.readouterr().err

    def test_repeated_method_exits_4(self, tmp_path, capsys):
        # a method compared with itself gives no paired t-test
        data = make_bundle(tmp_path)
        code = run(["evaluate", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--methods", "baseline,baseline_l1,baseline", "--k", 2,
                    "--mu", 0.01, "--repeats", 2,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        err = capsys.readouterr().err
        assert "repeated" in err and "'baseline'" in err
        assert "baseline_l1" not in err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_k_max_above_taxon_count_exits_4_before_searching(
            self, tmp_path, capsys, monkeypatch):
        # every k past the 12 taxa would repeat the all-taxa search
        data = make_bundle(tmp_path)
        monkeypatch.setattr(cli, "sweep_k", lambda *a, **kw: pytest.fail(
            "select-k searched"))
        code = run(["select-k", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--no-graph",
                    "--k-min", 2, "--k-max", 13,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        err = capsys.readouterr().err
        assert "--k-max 13" in err and "12 taxa" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_k_max_at_taxon_count_is_accepted(self, tmp_path):
        data = make_bundle(tmp_path)
        code = run(["select-k", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--no-graph",
                    "--k-min", 11, "--k-max", 12, "--repeats", 1,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 0
        assert len((tmp_path / "out" / "sweep.csv").read_text()
                   .splitlines()) == 1 + 2

    @pytest.mark.parametrize("k_min, k_max", [(0, 3), (-1, 3), (5, 3)])
    def test_bad_k_min_exits_4_before_the_network_loads(
            self, tmp_path, capsys, monkeypatch, k_min, k_max):
        # the adjacency file is missing, which would exit 3 had it loaded
        for name in ("load_adjacency", "sweep_k"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail(
                "select-k loaded the network or searched"))
        data = make_bundle(tmp_path)
        code = run(["select-k", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--adjacency", tmp_path / "missing.csv",
                    "--k-min", k_min, "--k-max", k_max,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert (f"--k-min must lie in 1..--k-max, got {k_min} with "
                f"--k-max {k_max}") in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("mode", ["size_cap"])
    def test_discover_k_above_taxon_count_exits_4_before_searching(
            self, tmp_path, capsys, monkeypatch, mode):
        # a cap past the 12 taxa would report every taxon as the group
        for name in ("discover_importance", "mu_sweep"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail(
                "discover searched"))
        data = make_bundle(tmp_path)
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--no-graph",
                    "--mode", mode, "--k", 13,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        err = capsys.readouterr().err
        assert "--k 13" in err and "12 taxa" in err
        assert not (tmp_path / "out" / "top_group.csv").exists()

    @pytest.mark.parametrize("methods", ["baseline_l1,baseline",
                                         "baseline,baseline_l1", "baseline"])
    def test_evaluate_k_above_taxon_count_exits_4_before_searching(
            self, tmp_path, capsys, monkeypatch, methods):
        monkeypatch.setattr(cli, "evaluate_method", lambda *a, **kw:
                            pytest.fail("evaluate searched"))
        data = make_bundle(tmp_path)
        code = run(["evaluate", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--methods", methods, "--k", 99, "--mu", 0.01,
                    "--repeats", 2, "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        err = capsys.readouterr().err
        assert "--k 99" in err and "12 taxa" in err
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("command", [
        ["discover", "--mode", "l1", "--runs", 1],
        ["evaluate", "--methods", "baseline_l1,convolved_l1", "--repeats", 2]])
    def test_l1_searches_ignore_k(self, tmp_path, command):
        # no l1 search reads --k, so one past the 12 taxa is no error
        data = make_bundle(tmp_path)
        assert run([*command, "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--adjacency", data / "adjacency.csv", "--mu", 0.05,
                    "--k", 13, "--out", tmp_path / "out"] + GA_FAST) == 0

    def test_k_at_taxon_count_is_accepted(self, tmp_path):
        data = make_bundle(tmp_path)
        common = ["--abundance", data / "abundance.csv",
                  "--function", data / "function.csv", "--k", 12] + GA_FAST
        assert run(["discover", *common, "--no-graph", "--runs", 1,
                    "--out", tmp_path / "d"]) == 0
        assert len((tmp_path / "d" / "top_group.csv").read_text()
                   .splitlines()) == 1 + 12
        assert run(["evaluate", *common, "--methods", "baseline",
                    "--repeats", 1, "--out", tmp_path / "e"]) == 0

    def test_single_repeat_with_two_methods_exits_4_before_searching(
            self, tmp_path, capsys):
        # the paired t-test needs two repeats; the searches must not run
        # first only to fail at the test
        data = make_bundle(tmp_path)
        code = run(["evaluate", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--methods", "baseline,baseline_l1", "--k", 2,
                    "--mu", 0.01, "--repeats", 1,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert "--repeats" in capsys.readouterr().err
        assert not (tmp_path / "out" / "per_repeat.csv").exists()
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("methods", ["baseline_l1,baseline",
                                         "baseline,baseline_l1"])
    def test_capped_method_without_k_exits_4_before_searching(
            self, tmp_path, capsys, monkeypatch, methods):
        # a capped method listed after an l1 one must not wait for the l1
        # evaluation to fail
        calls = []
        monkeypatch.setattr(cli, "evaluate_method",
                            lambda *args, **kwargs: calls.append(args))
        data = make_bundle(tmp_path)
        code = run(["evaluate", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--methods", methods, "--repeats", 2,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert calls == []
        err = capsys.readouterr().err
        assert "--k" in err and "'baseline'" in err
        assert "baseline_l1" not in err

    def test_single_repeat_with_one_method_runs(self, tmp_path):
        data = make_bundle(tmp_path)
        code = run(["evaluate", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--methods", "baseline", "--k", 2, "--repeats", 1,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 0
        assert not (tmp_path / "out" / "ttest.csv").exists()

    def test_graph_method_without_adjacency_exits_4(self, tmp_path, capsys):
        # without a network a graph method would run the baseline under its
        # own label; the error names the flag that supplies one
        data = make_bundle(tmp_path)
        code = run(["evaluate", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--methods", "baseline,convolved", "--k", 2,
                    "--repeats", 2, "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        err = capsys.readouterr().err
        assert "'convolved'" in err and "--adjacency" in err
        assert "baseline'" not in err and "--no-graph" not in err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_non_numeric_importance_exits_3(self, tmp_path, capsys):
        data = make_bundle(tmp_path)
        labels = (data / "adjacency.csv").read_text().split("\n")[0]
        labels = labels.split(",")[1:]
        table = tmp_path / "importance.csv"
        table.write_text("taxon,importance\n" + "".join(
            f"{lab},{'high' if i == 3 else 0.5}\n"
            for i, lab in enumerate(labels)))
        code = run(["analyze", "--adjacency", data / "adjacency.csv",
                    "--importance", table, "--out", tmp_path / "out"])
        assert code == 3
        assert "'high' at row 5, column 2" in capsys.readouterr().err

    def test_importance_table_without_abundance_column(self, tmp_path):
        table = tmp_path / "importance.csv"
        table.write_text("taxon,importance\nA,0.5\nB,0\n")
        labels, importance, mean_abundance = read_importance(table)
        assert labels == ("A", "B")
        assert importance.tolist() == [0.5, 0.0]
        assert mean_abundance is None

    @pytest.mark.parametrize("command", ["discover", "evaluate"])
    def test_default_mu_grid_is_the_library_grid(self, command):
        args = build_parser().parse_args(
            [command, "--abundance", "a.csv", "--function", "f.csv"])
        _, grid = cli._search_config(args, capped=False)
        # bit for bit, so a command reproduces a library run over the grid
        assert grid == DEFAULT_MU_GRID


    @staticmethod
    def importance_table(tmp_path, data):
        labels = (data / "adjacency.csv").read_text().split("\n")[0]
        table = tmp_path / "importance.csv"
        table.write_text("taxon,importance\n" + "".join(
            f"{lab},0.5\n" for lab in labels.split(",")[1:]))
        return table

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_resolution_exits_4(self, tmp_path, capsys, value):
        data = make_bundle(tmp_path)
        code = run(["analyze", "--adjacency", data / "adjacency.csv",
                    "--importance", self.importance_table(tmp_path, data),
                    f"--resolution={value}", "--out", tmp_path / "out"])
        assert code == 4
        assert "resolution" in capsys.readouterr().err
        assert not (tmp_path / "out" / "analysis_summary.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_min_weight_exits_4(self, tmp_path, capsys, value):
        data = make_bundle(tmp_path)
        code = run(["analyze", "--adjacency", data / "adjacency.csv",
                    "--importance", self.importance_table(tmp_path, data),
                    f"--min-weight={value}", "--out", tmp_path / "out"])
        assert code == 4
        assert "min-weight" in capsys.readouterr().err
        assert not (tmp_path / "out" / "analysis_summary.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_display_threshold_exits_4(self, tmp_path, capsys,
                                                  monkeypatch, value):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr("coresponse.cli.discover_importance", no_search)
        data = make_bundle(tmp_path)
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--no-graph",
                    "--k", 2, "--runs", 2, f"--display-threshold={value}",
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert "display-threshold" in capsys.readouterr().err
        assert not (tmp_path / "out" / "group_graph.graphml").exists()

    BAD_TOP_K = [(0, "--top-k must be >= 1"),
                 (13, "--top-k 13 exceeds the 12 taxa")]

    @pytest.mark.parametrize("mode", ["size_cap", "l1"])
    @pytest.mark.parametrize("top_k, message", BAD_TOP_K)
    def test_discover_bad_top_k_exits_4_before_searching(
            self, tmp_path, capsys, monkeypatch, mode, top_k, message):
        for name in ("discover_importance", "mu_sweep"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail(
                "discover searched"))
        data = make_bundle(tmp_path)
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--no-graph",
                    "--mode", mode, "--k", 2, "--top-k", top_k,
                    "--out", tmp_path / "out"] + GA_FAST)
        assert code == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "top_group.csv").exists()

    @pytest.mark.parametrize("top_k, message", BAD_TOP_K)
    def test_analyze_bad_top_k_exits_4_before_clustering(
            self, tmp_path, capsys, monkeypatch, top_k, message):
        for name in ("louvain", "centralities"):
            monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail(
                "analyze clustered"))
        data = make_bundle(tmp_path)
        code = run(["analyze", "--adjacency", data / "adjacency.csv",
                    "--importance", self.importance_table(tmp_path, data),
                    "--top-k", top_k, "--out", tmp_path / "out"])
        assert code == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "analysis_summary.csv").exists()

    # every command's required options; the files need not exist, because
    # the thread count is checked before anything is read
    REQUIRED = {
        "ingest": ["--abundance", "a.csv", "--function", "f.csv"],
        "infer-net": ["--abundance", "a.csv"],
        "select-k": ["--abundance", "a.csv", "--function", "f.csv"],
        "discover": ["--abundance", "a.csv", "--function", "f.csv"],
        "evaluate": ["--abundance", "a.csv", "--function", "f.csv"],
        "analyze": ["--adjacency", "adj.csv", "--importance", "i.csv"],
        "synth": [],
    }

    # every command's settable values: ingest and infer-net draw nothing,
    # and only the searching commands take a thread count
    COMMON = {"out", "config", "delimiter"}
    SEARCH = {"population_size", "max_generations", "stagnation_limit",
              "seed", "threads"}
    OPTIONS = {
        "ingest": COMMON | {"abundance", "function", "orientation",
                            "max_zero_fraction", "css_quantile",
                            "css_scale"},
        "infer-net": COMMON | {"abundance", "mu1", "mu2"},
        "select-k": COMMON | SEARCH | {"abundance", "function", "adjacency",
                                       "no_graph", "k_min", "k_max",
                                       "repeats"},
        "discover": COMMON | SEARCH | {"abundance", "function", "adjacency",
                                       "no_graph", "mode", "k", "mu",
                                       "mu_grid", "runs", "top_k",
                                       "display_threshold"},
        "evaluate": COMMON | SEARCH | {"abundance", "function", "adjacency",
                                       "methods", "k", "mu", "mu_grid",
                                       "repeats", "fraction", "strata",
                                       "inner_repeats"},
        "analyze": COMMON | {"adjacency", "importance", "top_k",
                             "resolution", "min_weight", "seed"},
        "synth": COMMON | {"n_samples", "n_taxa", "n_blocks", "intra",
                           "inter", "planted", "planted_size",
                           "noise_sigma", "seed"},
    }
    THREADED = sorted(c for c, options in OPTIONS.items()
                      if "threads" in options)

    def test_every_command_is_checked(self):
        assert set(self.REQUIRED) == set(build_parser().subcommands)

    def test_option_sets(self):
        options = {name: [action.dest for action in sub._actions
                          if action.dest != "help"]
                   for name, sub in build_parser().subcommands.items()}
        sets = {name: set(dests) for name, dests in options.items()}
        assert sets == self.OPTIONS
        assert sum(map(len, options.values())) == 89

    @pytest.mark.parametrize("command, flag", [
        *((command, "--threads=2")
          for command in ("ingest", "infer-net", "analyze", "synth")),
        ("ingest", "--seed=1"), ("infer-net", "--seed=1"),
        ("evaluate", "--no-graph")])
    def test_removed_flag_exits_2(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            run([command, *self.REQUIRED[command], flag])
        assert exc.value.code == 2

    def test_shared_config_keys_still_run(self, tmp_path):
        # seed, threads and no_graph are read by other commands, so a
        # config file shared across commands may hold them
        data = make_bundle(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text("seed=7\nthreads=2\nno_graph=true\n")
        data_flags = ["--abundance", data / "abundance.csv",
                      "--function", data / "function.csv"]
        for argv in (["ingest", *data_flags],
                     ["infer-net", "--abundance", data / "abundance.csv"],
                     ["evaluate", *data_flags, "--methods", "baseline",
                      "--k", 2, "--repeats", 2, *GA_FAST]):
            out = tmp_path / argv[0]
            assert run([*argv, "--config", config, "--out", out]) == 0
        snapshot = (tmp_path / "evaluate" / "resolved_config.txt").read_text()
        assert "seed=7\n" in snapshot and "threads=2\n" in snapshot
        assert "seed=" not in (tmp_path / "ingest" /
                               "resolved_config.txt").read_text()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("command", THREADED)
    def test_bad_thread_count_exits_4(self, tmp_path, capsys, command,
                                      threads):
        code = run([command, *self.REQUIRED[command], f"--threads={threads}",
                    "--out", tmp_path / "out"])
        assert code == 4
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_thread_count_from_config_exits_4(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("threads=0\n")
        code = run(["select-k", *self.REQUIRED["select-k"], "--config",
                    config, "--out", tmp_path / "out"])
        assert code == 4
        assert "--threads" in capsys.readouterr().err

    def test_row_label_holding_the_output_delimiter_exits_4(self, tmp_path,
                                                             capsys):
        # the sample id is one cell of the tab-separated input, but would be
        # two in the comma-separated output
        abundance = tmp_path / "ab.tsv"
        abundance.write_text("sample_id\ta\tb\ns,1\t1\t2\ns2\t3\t1\n"
                             "s3\t2\t5\n")
        function = tmp_path / "fn.tsv"
        function.write_text("sample_id\tactivity\ns,1\t1\ns2\t2\ns3\t4\n")
        out = tmp_path / "out"
        code = run(["ingest", "--abundance", abundance, "--function", function,
                    "--delimiter", "comma", "--out", out])
        assert code == 4
        assert "'s,1'" in capsys.readouterr().err
        assert not (out / "abundance_normalized.csv").exists()
        # the same input written tab-separated reads back
        assert run(["ingest", "--abundance", abundance, "--function", function,
                    "--delimiter", "tab", "--out", out]) == 0
        assert run(["ingest", "--abundance", out / "abundance_normalized.csv",
                    "--function", out / "function_aligned.csv",
                    "--delimiter", "tab", "--out", tmp_path / "again"]) == 0

    def test_repeated_taxon_label_exits_4(self, tmp_path, capsys):
        adj = tmp_path / "adjacency.csv"
        adj.write_text(",a,b\na,0,1\nb,1,0\n")
        table = tmp_path / "importance.csv"
        table.write_text("taxon,importance\na,0.5\nb,0.25\na,0.75\n")
        code = run(["analyze", "--adjacency", adj, "--importance", table,
                    "--out", tmp_path / "out"])
        assert code == 4
        assert "repeated taxon label 'a'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "clusters.csv").exists()

    def test_repeated_adjacency_label_exits_4(self, tmp_path, capsys):
        # the second 'a' row would otherwise overwrite the first
        adj = tmp_path / "adjacency.csv"
        adj.write_text("taxon,a,b,a\na,0,1,0\nb,1,0,2\na,0,2,0\n")
        table = tmp_path / "importance.csv"
        table.write_text("taxon,importance\na,0.5\nb,0.25\n")
        code = run(["analyze", "--adjacency", adj, "--importance", table,
                    "--out", tmp_path / "out"])
        assert code == 4
        assert "repeated taxon label 'a'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "clusters.csv").exists()

    @pytest.mark.parametrize("weight", ["1e-170", "1e300"])
    def test_extreme_edge_weights_exit_4(self, tmp_path, capsys, weight):
        adj = tmp_path / "edges.csv"
        adj.write_text("source,target,weight\n" + "".join(
            f"t{a},t{a + 1},{weight}\n" for a in range(3)))
        table = tmp_path / "importance.csv"
        table.write_text("taxon,importance\n" + "".join(
            f"t{a},0.5\n" for a in range(4)))
        code = run(["analyze", "--adjacency", adj, "--importance", table,
                    "--out", tmp_path / "out"])
        assert code == 4
        assert "edge weights" in capsys.readouterr().err
        assert not (tmp_path / "out" / "analysis_summary.csv").exists()


def edge_list_text(adjacency_csv):
    """The edge list of a matrix adjacency file, its weights as written."""
    header, *rows = adjacency_csv.read_text().splitlines()
    labels = header.split(",")[1:]
    lines = ["source,target,weight"]
    for i, row in enumerate(rows):
        cells = row.split(",")[1:]
        lines += [f"{labels[i]},{labels[j]},{cells[j]}"
                  for j in range(i + 1, len(labels)) if float(cells[j]) > 0]
    return "\n".join(lines) + "\n"


class TestTextEncoding:
    """Inputs are decoded as UTF-8, a leading byte-order mark skipped, and
    every text output is written as UTF-8 whatever the locale."""

    def test_ingest_writes_utf8_under_an_ascii_locale(self, tmp_path):
        abundance = tmp_path / "abundance.csv"
        abundance.write_text("sample_id,t\u00e9a,b\ns1,1,2\ns2,3,1\ns3,2,5\n",
                             encoding="utf-8")
        function = tmp_path / "function.csv"
        function.write_text("sample_id,activity\ns1,1\ns2,2\ns3,4\n",
                            encoding="utf-8")
        src = str(Path(coresponse.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "POSIX",
               "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "coresponse.cli", "ingest",
             "--abundance", str(abundance), "--function", str(function),
             "--max-zero-fraction", "1", "--out", str(out)],
            env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        header = (out / "abundance_normalized.csv").read_bytes().split(b"\n")[0]
        assert header == "sample_id,t\u00e9a,b".encode("utf-8")
        assert (out / "resolved_config.txt").read_bytes().isascii()

    def test_non_ascii_paths_under_an_ascii_locale(self, tmp_path):
        # the locale cannot decode the path's bytes, so the arguments hold
        # surrogate escapes; the snapshot gets the original bytes back
        data = tmp_path / "d\u00e9"
        data.mkdir()
        (data / "ab.tsv").write_text("sample_id\ta\tb\ns1\t1\t2\n"
                                     "s2\t3\t1\ns3\t2\t5\n")
        (data / "fn.tsv").write_text("sample_id\tactivity\ns1\t1\ns2\t2\n"
                                     "s3\t4\n")
        src = str(Path(coresponse.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "POSIX",
               "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        done = subprocess.run(
            [sys.executable, "-m", "coresponse.cli", "ingest",
             "--abundance", "d\u00e9/ab.tsv", "--function", "d\u00e9/fn.tsv",
             "--out", "d\u00e9/out"],
            cwd=tmp_path, env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        snapshot = (data / "out" / "resolved_config.txt").read_bytes()
        assert "abundance=d\u00e9/ab.tsv\n".encode("utf-8") in snapshot
        assert "out=d\u00e9/out\n".encode("utf-8") in snapshot

    def test_discover_reads_an_edge_list_with_a_byte_order_mark(self,
                                                                tmp_path):
        data = make_bundle(tmp_path)
        text = edge_list_text(data / "adjacency.csv")
        tops = []
        for name, bom in (("plain", ""), ("bom", "\ufeff")):
            edges = tmp_path / f"{name}.csv"
            edges.write_text(bom + text, encoding="utf-8")
            out = tmp_path / name
            assert run(["discover", "--abundance", data / "abundance.csv",
                        "--function", data / "function.csv",
                        "--adjacency", edges, "--k", 2, "--runs", 2,
                        "--out", out] + GA_FAST) == 0
            tops.append((out / "top_group.csv").read_bytes())
        assert tops[0] == tops[1]

    def test_analyze_reads_an_importance_table_with_a_byte_order_mark(
            self, tmp_path):
        data = make_bundle(tmp_path)
        table = TestExitCodes.importance_table(tmp_path, data)
        table.write_text("\ufeff" + table.read_text(), encoding="utf-8")
        assert run(["analyze", "--adjacency", data / "adjacency.csv",
                    "--importance", table, "--out", tmp_path / "out"]) == 0


class TestSynthCommand:
    def test_writes_bundle_and_snapshot(self, tmp_path):
        out = make_bundle(tmp_path)
        for name in ("abundance.csv", "function.csv", "adjacency.csv",
                     "ground_truth.csv", "resolved_config.txt"):
            assert (out / name).exists()

    def test_snapshot_is_sorted_key_value(self, tmp_path):
        out = make_bundle(tmp_path)
        lines = (out / "resolved_config.txt").read_text().strip().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == sorted(keys)
        assert "seed" in keys and "func" not in keys and "config" not in keys

    def test_reruns_byte_identical(self, tmp_path):
        a = make_bundle(tmp_path / "a")
        b = make_bundle(tmp_path / "b")
        for name in ("abundance.csv", "function.csv", "adjacency.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestConfigFile:
    def test_config_sets_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-samples=30\nseed=3\n# a comment\n\nnoise-sigma=0.1\n")
        out = tmp_path / "out"
        code = run(["synth", "--config", cfg, "--seed", 5,
                    "--planted", "0,1", "--out", out])
        assert code == 0
        snapshot = dict(
            line.split("=", 1)
            for line in (out / "resolved_config.txt").read_text().splitlines()
        )
        assert snapshot["n_samples"] == "30"   # from the config file
        assert snapshot["seed"] == "5"         # the explicit flag wins
        assert snapshot["noise_sigma"] == "0.1"

    @pytest.mark.parametrize("spelling", ("--config={}", "--conf={}"))
    def test_attached_and_abbreviated_forms_are_honoured(self, tmp_path,
                                                         spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-samples=30\n")
        out = tmp_path / "out"
        code = run(["synth", spelling.format(cfg), "--planted", "0,1",
                    "--out", out])
        assert code == 0
        snapshot = (out / "resolved_config.txt").read_text().splitlines()
        assert "n_samples=30" in snapshot

    def test_unknown_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp-drive=on\n")
        code = run(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert code == 3
        assert "warp_drive" in capsys.readouterr().err

    def test_bad_numeric_value_exits_3(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-samples=plenty\n")
        assert run(["synth", "--config", cfg,
                    "--out", tmp_path / "out"]) == 3

    def test_missing_config_file_exits_3(self, tmp_path):
        assert run(["synth", "--config", tmp_path / "ghost.cfg",
                    "--out", tmp_path / "out"]) == 3

    def test_latin1_config_file_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# r\xe9glages\nn-samples=30\n".encode("latin-1"))
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")

    def test_utf8_config_file_is_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# r\xe9glages\nn-samples=30\n".encode("utf-8"))
        out = tmp_path / "out"
        assert run(["synth", "--config", cfg, "--planted", "0,1",
                    "--out", out]) == 0
        snapshot = (out / "resolved_config.txt").read_text().splitlines()
        assert "n_samples=30" in snapshot

    def test_directory_as_config_file_exits_3(self, tmp_path, capsys):
        assert run(["synth", "--config", tmp_path,
                    "--out", tmp_path / "out"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    def test_boolean_words(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-graph=true\n")
        parser = build_parser()
        from coresponse.cli import _apply_config_file
        argv = _apply_config_file(parser, ["discover", "--abundance", "a",
                                           "--function", "f",
                                           "--config", str(cfg)])
        args = parser.parse_args(argv)
        assert args.no_graph is True

    def test_boolean_false_word(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-graph=false\n")
        parser = build_parser()
        from coresponse.cli import _apply_config_file
        argv = _apply_config_file(parser, ["discover", "--abundance", "a",
                                           "--function", "f",
                                           "--config", str(cfg)])
        args = parser.parse_args(argv)
        assert args.no_graph is False

    def test_bad_boolean_exits_3(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-graph=maybe\n")
        assert run(["synth", "--config", cfg,
                    "--out", tmp_path / "out"]) == 3

    def test_choice_validated_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delimiter=pipe\n")
        code = run(["synth", "--config", cfg, "--out", tmp_path / "out"])
        assert code == 3
        assert "delimiter" in capsys.readouterr().err


def zero_adjacency_file(path, labels):
    lines = ["taxon," + ",".join(labels)]
    lines.extend(label + ",0" * len(labels) for label in labels)
    path.write_text("\n".join(lines) + "\n")


class TestPipeline:
    def test_full_chain(self, tmp_path):
        data = make_bundle(tmp_path)

        select_out = tmp_path / "select"
        code = run(["select-k", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--adjacency", data / "adjacency.csv",
                    "--k-min", 1, "--k-max", 3, "--repeats", 2,
                    "--out", select_out] + GA_FAST)
        assert code == 0
        assert (select_out / "chosen_k.txt").read_text().strip() == "2"
        sweep_lines = (select_out / "sweep.csv").read_text().splitlines()
        assert len(sweep_lines) == 1 + 3 * 2

        disc_out = tmp_path / "discover"
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--adjacency", data / "adjacency.csv",
                    "--k", 2, "--runs", 5, "--out", disc_out] + GA_FAST)
        assert code == 0
        top = (disc_out / "top_group.csv").read_text().splitlines()
        assert top[0] == "rank,taxon,importance"
        assert {line.split(",")[1] for line in top[1:]} == {"T01", "T02"}

        an_out = tmp_path / "analyze"
        code = run(["analyze", "--adjacency", data / "adjacency.csv",
                    "--importance", disc_out / "importance_nodes.csv",
                    "--top-k", 2, "--out", an_out])
        assert code == 0
        summary = dict(
            line.split(",", 1)
            for line in (an_out / "analysis_summary.csv")
            .read_text().strip().splitlines()[1:]
        )
        assert summary["n_clusters"] == "3"
        assert summary["clusters_spanned"] == "1"
        assert (an_out / "clusters.csv").exists()
        assert (an_out / "location.csv").exists()
        assert (an_out / "annotated_graph.graphml").exists()

        eval_out = tmp_path / "evaluate"
        code = run(["evaluate", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--adjacency", data / "adjacency.csv",
                    "--methods", "baseline,convolved", "--k", 2,
                    "--repeats", 4, "--out", eval_out] + GA_FAST)
        assert code == 0
        per = (eval_out / "per_repeat.csv").read_text().strip().splitlines()
        assert len(per) == 1 + 2 * 4
        summary = (eval_out / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3
        assert (eval_out / "ttest.csv").exists()

    @pytest.mark.parametrize("mode", [["--k", 2],
                                      ["--mode", "l1", "--mu-grid", "0.1,0.05"]],
                             ids=["size_cap", "l1"])
    def test_summary_top_k_counts_top_group_rows(self, tmp_path, mode):
        data = make_bundle(tmp_path)
        out = tmp_path / "discover"
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--adjacency", data / "adjacency.csv", "--runs", 3,
                    "--out", out] + mode + GA_FAST)
        assert code == 0
        summary = dict(line.split(",", 1) for line in
                       (out / "discovery_summary.csv").read_text()
                       .splitlines()[1:])
        top = (out / "top_group.csv").read_text().splitlines()[1:]
        assert int(summary["top_k"]) == len(top) >= 1

    @pytest.mark.parametrize("mode, blank, kept", [
        (["--k", 2, "--mu", 0.5], "mu", ("k", "2")),
        (["--mode", "l1", "--mu", 0.02, "--k", 5], "k", ("mu", "0.02"))],
        ids=["size_cap", "l1"])
    def test_summary_leaves_unused_settings_blank(self, tmp_path, mode, blank,
                                                  kept):
        # a capped search uses no mu and an l1 search no k, even when given
        data = make_bundle(tmp_path)
        out = tmp_path / "discover"
        code = run(["discover", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--no-graph",
                    "--runs", 2, "--out", out] + mode + GA_FAST)
        assert code == 0
        summary = dict(line.split(",", 1) for line in
                       (out / "discovery_summary.csv").read_text()
                       .splitlines()[1:])
        assert summary[blank] == ""
        assert summary[kept[0]] == kept[1]

    def test_chosen_k_minimizes_summary_mean_aic(self, tmp_path):
        data = make_bundle(tmp_path)
        out = tmp_path / "select"
        code = run(["select-k", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv",
                    "--adjacency", data / "adjacency.csv",
                    "--k-min", 1, "--k-max", 4, "--repeats", 2,
                    "--out", out] + GA_FAST)
        assert code == 0
        rows = [line.split(",") for line in
                (out / "sweep_summary.csv").read_text().splitlines()[1:]]
        assert [int(k) for k, _ in rows] == [1, 2, 3, 4]
        # the smallest mean AIC, ties going to the smaller k
        best_k = min(rows, key=lambda row: (float(row[1]), int(row[0])))[0]
        assert (out / "chosen_k.txt").read_text() == f"{best_k}\n"

    def test_no_graph_equals_zero_adjacency(self, tmp_path):
        data = make_bundle(tmp_path)
        labels = [f"T{j + 1:02d}" for j in range(12)]
        zadj = tmp_path / "zero.csv"
        zero_adjacency_file(zadj, labels)

        out_a = tmp_path / "no_graph"
        out_b = tmp_path / "zero_graph"
        common = ["discover", "--abundance", data / "abundance.csv",
                  "--function", data / "function.csv", "--k", 2,
                  "--runs", 3] + GA_FAST
        assert run(common + ["--no-graph", "--out", out_a]) == 0
        assert run(common + ["--adjacency", zadj, "--out", out_b]) == 0
        for name in ("importance_nodes.csv", "importance_edges.csv",
                     "top_group.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        data = make_bundle(tmp_path)
        outs = []
        for threads, sub in (("1", "t1"), ("4", "t4")):
            out = tmp_path / sub
            code = run(["discover", "--abundance", data / "abundance.csv",
                        "--function", data / "function.csv", "--no-graph",
                        "--k", 2, "--runs", 4, "--threads", threads,
                        "--out", out] + GA_FAST)
            assert code == 0
            outs.append(out)
        assert ((outs[0] / "importance_nodes.csv").read_bytes()
                == (outs[1] / "importance_nodes.csv").read_bytes())

    def test_ingest_outputs(self, tmp_path):
        data = make_bundle(tmp_path)
        out = tmp_path / "ingest"
        code = run(["ingest", "--abundance", data / "abundance.csv",
                    "--function", data / "function.csv", "--out", out])
        assert code == 0
        lines = (out / "abundance_normalized.csv").read_text().splitlines()
        assert len(lines) == 41
        assert (out / "function_aligned.csv").exists()

    def test_infer_net_outputs(self, tmp_path):
        data = make_bundle(tmp_path)
        out = tmp_path / "net"
        code = run(["infer-net", "--abundance", data / "abundance.csv",
                    "--out", out])
        assert code == 0
        header = (out / "adjacency.csv").read_text().splitlines()[0]
        assert header.startswith("taxon,T01,T02")
        edge_header = (out / "edge_list.csv").read_text().splitlines()[0]
        assert edge_header == "source,target,weight"
