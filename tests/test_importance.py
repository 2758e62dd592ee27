"""Importance aggregation over repeated searches and its exports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresponse.errors import ValidationError
from coresponse.ga import GroupChromosome, OptimizerConfig
from coresponse.importance import (DiscoveryReport, ImportanceResult,
                                   aggregate_importance, discover_importance,
                                   mean_relative_abundance,
                                   write_group_network)


class TestAggregate:
    def test_hand_example(self):
        # two runs: r=1.0 on {0,1}, r=0.5 on {1,2}
        runs = [(GroupChromosome(np.array([1, 1, 0])), 1.0),
                (GroupChromosome(np.array([0, 1, 1])), 0.5)]
        result = aggregate_importance(runs)
        np.testing.assert_allclose(result.taxon_importance,
                                   [0.5, 0.75, 0.25], rtol=1e-15)
        expected_L = np.array([[0.5, 0.5, 0.0],
                               [0.5, 0.75, 0.25],
                               [0.0, 0.25, 0.25]])
        np.testing.assert_allclose(result.pair_importance, expected_L,
                                   rtol=1e-15)

    def test_single_run(self):
        result = aggregate_importance(
            [(GroupChromosome(np.array([1, 0, 1, 0])), 0.8)])
        np.testing.assert_allclose(result.taxon_importance,
                                   [0.8, 0.0, 0.8, 0.0], rtol=1e-15)
        assert result.runs == 1

    def test_negative_r_contributes_signed(self):
        runs = [(GroupChromosome(np.array([1, 0])), -0.4)]
        result = aggregate_importance(runs)
        assert result.taxon_importance[0] == -0.4

    def test_never_selected_taxon_is_zero(self):
        rng = np.random.default_rng(0)
        runs = []
        for _ in range(15):
            bits = (rng.random(6) < 0.5).astype(np.uint8)
            bits[4] = 0
            runs.append((GroupChromosome(bits), float(rng.uniform(-1, 1))))
        result = aggregate_importance(runs)
        assert result.taxon_importance[4] == 0.0
        assert (result.pair_importance[4] == 0.0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            aggregate_importance([])

    def test_mixed_lengths_rejected(self):
        runs = [(GroupChromosome(np.array([1, 0])), 0.5),
                (GroupChromosome(np.array([1, 0, 1])), 0.5)]
        with pytest.raises(ValidationError, match="length"):
            aggregate_importance(runs)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**20), t=st.integers(1, 12),
           p=st.integers(1, 9))
    def test_diagonal_equals_vector_bitwise(self, seed, t, p):
        rng = np.random.default_rng(seed)
        runs = [(GroupChromosome(rng.random(p) < 0.5),
                 float(rng.uniform(-1, 1))) for _ in range(t)]
        result = aggregate_importance(runs)
        np.testing.assert_array_equal(np.diag(result.pair_importance),
                                      result.taxon_importance)

    def test_run_order_permutation_changes_nothing_material(self):
        rng = np.random.default_rng(1)
        runs = [(GroupChromosome(rng.random(5) < 0.5),
                 float(rng.uniform(0, 1))) for _ in range(8)]
        a = aggregate_importance(runs)
        b = aggregate_importance(runs[::-1])
        np.testing.assert_allclose(a.taxon_importance, b.taxon_importance,
                                   rtol=1e-12)
        np.testing.assert_allclose(a.pair_importance, b.pair_importance,
                                   rtol=1e-12)


#: the per-run pairs of a hand-built result; they are not checked against I
ONE_RUN = ((GroupChromosome(np.array([1, 0])), 0.5),)


class TestResultValidation:
    def test_runs_counts_per_run(self):
        I = np.array([0.5, 0.0])
        assert ImportanceResult(I, np.diag(I), ONE_RUN).runs == 1
        assert ImportanceResult(I, np.diag(I), ONE_RUN * 3).runs == 3
        with pytest.raises(ValidationError, match="at least one run"):
            ImportanceResult(I, np.diag(I), ())

    def test_forged_diagonal_rejected(self):
        I = np.array([0.5, 0.25])
        L = np.array([[0.4, 0.1], [0.1, 0.25]])
        with pytest.raises(ValidationError, match="diag"):
            ImportanceResult(I, L, ONE_RUN)

    def test_asymmetric_rejected(self):
        I = np.array([0.5, 0.25])
        L = np.array([[0.5, 0.1], [0.2, 0.25]])
        with pytest.raises(ValidationError, match="symmetric"):
            ImportanceResult(I, L, ONE_RUN)

    def test_out_of_range_rejected(self):
        I = np.array([1.5, 0.0])
        L = np.diag(I)
        with pytest.raises(ValidationError, match="within"):
            ImportanceResult(I, L, ONE_RUN)

    def test_top_indices_stable_ties(self):
        I = np.array([0.5, 0.9, 0.5, 0.1])
        result = ImportanceResult(I, np.diag(I), ONE_RUN)
        np.testing.assert_array_equal(result.top_indices(3), [1, 0, 2])
        with pytest.raises(ValidationError):
            result.top_indices(0)
        with pytest.raises(ValidationError):
            result.top_indices(5)


class TestDiscoveryReport:
    def test_top_k_is_the_top_group_size(self):
        result = aggregate_importance(
            [(GroupChromosome(np.array([1, 1, 0, 1])), 0.9)])
        report = DiscoveryReport(result, np.array([3, 0, 1]), 0.9)
        assert report.top_k == 3
        with pytest.raises(TypeError):
            DiscoveryReport(result, np.array([3, 0, 1]), 0.9, 3)


class TestDiscover:
    def planted(self, seed=0, n=60, p=10, members=(2, 7)):
        rng = np.random.default_rng(seed)
        H = rng.uniform(0, 3, size=(n, p))
        y = H[:, list(members)].sum(axis=1) + rng.normal(0, 0.1, size=n)
        return H, y

    def cfg(self, **kw):
        base = dict(k_opt=2, population_size=80,
                    max_generations=40, stagnation_limit=15, seed=0)
        base.update(kw)
        return OptimizerConfig(**base)

    def test_planted_members_dominate(self):
        H, y = self.planted()
        report = discover_importance(H, y, self.cfg(), runs=5)
        assert isinstance(report, DiscoveryReport)
        np.testing.assert_array_equal(np.sort(report.top_indices), [2, 7])
        I = report.importance.taxon_importance
        others = np.delete(I, [2, 7])
        assert I[[2, 7]].min() > others.max() + 0.3
        assert report.top_group_r > 0.95

    def test_top_k_defaults_to_cap(self):
        H, y = self.planted(1)
        report = discover_importance(H, y, self.cfg(), runs=3)
        assert report.top_k == 2

    def test_top_k_override(self):
        H, y = self.planted(2)
        report = discover_importance(H, y, self.cfg(), runs=3, top_k=4)
        assert report.top_k == 4
        assert report.top_indices.shape == (4,)

    def test_l1_top_k_from_mean_size(self):
        H, y = self.planted(3)
        cfg = self.cfg(k_opt=None, mu=0.05)
        report = discover_importance(H, y, cfg, runs=3)
        sizes = [x.size() for x, _ in report.importance.per_run]
        assert report.top_k == max(1, round(float(np.mean(sizes))))

    def test_deterministic_and_thread_invariant(self):
        H, y = self.planted(4)
        a = discover_importance(H, y, self.cfg(seed=9), runs=4)
        b = discover_importance(H, y, self.cfg(seed=9), runs=4,
                                threads=4)
        np.testing.assert_array_equal(a.importance.taxon_importance,
                                      b.importance.taxon_importance)
        np.testing.assert_array_equal(a.importance.pair_importance,
                                      b.importance.pair_importance)

    def test_runs_guard(self):
        H, y = self.planted(5)
        with pytest.raises(ValidationError, match="runs"):
            discover_importance(H, y, self.cfg(), runs=0)


class TestMeanRelativeAbundance:
    def test_hand_example(self):
        H = np.array([[1.0, 3.0], [2.0, 2.0]])
        np.testing.assert_allclose(mean_relative_abundance(H),
                                   [0.375, 0.625], rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        H = rng.uniform(0.1, 5, size=(20, 6))
        mra = mean_relative_abundance(H)
        np.testing.assert_allclose(mra.sum(), 1.0, rtol=1e-12)

    def test_zero_sample_rejected(self):
        H = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="all-zero"):
            mean_relative_abundance(H)


class TestExports:
    def make_result(self):
        runs = [(GroupChromosome(np.array([1, 1, 0])), 0.9),
                (GroupChromosome(np.array([1, 0, 0])), 0.6)]
        return aggregate_importance(runs)

    def test_tables(self, tmp_path):
        result = self.make_result()
        H = np.random.default_rng(0).uniform(0.5, 3, size=(10, 3))
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        write_group_network(result, ("a", "b", "c"), H, nodes, edges,
                            tmp_path / "g.graphml")
        node_lines = nodes.read_text().strip().splitlines()
        assert node_lines[0] == "taxon,importance,mean_relative_abundance"
        assert len(node_lines) == 4
        assert node_lines[1].startswith("a,0.75,")
        edge_lines = edges.read_text().strip().splitlines()
        assert edge_lines[0] == "taxon_a,taxon_b,weight"
        # only the (a, b) pair was ever selected together
        assert len(edge_lines) == 2
        assert edge_lines[1].startswith("a,b,0.45")

    def test_graphml_round_trip(self, tmp_path):
        import networkx as nx

        result = self.make_result()
        H = np.random.default_rng(1).uniform(0.5, 3, size=(10, 3))
        graph_path = tmp_path / "group.graphml"
        write_group_network(result, ("a", "b", "c"), H,
                            tmp_path / "n.csv", tmp_path / "e.csv",
                            graph_path)
        graph = nx.read_graphml(graph_path)
        assert set(graph.nodes) == {"a", "b", "c"}
        np.testing.assert_allclose(graph.nodes["a"]["importance"], 0.75)
        assert graph.has_edge("a", "b")

    def test_display_threshold_prunes_graph_only(self, tmp_path):
        import networkx as nx

        result = self.make_result()  # L[a, b] = 0.45
        H = np.random.default_rng(2).uniform(0.5, 3, size=(10, 3))
        edges = tmp_path / "e.csv"
        graph_path = tmp_path / "g.graphml"
        write_group_network(result, ("a", "b", "c"), H,
                            tmp_path / "n.csv", edges, graph_path,
                            display_threshold=0.5)
        assert nx.read_graphml(graph_path).number_of_edges() == 0
        assert len(edges.read_text().strip().splitlines()) == 2

    def test_graph_path_required(self, tmp_path):
        result = self.make_result()
        with pytest.raises(TypeError, match="graph_path"):
            write_group_network(result, ("a", "b", "c"), np.ones((4, 3)),
                                tmp_path / "n.csv", tmp_path / "e.csv")
        assert not (tmp_path / "n.csv").exists()

    def test_label_count_checked(self, tmp_path):
        result = self.make_result()
        H = np.ones((4, 3))
        with pytest.raises(ValidationError, match="label count"):
            write_group_network(result, ("a", "b"), H, tmp_path / "n.csv",
                                tmp_path / "e.csv", tmp_path / "g.graphml")
