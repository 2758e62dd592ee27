"""Clustering, centralities and group-location summaries on the network."""

import random
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from coresponse import analytics
from coresponse.analytics import (LOUVAIN_RESTARTS, CentralityReport,
                                  ClusterResult, LocationReport, _Louvain,
                                  _shortest_paths, centralities,
                                  locate_group, louvain, modularity,
                                  write_annotated_graph, write_centralities,
                                  write_clusters, write_location)
from coresponse.errors import ValidationError
from coresponse.ingest import css_normalize, filter_sparse_taxa
from coresponse.network import CoOccurrenceNetwork, infer_network
from coresponse.synth import SynthSpec, block_adjacency, generate
from coresponse.utils import child_int


def net_from(A):
    A = np.asarray(A, dtype=np.float64)
    return CoOccurrenceNetwork(A, tuple(f"t{i}" for i in range(A.shape[0])))


def two_triangles(bridge=0.0):
    A = np.zeros((6, 6))
    for a, b in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        A[a, b] = A[b, a] = 1.0
    if bridge:
        A[2, 3] = A[3, 2] = bridge
    return A


def two_blocks(intra=0.8, inter=0.05):
    A = np.zeros((8, 8))
    for block in (range(0, 4), range(4, 8)):
        for a in block:
            for b in block:
                if a < b:
                    A[a, b] = A[b, a] = intra
    if inter:
        A[3, 4] = A[4, 3] = inter
    return A


def closeness_oracle(A):
    """Floyd-Warshall harmonic closeness with edge lengths 1/weight."""
    p = A.shape[0]
    d = np.full((p, p), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(p):
        for j in range(p):
            if A[i, j] > 0:
                d[i, j] = 1.0 / A[i, j]
    for k in range(p):
        for i in range(p):
            for j in range(p):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    out = np.zeros(p)
    for i in range(p):
        total = sum(1.0 / d[i, j] for j in range(p)
                    if j != i and np.isfinite(d[i, j]))
        out[i] = total / (p - 1)
    return out


def dijkstra_oracle(A):
    """(distances, closeness) as ``centralities`` computed them with scipy:
    lengths 1/A over A's nonzero entries, ``dijkstra(directed=False)``."""
    p = A.shape[0]
    ia, ja = np.nonzero(A)
    with np.errstate(over="ignore"):
        lengths = csr_matrix((1.0 / A[ia, ja], (ia, ja)), shape=(p, p))
    dist = dijkstra(lengths, directed=False)
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    with np.errstate(divide="ignore"):
        inv = np.where(np.isfinite(off), 1.0 / off, 0.0)
    return dist, inv.sum(axis=1) / (p - 1)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def inferred_p600():
    """The network ``infer-net`` finds on the inferred workload's data."""
    bundle = generate(SynthSpec(
        n_samples=200, n_taxa=600, n_blocks=8, intra_block_weight=0.5,
        planted_group=tuple(range(10)), noise_sigma=0.05, seed=1))
    return infer_network(css_normalize(filter_sparse_taxa(
        bundle.raw_abundance)))


@pytest.fixture(scope="module")
def inferred_net():
    return inferred_p600()


class TestModularity:
    def test_two_triangles_half(self):
        assignment = np.array([0, 0, 0, 1, 1, 1])
        assert modularity(two_triangles(), assignment) == pytest.approx(0.5)

    def test_single_cluster_is_zero(self):
        A = two_blocks()
        q = modularity(A, np.zeros(8, dtype=np.int64))
        assert q == pytest.approx(0.0, abs=1e-15)

    def test_edgeless_is_zero(self):
        assert modularity(np.zeros((4, 4)), np.arange(4)) == 0.0

    def test_split_edge_lower_bound(self):
        # separating the two endpoints of the only edge gives Q = -1/2
        A = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert modularity(A, np.array([0, 1])) == pytest.approx(-0.5)

    def test_matches_networkx(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = int(rng.integers(4, 12))
            A = rng.uniform(0, 1, size=(p, p)) * (rng.random((p, p)) < 0.4)
            A = np.triu(A, k=1)
            A = A + A.T
            assignment = rng.integers(0, 3, size=p)
            graph = nx.Graph()
            graph.add_nodes_from(range(p))
            ia, ja = np.nonzero(np.triu(A, k=1))
            graph.add_weighted_edges_from(
                (int(i), int(j), float(A[i, j])) for i, j in zip(ia, ja))
            communities = [set(np.flatnonzero(assignment == c))
                           for c in np.unique(assignment)]
            ref = nx.community.modularity(graph, communities, weight="weight")
            np.testing.assert_allclose(modularity(A, assignment), ref,
                                       atol=1e-10)

    def test_linear_in_resolution(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(0, 1, size=(7, 7)) * (rng.random((7, 7)) < 0.5)
        A = np.triu(A, k=1)
        A = A + A.T
        assignment = rng.integers(0, 3, size=7)
        q0 = modularity(A, assignment, resolution=0.0)
        q1 = modularity(A, assignment, resolution=1.0)
        q2 = modularity(A, assignment, resolution=2.0)
        np.testing.assert_allclose(q2, 2.0 * q1 - q0, rtol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = int(rng.integers(3, 10))
            A = rng.uniform(0, 1, size=(p, p)) * (rng.random((p, p)) < 0.5)
            A = np.triu(A, k=1)
            A = A + A.T
            q = modularity(A, rng.integers(0, p, size=p) % max(1, p // 2))
            assert -0.5 - 1e-12 <= q <= 1.0 + 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            modularity(np.zeros((3, 3)), np.array([0, 1]))


class TestLouvain:
    def test_separates_triangles(self):
        result = louvain(net_from(two_triangles(bridge=0.05)), seed=0)
        assert result.n_clusters == 2
        assert len(set(result.assignment[:3])) == 1
        assert len(set(result.assignment[3:])) == 1
        assert result.assignment[0] != result.assignment[3]

    def test_cluster_ids_ordered_by_first_member(self):
        result = louvain(net_from(two_triangles(bridge=0.05)), seed=0)
        assert result.assignment[0] == 0
        assert result.assignment[3] == 1

    def test_two_blocks(self):
        result = louvain(net_from(two_blocks()), seed=3)
        assert result.n_clusters == 2
        assert result.modularity_q > 0.3

    def test_q_is_recomputed_value(self):
        net = net_from(two_blocks())
        result = louvain(net, seed=1)
        np.testing.assert_allclose(
            result.modularity_q, modularity(net.adjacency, result.assignment),
            rtol=1e-12)

    def test_deterministic(self):
        net = net_from(two_blocks(intra=0.5, inter=0.2))
        a = louvain(net, seed=5)
        b = louvain(net, seed=5)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.modularity_q == b.modularity_q

    def test_edgeless_gives_singletons(self):
        result = louvain(net_from(np.zeros((4, 4))), seed=0)
        np.testing.assert_array_equal(result.assignment, [0, 1, 2, 3])
        assert result.modularity_q == 0.0

    def test_resolution_affects_granularity(self):
        # a very small resolution favors merging everything together
        result = louvain(net_from(two_triangles(bridge=0.5)),
                         resolution=0.01, seed=0)
        assert result.n_clusters == 1


    @pytest.mark.parametrize("resolution",
                             [float("nan"), float("inf"), 0.0, -1.0])
    def test_resolution_must_be_finite_positive(self, resolution):
        with pytest.raises(ValidationError, match="resolution"):
            louvain(net_from(two_blocks()), resolution=resolution, seed=0)

    @pytest.mark.parametrize("weight", [1e-170, 1e300])
    def test_extreme_weights_are_rejected(self, weight):
        # 2 m^2 underflows to 0 below ~1e-154 and overflows near 1e300
        A = np.zeros((4, 4))
        for a in range(3):
            A[a, a + 1] = A[a + 1, a] = weight
        with pytest.raises(ValidationError, match="edge weights"):
            louvain(net_from(A), seed=0)

    @pytest.mark.parametrize("weight", [1e-150, 1e150])
    def test_large_and_small_weights_that_fit_still_cluster(self, weight):
        result = louvain(net_from(two_triangles(bridge=0.01) * weight),
                         seed=0)
        np.testing.assert_array_equal(result.assignment, [0, 0, 0, 1, 1, 1])


def nx_graph(A):
    graph = nx.Graph()
    graph.add_nodes_from(range(A.shape[0]))
    ia, ja = np.nonzero(np.triu(A, k=1))
    graph.add_weighted_edges_from(
        (int(i), int(j), float(A[i, j])) for i, j in zip(ia, ja))
    return graph


def canonical(labels):
    """Cluster ids 0, 1, ... in order of each cluster's first member."""
    ids = {}
    return [ids.setdefault(c, len(ids)) for c in labels]


def nx_partition(graph, resolution, seed):
    labels = [None] * graph.number_of_nodes()
    for community in nx.community.louvain_communities(
            graph, weight="weight", resolution=resolution, seed=seed):
        for u in community:
            labels[u] = min(community)
    return canonical(labels)


def nx_louvain(net, resolution=1.0, seed=0):
    """Best-of-10 networkx Louvain: the implementation the port replaced."""
    graph = nx_graph(net.adjacency)
    best = None
    for s in range(LOUVAIN_RESTARTS):
        assignment = np.array(
            nx_partition(graph, resolution, child_int(seed, s)))
        q = modularity(net.adjacency, assignment, resolution)
        if best is None or q > best[0]:
            best = (q, assignment)
    return best


@st.composite
def weighted_graphs(draw):
    """p <= 80 nodes over a few components, some nodes isolated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = int(rng.integers(1, 81))
    density = draw(st.floats(0.1, 0.6))
    unit = draw(st.booleans())
    components = rng.integers(0, draw(st.integers(1, 4)), size=p)
    A = rng.random((p, p)) < density
    A &= components[:, None] == components[None, :]
    kept = rng.random(p) >= draw(st.floats(0.0, 0.2))
    A &= kept[:, None] & kept[None, :]
    A = np.triu(A, k=1) * (1.0 if unit else rng.uniform(0.01, 1.0, (p, p)))
    return A + A.T


class TestLouvainMatchesNetworkx:
    """The in-package Louvain returns networkx 3.x's partitions bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(A=weighted_graphs(), seed=st.integers(0, 2**32 - 1),
           resolution=st.sampled_from((0.5, 1.0, 2.0)))
    def test_each_restart_matches_louvain_communities(self, A, seed,
                                                      resolution):
        port = _Louvain(A, resolution).partition(random.Random(seed))
        assert canonical(port) == nx_partition(nx_graph(A), resolution, seed)

    @pytest.mark.parametrize("case", ["blocks", "ties", "triangles"])
    def test_best_of_restarts_matches_networkx(self, case):
        A = {"blocks": two_blocks(intra=0.5, inter=0.2),
             "ties": two_triangles(bridge=1.0),
             "triangles": two_triangles(bridge=0.05)}[case]
        net = net_from(A)
        for seed in range(5):
            result = louvain(net, seed=seed)
            q, assignment = nx_louvain(net, seed=seed)
            np.testing.assert_array_equal(result.assignment, assignment)
            assert result.modularity_q == q

    def test_inferred_p600_matches_networkx(self, inferred_net):
        net = inferred_net
        assert np.count_nonzero(net.adjacency) > 10 * net.n_taxa
        result = louvain(net, seed=1)
        q, assignment = nx_louvain(net, seed=1)
        np.testing.assert_array_equal(result.assignment, assignment)
        assert result.modularity_q == q


class TestClusterResultValidation:
    def test_contiguity_enforced(self):
        with pytest.raises(ValidationError, match="contiguous"):
            ClusterResult(np.array([0, 2, 2]), 0.1)

    def test_valid(self):
        result = ClusterResult(np.array([0, 1, 1]), 0.1)
        assert result.n_clusters == 2

    def test_cluster_count_is_derived(self):
        with pytest.raises(TypeError):
            ClusterResult(np.array([0, 1, 1]), 0.1, 2)


class TestCentralities:
    def test_path_graph(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        A[1, 2] = A[2, 1] = 1.0
        report = centralities(net_from(A))
        np.testing.assert_array_equal(report.degree, [1.0, 2.0, 1.0])
        np.testing.assert_allclose(report.closeness, [0.75, 1.0, 0.75],
                                   rtol=1e-15)

    def test_star_graph(self):
        A = np.zeros((4, 4))
        for leaf in (1, 2, 3):
            A[0, leaf] = A[leaf, 0] = 1.0
        report = centralities(net_from(A))
        np.testing.assert_allclose(report.closeness[0], 1.0, rtol=1e-15)
        np.testing.assert_allclose(report.closeness[1:], 2.0 / 3.0,
                                   rtol=1e-15)

    def test_strong_edge_shortens_distance(self):
        A = np.array([[0.0, 2.0], [2.0, 0.0]])
        report = centralities(net_from(A))
        np.testing.assert_allclose(report.closeness, [2.0, 2.0], rtol=1e-15)

    def test_isolated_node_scores_zero(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        report = centralities(net_from(A))
        assert report.degree[2] == 0.0
        assert report.closeness[2] == 0.0
        assert np.isfinite(report.closeness).all()

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = int(rng.integers(3, 12))
            A = rng.uniform(0.2, 2, size=(p, p)) * (rng.random((p, p)) < 0.4)
            A = np.triu(A, k=1)
            A = A + A.T
            report = centralities(net_from(A))
            np.testing.assert_allclose(report.closeness, closeness_oracle(A),
                                       rtol=1e-9)
            np.testing.assert_allclose(report.degree, A.sum(axis=1),
                                       rtol=1e-15)

    def test_single_node(self):
        report = centralities(net_from(np.zeros((1, 1))))
        np.testing.assert_array_equal(report.degree, [0.0])
        np.testing.assert_array_equal(report.closeness, [0.0])

    def test_isolated_extra_node_changes_nothing_relative(self):
        # adding an isolated node rescales closeness by (p-1)/p only
        A = two_triangles(bridge=0.3)
        before = centralities(net_from(A)).closeness
        A_ext = np.zeros((7, 7))
        A_ext[:6, :6] = A
        after = centralities(net_from(A_ext)).closeness
        np.testing.assert_allclose(after[:6], before * 5.0 / 6.0, rtol=1e-12)
        assert after[6] == 0.0


def sparse_graph(seed, p, density, components=1):
    """Symmetric weights from 1e-6 to 1e3 (log-uniform) on a random
    pattern, split into ``components`` groups; nodes left without an
    edge are isolated."""
    rng = np.random.default_rng(seed)
    A = (rng.random((p, p)) < density) * 10.0 ** rng.uniform(-6, 3, (p, p))
    group = rng.integers(0, components, size=p)
    A *= group[:, None] == group[None, :]
    A = np.triu(A, k=1)
    return A + A.T


class TestShortestPathsMatchDijkstra:
    """``centralities`` equals scipy's Dijkstra bit for bit."""

    def check(self, net):
        dist, closeness = dijkstra_oracle(net.adjacency)
        assert same_bits(_shortest_paths(net.adjacency), dist)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = centralities(net)
        assert same_bits(report.closeness, closeness)

    def test_inferred_p600(self, inferred_net):
        self.check(inferred_net)

    def test_complete_block_graph(self):
        self.check(net_from(block_adjacency(120, 8, 0.5, 0.05)))

    def test_complete_graph_with_random_weights(self):
        rng = np.random.default_rng(4)
        A = np.triu(rng.uniform(0.05, 1.0, (120, 120)), k=1)
        self.check(net_from(A + A.T))

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_weights_over_nine_decades(self, seed):
        self.check(net_from(sparse_graph(seed, 40 + 30 * seed, 0.08)))

    @pytest.mark.parametrize("seed", range(4))
    def test_components_and_isolated_nodes(self, seed):
        A = sparse_graph(seed, 90, 0.1, components=4)
        A[:, 7] = A[7, :] = 0.0
        A[:, 30] = A[30, :] = 0.0
        dist = dijkstra_oracle(A)[0]
        assert np.isinf(dist).any()
        self.check(net_from(A))

    def test_near_symmetric_network(self):
        A = sparse_graph(11, 60, 0.15)
        rng = np.random.default_rng(12)
        i, j = np.nonzero(np.triu(A, k=1))
        pick = rng.random(i.shape[0]) < 0.3
        A[i[pick], j[pick]] += rng.uniform(-1, 1, pick.sum()) * 9e-13
        A[0, :] = A[:, 0] = 0.0
        A[0, 5] = 4e-13  # an edge present in one direction only
        A[2, 3], A[3, 2] = 0.25, 0.25 + 5e-13
        net = CoOccurrenceNetwork(A, tuple(f"t{k}" for k in range(60)))
        assert not np.array_equal(net.adjacency, net.adjacency.T)
        assert np.isfinite(dijkstra_oracle(net.adjacency)[0][0]).any()
        self.check(net)

    def test_subnormal_weight_is_an_infinite_length(self):
        A = two_triangles(bridge=0.3)
        A[0, 5] = A[5, 0] = 5e-324
        A_ext = np.zeros((7, 7))
        A_ext[:6, :6] = A
        A_ext[:, 6] = A_ext[6, :] = 0.0
        A_ext[6, 0] = A_ext[0, 6] = 1e-310
        net = net_from(A_ext)
        dist = dijkstra_oracle(net.adjacency)[0]
        assert np.isinf(dist[6]).sum() == 6
        self.check(net)

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_source_blocks_give_the_same_bits(self, monkeypatch, block):
        # the default budget runs both graphs in one block
        for A in (sparse_graph(3, 80, 0.1, components=2),
                  block_adjacency(40, 4, 0.5, 0.05)):
            whole = _shortest_paths(A)
            widest = int(np.count_nonzero(A, axis=1).max())
            monkeypatch.setattr(analytics, "PATH_BLOCK_FLOATS",
                                block * widest)
            assert same_bits(_shortest_paths(A), whole)
            self.check(net_from(A))
            monkeypatch.undo()


def locate(net, importance, top_k):
    """``locate_group`` with the partition and centralities analyze passes."""
    return locate_group(net, importance, top_k,
                        clusters=louvain(net, seed=0), cent=centralities(net))


class TestLocateGroup:
    def test_top_group_inside_one_block(self):
        net = net_from(two_blocks(inter=0.0))
        importance = np.zeros(8)
        importance[[0, 1, 2]] = [0.9, 0.8, 0.7]
        report = locate(net, importance, 3)
        np.testing.assert_array_equal(report.top_indices, [0, 1, 2])
        assert report.n_clusters_spanned == 1
        assert report.n_linked_to_top == 3
        np.testing.assert_array_equal(report.linked_flags,
                                      [True, True, True])
        # taxon 3 is the only non-top taxon adjacent to >= 2 top taxa
        assert report.n_common_neighbors == 1

    def test_top_group_across_blocks(self):
        net = net_from(two_blocks(inter=0.0))
        importance = np.zeros(8)
        importance[0] = 0.9
        importance[5] = 0.8
        report = locate(net, importance, 2)
        assert report.n_clusters_spanned == 2
        assert report.n_linked_to_top == 0
        np.testing.assert_array_equal(report.linked_flags, [False, False])
        assert report.n_common_neighbors == 0

    def test_ranks_are_whole_network_ranks(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[1, 2] = A[2, 1] = 1.0
        A[2, 3] = A[3, 2] = 1.0
        net = net_from(A)
        importance = np.array([0.1, 0.0, 0.0, 0.9])
        report = locate(net, importance, 2)
        np.testing.assert_array_equal(report.top_indices, [3, 0])
        # the end nodes have the two lowest degrees; ties break by index
        np.testing.assert_array_equal(report.degree_ranks, [4, 3])

    def test_accepts_importance_result(self):
        from coresponse.ga import GroupChromosome
        from coresponse.importance import aggregate_importance

        net = net_from(two_blocks())
        runs = [(GroupChromosome(np.array([1, 1, 0, 0, 0, 0, 0, 0])), 0.9)]
        result = aggregate_importance(runs)
        report = locate(net, result.taxon_importance, 2)
        np.testing.assert_array_equal(np.sort(report.top_indices), [0, 1])

    def test_reuses_precomputed_parts(self):
        # the report reads the partition and centralities it is given, not
        # ones it computes itself: here every taxon is its own cluster and
        # the ranks are the reverse of index order
        net = net_from(two_blocks())
        clusters = ClusterResult(np.arange(8), 0.0)
        cent = CentralityReport(np.arange(8.0), np.arange(8.0))
        importance = np.linspace(1, 0, 8)
        report = locate_group(net, importance, 2, clusters=clusters,
                              cent=cent)
        np.testing.assert_array_equal(report.cluster_ids, [0, 1])
        assert report.n_clusters_spanned == 2
        np.testing.assert_array_equal(report.degree_ranks, [8, 7])
        np.testing.assert_array_equal(report.closeness_ranks, [8, 7])

    def test_bounds(self):
        net = net_from(two_blocks())
        with pytest.raises(ValidationError, match="top_k"):
            locate(net, np.zeros(8), 0)
        with pytest.raises(ValidationError, match="top_k"):
            locate(net, np.zeros(8), 9)
        with pytest.raises(ValidationError, match="length"):
            locate(net, np.zeros(5), 2)


class TestExports:
    def test_cluster_table(self, tmp_path):
        result = louvain(net_from(two_triangles(bridge=0.05)), seed=0)
        path = tmp_path / "clusters.csv"
        write_clusters(result, [f"t{i}" for i in range(6)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "taxon,cluster"
        assert lines[1] == "t0,0"
        assert len(lines) == 7

    def test_centrality_table(self, tmp_path):
        report = centralities(net_from(two_triangles()))
        path = tmp_path / "centralities.csv"
        write_centralities(report, [f"t{i}" for i in range(6)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "taxon,degree,closeness"
        assert len(lines) == 7

    def test_location_table(self, tmp_path):
        net = net_from(two_blocks(inter=0.0))
        importance = np.zeros(8)
        importance[[0, 1]] = [0.9, 0.8]
        report = locate(net, importance, 2)
        path = tmp_path / "location.csv"
        write_location(report, [f"t{i}" for i in range(8)], importance, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("taxon,importance,cluster,degree_rank,"
                            "closeness_rank,linked_to_top")
        assert lines[1].split(",")[0] == "t0"
        assert lines[1].split(",")[-1] == "yes"
        assert len(lines) == 3

    def test_annotated_graph(self, tmp_path):
        net = net_from(two_blocks())
        clusters = louvain(net, seed=0)
        cent = centralities(net)
        path = tmp_path / "net.graphml"
        write_annotated_graph(net, path, clusters=clusters, cent=cent,
                              importance=np.linspace(0, 1, 8),
                              mean_abundance=np.full(8, 0.125))
        graph = nx.read_graphml(path)
        assert graph.number_of_nodes() == 8
        node = graph.nodes["t0"]
        assert {"cluster", "degree", "closeness", "importance",
                "mean_relative_abundance"} <= set(node)

    def test_annotated_graph_min_weight(self, tmp_path):
        net = net_from(two_blocks(intra=0.8, inter=0.05))
        path = tmp_path / "net.graphml"
        write_annotated_graph(net, path, clusters=louvain(net, seed=0),
                              cent=centralities(net),
                              importance=np.zeros(8), min_weight=0.1)
        graph = nx.read_graphml(path)
        assert graph.number_of_edges() == 12  # the weak bridge is dropped
