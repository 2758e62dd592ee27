"""The in-package GraphML writer against networkx's, byte for byte.

networkx is the oracle: each case builds the ``nx.Graph`` the graph files
describe, writes it with ``nx.write_graphml`` and compares the bytes; the
written files are also read back with ``nx.read_graphml``.
"""

import itertools

import networkx as nx
import numpy as np
import pytest

from coresponse.analytics import (CentralityReport, ClusterResult,
                                  write_annotated_graph)
from coresponse.importance import (ImportanceResult, mean_relative_abundance,
                                   write_group_network)
from coresponse.network import CoOccurrenceNetwork
from coresponse.tables import write_graphml

AWKWARD_LABELS = ("a&b", "<tag>", 'say "hi"', "it's", "ünïcødé µ", "42",
                  "-1.5e3", "tab\there", "line\nbreak", "日本")

FLOATS = (-0.0, 5e-324, 1e-300, 1e300, 0.1)


def oracle_bytes(graph, tmp_path):
    path = tmp_path / "oracle.graphml"
    nx.write_graphml(graph, path)
    return path.read_bytes()


def assert_same_graph(path, graph):
    """The file reads back as ``graph``: nodes, edges and attributes."""
    back = nx.read_graphml(path)
    assert list(back.nodes(data=True)) == [
        (str(n), d) for n, d in graph.nodes(data=True)]
    assert list(back.edges(data=True)) == [
        (str(u), str(v), d) for u, v, d in graph.edges(data=True)]


def test_writer_matches_networkx_on_awkward_labels_and_floats(tmp_path):
    labels = AWKWARD_LABELS
    graph = nx.Graph()
    nodes, edges = [], []
    for i, label in enumerate(labels):
        attrs = {"rank": i, "value": FLOATS[i % len(FLOATS)]}
        graph.add_node(label, **attrs)
        nodes.append((label, attrs))
    for i, j in itertools.combinations(range(len(labels)), 2):
        if (i + j) % 3 == 0:
            w = {"weight": -FLOATS[(i * j) % len(FLOATS)]}
            graph.add_edge(labels[i], labels[j], **w)
            edges.append((labels[i], labels[j], w))
    path = tmp_path / "ours.graphml"
    write_graphml(path, nodes, edges)
    assert path.read_bytes() == oracle_bytes(graph, tmp_path)
    assert_same_graph(path, graph)


# a lone surrogate cannot be encoded; both writers put a character reference
@pytest.mark.parametrize("nodes", [[], [("a", {}), ("lone \ud800", {})]])
def test_writer_without_attributes_or_edges(tmp_path, nodes):
    graph = nx.Graph()
    graph.add_nodes_from(label for label, _ in nodes)
    path = tmp_path / "ours.graphml"
    write_graphml(path, nodes, [])
    assert path.read_bytes() == oracle_bytes(graph, tmp_path)


def annotated_oracle(net, *, clusters, cent, importance, mean_abundance=None,
                     min_weight=0.0):
    """The graph ``write_annotated_graph`` describes, built with networkx."""
    graph = nx.Graph()
    for i, label in enumerate(net.taxon_labels):
        attrs = {"cluster": int(clusters.assignment[i]),
                 "degree": float(cent.degree[i]),
                 "closeness": float(cent.closeness[i]),
                 "importance": float(importance[i])}
        if mean_abundance is not None:
            attrs["mean_relative_abundance"] = float(mean_abundance[i])
        graph.add_node(label, **attrs)
    ia, ja = np.nonzero(np.triu(net.adjacency, k=1))
    for i, j in zip(ia, ja):
        w = float(net.adjacency[i, j])
        if w >= min_weight and w > 0:
            graph.add_edge(net.taxon_labels[i], net.taxon_labels[j], weight=w)
    return graph


def annotated_case(p=10, seed=0):
    rng = np.random.default_rng(seed)
    A = np.triu(rng.uniform(0.0, 2.0, (p, p)) * (rng.random((p, p)) < 0.5), 1)
    A[0, 1] = 1e-300
    A[0, 2] = 1e300
    A[1, 2] = 0.1
    net = CoOccurrenceNetwork(A + A.T, AWKWARD_LABELS[:p])
    extras = {
        "clusters": ClusterResult(np.arange(p) % 3, 0.25),
        "cent": CentralityReport(np.array(FLOATS * 2)[:p],
                                 rng.uniform(0, 1, p)),
        "importance": np.array(FLOATS[::-1] * 2)[:p],
        "mean_abundance": rng.dirichlet(np.ones(p)),
    }
    return net, extras


# the mean abundance is the one attribute analyze may lack: an importance
# table without its column
@pytest.mark.parametrize("with_abundance", [False, True])
def test_annotated_graph_bytes_for_every_attribute_subset(tmp_path,
                                                          with_abundance):
    net, extras = annotated_case()
    if not with_abundance:
        del extras["mean_abundance"]
    path = tmp_path / "ours.graphml"
    write_annotated_graph(net, path, **extras)
    graph = annotated_oracle(net, **extras)
    assert path.read_bytes() == oracle_bytes(graph, tmp_path)
    assert_same_graph(path, graph)


@pytest.mark.parametrize("part", ["clusters", "cent", "importance"])
def test_annotated_graph_requires_each_analysis_part(tmp_path, part):
    net, extras = annotated_case()
    del extras[part]
    path = tmp_path / "ours.graphml"
    with pytest.raises(TypeError, match=part):
        write_annotated_graph(net, path, **extras)
    assert not path.exists()


@pytest.mark.parametrize("min_weight", [0.0, 0.1, 0.5, 1.5, np.inf])
def test_annotated_graph_bytes_under_min_weight(tmp_path, min_weight):
    net, extras = annotated_case(seed=1)
    path = tmp_path / "ours.graphml"
    write_annotated_graph(net, path, min_weight=min_weight, **extras)
    graph = annotated_oracle(net, min_weight=min_weight, **extras)
    assert path.read_bytes() == oracle_bytes(graph, tmp_path)


def test_annotated_graph_of_an_edgeless_network(tmp_path):
    net = CoOccurrenceNetwork(np.zeros((3, 3)), ("x", "y", "z"))
    parts = {"clusters": ClusterResult(np.arange(3), 0.0),
             "cent": CentralityReport(np.zeros(3), np.zeros(3)),
             "importance": [1.0, -0.0, 5e-324]}
    path = tmp_path / "ours.graphml"
    write_annotated_graph(net, path, **parts)
    graph = annotated_oracle(net, **parts)
    assert path.read_bytes() == oracle_bytes(graph, tmp_path)
    assert_same_graph(path, graph)


def group_oracle(importance, labels, mra, display_threshold):
    """The graph ``write_group_network`` describes, built with networkx."""
    I, L = importance.taxon_importance, importance.pair_importance
    graph = nx.Graph()
    for i, label in enumerate(labels):
        graph.add_node(label, importance=float(I[i]),
                       mean_relative_abundance=float(mra[i]))
    ia, ja = np.nonzero(np.triu(L, k=1))
    for i, j in zip(ia, ja):
        if abs(L[i, j]) >= display_threshold:
            graph.add_edge(labels[i], labels[j], weight=float(L[i, j]))
    return graph


def signed_importance(p, seed):
    """Importance of runs with mixed-sign r, so some pair weights are < 0."""
    rng = np.random.default_rng(seed)
    runs = [(rng.random(p) < 0.4, r)
            for r in (0.9, -0.6, 0.3, -0.05, 0.1, 5e-324)]
    I = np.zeros(p)
    L = np.zeros((p, p))
    for x, r in runs:
        xf = x.astype(np.float64)
        I += r * xf
        L += r * np.outer(xf, xf)
    return ImportanceResult(I / len(runs), L / len(runs), tuple(runs))


@pytest.mark.parametrize("threshold", [0.0, 0.05, 0.12, 1.0])
def test_group_network_bytes(tmp_path, threshold):
    # the node and edge tables take no newline in a label
    labels = tuple(label for label in AWKWARD_LABELS if "\n" not in label)
    importance = signed_importance(len(labels), seed=3)
    assert (importance.pair_importance < 0).any()
    values = np.random.default_rng(4).uniform(0.5, 3.0,
                                              size=(12, len(labels)))
    path = tmp_path / "ours.graphml"
    write_group_network(importance, labels, values,
                        tmp_path / "n.csv", tmp_path / "e.csv", path,
                        display_threshold=threshold)
    graph = group_oracle(importance, labels, mean_relative_abundance(values),
                         threshold)
    assert path.read_bytes() == oracle_bytes(graph, tmp_path)
    assert_same_graph(path, graph)
