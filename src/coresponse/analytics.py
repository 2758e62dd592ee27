"""Community structure and centrality context for important taxa.

Clustering is Louvain over the weighted co-occurrence network, restarted
with several seeds and keeping the partition whose modularity — recomputed
here from its definition — is highest.  The Louvain code is an in-package
port of networkx 3.x's ``louvain_communities`` on plain lists and dicts: for
the same graph, resolution and integer seed it returns the same partition,
and the restarts share one level-0 set-up.  Shortest-path lengths use
1/weight (stronger co-occurrence means closer), and closeness is harmonic
so disconnected networks stay finite.
"""

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .network import CoOccurrenceNetwork
from .tables import fmt, write_graphml, write_table
from .utils import child_int

LOUVAIN_RESTARTS = 10

CLUSTER_COLUMNS = ("taxon", "cluster")
CENTRALITY_COLUMNS = ("taxon", "degree", "closeness")
LOCATION_COLUMNS = ("taxon", "importance", "cluster", "degree_rank",
                    "closeness_rank", "linked_to_top")


@dataclass(frozen=True)
class ClusterResult:
    """Node partition, ids contiguous from 0, with its weighted modularity."""

    assignment: np.ndarray
    modularity_q: float
    n_clusters: int = field(init=False)

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.ndim != 1 or assignment.shape[0] == 0:
            raise ValidationError("assignment must be a non-empty vector")
        ids = np.unique(assignment)
        if not np.array_equal(ids, np.arange(ids.shape[0])):
            raise ValidationError("cluster ids must be contiguous from 0")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "n_clusters", int(ids.shape[0]))


@dataclass(frozen=True)
class CentralityReport:
    """Weighted degree and harmonic closeness per node."""

    degree: np.ndarray
    closeness: np.ndarray

    def __post_init__(self):
        degree = np.asarray(self.degree, dtype=np.float64)
        closeness = np.asarray(self.closeness, dtype=np.float64)
        if degree.shape != closeness.shape or degree.ndim != 1:
            raise ValidationError("degree and closeness must be equal-length vectors")
        if not (np.isfinite(degree).all() and np.isfinite(closeness).all()):
            raise ValidationError("centralities must be finite")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "closeness", closeness)


@dataclass(frozen=True)
class LocationReport:
    """Where the top taxa sit inside the full network."""

    top_indices: np.ndarray
    cluster_ids: np.ndarray
    n_clusters_spanned: int
    n_linked_to_top: int
    n_common_neighbors: int
    linked_flags: np.ndarray
    degree_ranks: np.ndarray
    closeness_ranks: np.ndarray


def modularity(adjacency: np.ndarray, assignment: np.ndarray,
               resolution: float = 1.0) -> float:
    """Weighted modularity Q = (1/2m) sum_ij (A_ij - k_i k_j / 2m) delta_ij.

    Self-weights (the i = j terms) participate like any others; an edgeless
    network has Q = 0 by convention.
    """
    A = np.asarray(adjacency, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or assignment.shape[0] != A.shape[0]:
        raise ValidationError("adjacency and assignment sizes disagree")
    two_m = float(A.sum())
    if two_m == 0.0:
        return 0.0
    deg = A.sum(axis=1)
    q = 0.0
    for c in np.unique(assignment):
        members = assignment == c
        q += A[np.ix_(members, members)].sum() / two_m
        q -= resolution * (float(deg[members].sum()) / two_m) ** 2
    return float(q)


def _assignment_from_labels(labels) -> np.ndarray:
    # contiguous ids ordered by each community's smallest member index
    ids = {}
    return np.array([ids.setdefault(c, len(ids)) for c in labels],
                    dtype=np.int64)


def _level0(adjacency: np.ndarray) -> list:
    """Neighbour dicts of the network: ascending neighbours, upper weights.

    Row ``u`` maps each neighbour ``v`` to the weight stored at
    ``adjacency[min(u, v), max(u, v)]``, in ascending ``v``, which is the
    order networkx's graph of the same edges iterates in.
    """
    upper = np.triu(adjacency, k=1)
    adj = [{} for _ in range(adjacency.shape[0])]
    ia, ja = np.nonzero(upper)
    for i, j, w in zip(ia.tolist(), ja.tolist(), upper[ia, ja].tolist()):
        adj[i][j] = w
        adj[j][i] = w
    return adj


def _degrees(adj: list) -> list:
    # a self-loop counts twice, summed in neighbour order as networkx does
    return [sum(row.values()) + row.get(u, 0) for u, row in enumerate(adj)]


def _neighbours(adj: list) -> list:
    return [[(v, w) for v, w in row.items() if v != u]
            for u, row in enumerate(adj)]


def _level_modularity(adj: list, degrees: list, com: list, k: int,
                      resolution: float) -> float:
    """Modularity of a level graph's partition; only steers the stop rule."""
    deg_sum = sum(degrees)
    inner = [0.0] * k
    total = [0.0] * k
    for u, row in enumerate(adj):
        c = com[u]
        total[c] += degrees[u]
        for v, w in row.items():
            if v >= u and com[v] == c:
                inner[c] += w
    m = deg_sum / 2
    norm = 1 / deg_sum ** 2
    return sum(e / m - resolution * d * d * norm
               for e, d in zip(inner, total))


def _move_nodes(nbrs: list, degrees: list, m: float, resolution: float,
                rng: random.Random) -> tuple:
    """One level of local moves; returns (community per node, moved).

    Nodes are visited in one shuffled order, pass after pass, until a pass
    moves nothing.  Candidate communities are tried in the order their first
    neighbour appears and a move needs a strictly positive gain; every term
    is evaluated as networkx evaluates it, so ties and rounding resolve the
    same way.  networkx also tries the node's own community when no
    neighbour is in it, but that gain is exactly 0 and never wins.
    """
    n = len(nbrs)
    node2com = list(range(n))
    stot = list(degrees)
    order = list(range(n))
    rng.shuffle(order)
    two_m2 = 2 * m ** 2
    moved = False
    moves = 1
    while moves:
        moves = 0
        for u in order:
            own = node2com[u]
            weights = {}
            for v, w in nbrs[u]:
                c = node2com[v]
                weights[c] = weights.get(c, 0.0) + w
            degree = degrees[u]
            stot[own] -= degree
            remove_cost = (-weights.get(own, 0.0) / m
                           + resolution * (stot[own] * degree) / two_m2)
            best_gain = 0
            best = own
            for c, wt in weights.items():
                gain = (remove_cost + wt / m
                        - resolution * (stot[c] * degree) / two_m2)
                if gain > best_gain:
                    best_gain = gain
                    best = c
            stot[best] += degree
            if best != own:
                node2com[u] = best
                moves += 1
                moved = True
    return node2com, moved


def _aggregate(adj: list, com: list, k: int) -> list:
    """The graph of communities, edges summed in networkx's edge order.

    Edges are visited ``u`` ascending, then ``u``'s neighbours in insertion
    order, skipping ``v < u``; each community pair's neighbour entries are
    inserted when the pair is first seen, a self-loop included.
    """
    out = [{} for _ in range(k)]
    for u, row in enumerate(adj):
        cu = com[u]
        new_row = out[cu]
        for v, w in row.items():
            if v < u:
                continue
            cv = com[v]
            total = w + new_row.get(cv, 0)
            new_row[cv] = total
            out[cv][cu] = total
    return out


class _Louvain:
    """Louvain (Blondel et al. 2008) as networkx 3.x implements it.

    The level-0 graph, its weighted degrees, ``m`` and the singleton
    modularity are built once; :meth:`partition` runs one restart from
    them with its own ``random.Random`` and returns the same partition as
    ``nx.community.louvain_communities(G, seed=...)`` with that seed.
    """

    #: a level stops the descent when modularity rises by no more than this
    THRESHOLD = 1e-7

    def __init__(self, adjacency: np.ndarray, resolution: float):
        self.resolution = resolution
        self.adj = _level0(adjacency)
        self.nbrs = _neighbours(self.adj)
        self.degrees = _degrees(self.adj)
        self.m = sum(self.degrees) / 2
        # the gains divide by 2 m^2 and the level modularity by (2m)^2; with
        # either out of float range Louvain would divide by 0 or overflow
        if self.m and not (2 * self.m * self.m > 0.0
                           and math.isfinite(4 * self.m * self.m)):
            raise ValidationError(
                f"edge weights are too small or too large to cluster: their "
                f"total m = {self.m:.3g} puts 2 m^2 or (2m)^2 outside the "
                f"float range")
        n = len(self.adj)
        if self.m:
            # modularity of the singletons, the first level's baseline
            self.mod0 = _level_modularity(self.adj, self.degrees,
                                          list(range(n)), n, resolution)

    def partition(self, rng: random.Random) -> list:
        """Community of every node, labelled by some member's index."""
        membership = list(range(len(self.adj)))
        if not self.m:
            return membership
        adj, nbrs, degrees, mod = self.adj, self.nbrs, self.degrees, self.mod0
        com, _ = _move_nodes(nbrs, degrees, self.m, self.resolution, rng)
        while True:
            labels = {c: i for i, c in enumerate(sorted(set(com)))}
            com = [labels[c] for c in com]
            membership = [com[c] for c in membership]
            new_mod = _level_modularity(adj, degrees, com, len(labels),
                                        self.resolution)
            if new_mod - mod <= self.THRESHOLD:
                return membership
            mod = new_mod
            adj = _aggregate(adj, com, len(labels))
            nbrs, degrees = _neighbours(adj), _degrees(adj)
            com, moved = _move_nodes(nbrs, degrees, self.m, self.resolution,
                                     rng)
            if not moved:
                return membership


def louvain(net: CoOccurrenceNetwork, resolution: float = 1.0,
            seed: int = 0) -> ClusterResult:
    """Best-of-10 Louvain partitions by recomputed modularity.

    Louvain is order-sensitive, so it runs once per derived seed; ties keep
    the earliest restart.  The restarts share the level-0 set-up.
    """
    if net.n_taxa == 0:
        raise ValidationError("cannot cluster an empty network")
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValidationError("resolution must be finite and > 0")
    search = _Louvain(net.adjacency, resolution)
    best = None
    for s in range(LOUVAIN_RESTARTS):
        partition = search.partition(random.Random(child_int(seed, s)))
        assignment = _assignment_from_labels(partition)
        q = modularity(net.adjacency, assignment, resolution)
        if best is None or q > best[0]:
            best = (q, assignment)
    q, assignment = best
    return ClusterResult(assignment, q)


def centralities(net: CoOccurrenceNetwork) -> CentralityReport:
    """Weighted degree and harmonic closeness for every node.

    closeness_i = (1/(p-1)) * sum over reachable j != i of 1/d(i, j), with
    d from shortest paths over edge lengths 1/weight; isolated nodes score
    0 on both.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    A = net.adjacency
    p = net.n_taxa
    degree = A.sum(axis=1)
    if p <= 1:
        return CentralityReport(degree, np.zeros(p))
    ia, ja = np.nonzero(A)
    lengths = csr_matrix((1.0 / A[ia, ja], (ia, ja)), shape=(p, p))
    dist = dijkstra(lengths, directed=False)
    np.fill_diagonal(dist, np.inf)
    with np.errstate(divide="ignore"):
        inv = np.where(np.isfinite(dist), 1.0 / dist, 0.0)
    return CentralityReport(degree, inv.sum(axis=1) / (p - 1))


def _ordinal_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, 1 = largest; ties broken toward the lower index."""
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.int64)
    ranks[order] = np.arange(1, values.shape[0] + 1)
    return ranks


def locate_group(net: CoOccurrenceNetwork, importance: np.ndarray,
                 top_k: int, *, clusters: ClusterResult,
                 cent: CentralityReport) -> LocationReport:
    """Describe the network position of the top_k most important taxa.

    ``importance`` holds one score per taxon; ``clusters`` and ``cent`` are
    the whole network's partition and centralities.  Reports how many
    clusters the top taxa span, how many are directly linked to another top
    taxon, how many other taxa neighbor at least two of them, and their
    whole-network centrality ranks.
    """
    ivec = np.asarray(importance, dtype=np.float64)
    p = net.n_taxa
    if ivec.shape != (p,):
        raise ValidationError("importance length does not match the network")
    if not 1 <= top_k <= p:
        raise ValidationError("top_k must be in [1, n_taxa]")

    top = np.argsort(-ivec, kind="stable")[:top_k]
    is_top = np.zeros(p, dtype=bool)
    is_top[top] = True
    linked = net.adjacency[:, top] > 0

    cluster_ids = clusters.assignment[top]
    linked_flags = linked[top].any(axis=1)
    n_common = int((linked[~is_top].sum(axis=1) >= 2).sum())
    return LocationReport(
        top_indices=top,
        cluster_ids=cluster_ids,
        n_clusters_spanned=int(np.unique(cluster_ids).shape[0]),
        n_linked_to_top=int(linked_flags.sum()),
        n_common_neighbors=n_common,
        linked_flags=linked_flags,
        degree_ranks=_ordinal_ranks(cent.degree)[top],
        closeness_ranks=_ordinal_ranks(cent.closeness)[top],
    )


def write_clusters(result: ClusterResult, labels, path,
                   delimiter: str = ",") -> None:
    rows = [[str(label), str(int(c))]
            for label, c in zip(labels, result.assignment)]
    write_table(path, list(CLUSTER_COLUMNS), rows, delimiter)


def write_centralities(report: CentralityReport, labels, path,
                       delimiter: str = ",") -> None:
    rows = [[str(label), fmt(d), fmt(c)]
            for label, d, c in zip(labels, report.degree, report.closeness)]
    write_table(path, list(CENTRALITY_COLUMNS), rows, delimiter)


def write_location(report: LocationReport, labels, importance: np.ndarray,
                   path, delimiter: str = ",") -> None:
    """One row per top taxon; the aggregate counts live in the report."""
    rows = [
        [str(labels[i]), fmt(importance[i]), str(int(report.cluster_ids[pos])),
         str(int(report.degree_ranks[pos])),
         str(int(report.closeness_ranks[pos])),
         "yes" if report.linked_flags[pos] else "no"]
        for pos, i in enumerate(report.top_indices)
    ]
    write_table(path, list(LOCATION_COLUMNS), rows, delimiter)


def write_annotated_graph(net: CoOccurrenceNetwork, path, *,
                          clusters: ClusterResult, cent: CentralityReport,
                          importance, mean_abundance=None,
                          min_weight: float = 0.0) -> None:
    """GraphML of the full network with analysis attributes on nodes.

    The mean relative abundance is left out when ``mean_abundance`` is None.
    """
    labels = net.taxon_labels
    nodes = []
    for i, label in enumerate(labels):
        attrs = {"cluster": int(clusters.assignment[i]),
                 "degree": float(cent.degree[i]),
                 "closeness": float(cent.closeness[i]),
                 "importance": float(importance[i])}
        if mean_abundance is not None:
            attrs["mean_relative_abundance"] = float(mean_abundance[i])
        nodes.append((label, attrs))
    A = net.adjacency
    ia, ja = np.nonzero(np.triu(A, k=1))
    edges = [(labels[i], labels[j], {"weight": w})
             for i, j, w in zip(ia.tolist(), ja.tolist(), A[ia, ja].tolist())
             if w >= min_weight and w > 0]
    write_graphml(path, nodes, edges)
