"""Weighted Newman–Girvan modularity (Eq. 3 of the paper).

For a weighted undirected graph with total edge weight ``m`` and a partition
into clusters, modularity is

    Q = Σ_c [ w_in(c) / m  −  ( w_tot(c) / (2 m) )² ]

where ``w_in(c)`` is the total weight of intra-cluster edges of cluster ``c``
(self-loops counted once) and ``w_tot(c)`` is the summed weighted degree of
its nodes.  This is the ``Tr(e) − ‖e²‖`` form quoted by the paper, written in
the sums the Louvain method manipulates incrementally.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph


class ModularityEvaluator:
    """Modularity of any partition of one graph, from edge arrays flattened once.

    :func:`louvain` scores every dendrogram level against the *original*
    graph, so it builds one evaluator and calls :meth:`value` per level;
    :func:`modularity` is a one-shot evaluation.  Per-cluster intra-weight
    and degree accumulate with two ``np.bincount`` calls, which add
    sequentially over ``edges()``/``nodes()`` order, and the final
    per-cluster sum runs over the ``set`` of python-int cluster ids.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        self.nodes = graph.nodes()
        self.edge_u, self.edge_v, self.edge_w = graph.edge_arrays()
        self.node_degree = np.array(
            [graph.degree_weight(node) for node in self.nodes], dtype=np.float64
        )
        self.total = graph.total_weight()
        self.two_m = 2.0 * self.total

    def value(self, partition: Partition) -> float:
        memb_list = [partition.cluster_index(node) for node in self.nodes]
        memb = np.array(memb_list, dtype=np.int64)
        size = int(memb.max()) + 1
        cluster_u = memb[self.edge_u]
        cluster_v = memb[self.edge_v]
        intra_mask = cluster_u == cluster_v
        intra = np.bincount(
            cluster_u[intra_mask], weights=self.edge_w[intra_mask], minlength=size
        ).tolist()
        degree = np.bincount(
            memb, weights=self.node_degree, minlength=size
        ).tolist()
        q = 0.0
        for c in set(memb_list):
            q += intra[c] / self.total - (degree[c] / self.two_m) ** 2
        return q


def modularity(graph: WeightedGraph, partition: Partition) -> float:
    """Weighted modularity of ``partition`` on ``graph``.

    Nodes of the graph missing from the partition raise ``KeyError``; isolated
    nodes contribute nothing.  A graph with zero total weight has undefined
    modularity and raises ``ValueError``.
    """
    if graph.total_weight() <= 0:
        raise ValueError("modularity is undefined for graphs with zero total weight")
    return ModularityEvaluator(graph).value(partition)


def modularity_matrix_form(weights: np.ndarray, labels, partition: Partition) -> float:
    """Modularity computed from a symmetric weight matrix.

    Provided as an independent implementation used by the test-suite to
    cross-check :func:`modularity` (the ``e``-matrix formulation of Newman &
    Girvan: ``Q = Tr(e) − ‖e²‖``).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.allclose(weights, weights.T, atol=1e-9):
        raise ValueError("weight matrix must be symmetric")
    labels = list(labels)
    if len(labels) != weights.shape[0]:
        raise ValueError("labels must match matrix size")
    total = weights.sum()
    if total <= 0:
        raise ValueError("modularity is undefined for zero-weight matrices")

    k = partition.num_clusters
    community = np.array([partition.cluster_index(node) for node in labels])
    e = np.zeros((k, k), dtype=float)
    for i in range(k):
        for j in range(k):
            block = weights[np.ix_(community == i, community == j)]
            e[i, j] = block.sum() / total
    return float(np.trace(e) - np.sum(e @ e))
