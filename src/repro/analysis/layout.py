"""Force-directed layouts (Kamada–Kawai and Fruchterman–Reingold).

The paper renders each measured network with the Kamada–Kawai algorithm
(Graphviz "neato"), making edge lengths inversely proportional to the edge
weight; the visual clusters line up with the ground truth, which is the
qualitative argument (§III-C, citing Noack 2009) that a graph-clustering
method will recover the logical clusters.  These implementations reproduce
that step without Graphviz: Kamada–Kawai as stress minimisation over the
graph-theoretic distances (via ``scipy.optimize``), and a simple
Fruchterman–Reingold spring embedding as a cross-check.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph

Node = Hashable


def _distance_matrix(graph: WeightedGraph, order: List[Node]) -> np.ndarray:
    """All-pairs shortest-path distances with edge length = 1 / weight.

    Disconnected pairs get a distance slightly above the largest finite
    distance, which keeps the stress objective bounded (the same trick the
    paper's rendering effectively applies by only drawing heavy edges).
    """
    index = {node: i for i, node in enumerate(order)}
    n = len(order)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in graph.edges():
        if u == v or w <= 0:
            continue
        length = 1.0 / w
        i, j = index[u], index[v]
        dist[i, j] = min(dist[i, j], length)
        dist[j, i] = min(dist[j, i], length)
    # Floyd–Warshall (n is at most a few hundred in this application).
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    finite = dist[np.isfinite(dist)]
    fallback = (finite.max() * 1.5 + 1.0) if finite.size else 1.0
    dist[~np.isfinite(dist)] = fallback
    return dist


def kamada_kawai_layout(
    graph: WeightedGraph,
    seed: int = 0,
    iterations: int = 300,
) -> Dict[Node, Tuple[float, float]]:
    """2-D Kamada–Kawai (stress-minimisation) layout of a weighted graph.

    Edge lengths are the reciprocal of the edge weight, so strongly
    communicating nodes are placed close together, exactly as in the paper's
    figures.
    """
    # Deferred: scipy is only needed here, and importing it eagerly would
    # make every ``import repro`` pay for (and depend on) scipy.
    from scipy import optimize

    order = graph.nodes()
    n = len(order)
    if n == 0:
        return {}
    if n == 1:
        return {order[0]: (0.0, 0.0)}
    dist = _distance_matrix(graph, order)
    scale = dist[dist > 0].mean() if (dist > 0).any() else 1.0
    dist = dist / scale
    weights = 1.0 / np.maximum(dist, 1e-6) ** 2
    np.fill_diagonal(weights, 0.0)

    rng = np.random.default_rng(seed)
    initial = rng.normal(size=(n, 2))

    triu_i, triu_j = np.triu_indices(n, k=1)
    target = dist[triu_i, triu_j]
    w = weights[triu_i, triu_j]

    def stress(flat: np.ndarray) -> Tuple[float, np.ndarray]:
        pos = flat.reshape(n, 2)
        delta = pos[triu_i] - pos[triu_j]
        lengths = np.sqrt((delta ** 2).sum(axis=1)) + 1e-12
        diff = lengths - target
        value = float((w * diff ** 2).sum())
        grad_pairs = (2.0 * w * diff / lengths)[:, None] * delta
        grad = np.zeros_like(pos)
        np.add.at(grad, triu_i, grad_pairs)
        np.add.at(grad, triu_j, -grad_pairs)
        return value, grad.ravel()

    result = optimize.minimize(
        stress,
        initial.ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": iterations},
    )
    positions = result.x.reshape(n, 2)
    return {node: (float(x), float(y)) for node, (x, y) in zip(order, positions)}


def fruchterman_reingold_layout(
    graph: WeightedGraph,
    seed: int = 0,
    iterations: int = 200,
) -> Dict[Node, Tuple[float, float]]:
    """Classic spring-embedding layout; used as a cross-check of the KK layout."""
    order = graph.nodes()
    n = len(order)
    if n == 0:
        return {}
    index = {node: i for i, node in enumerate(order)}
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, size=(n, 2))
    weight_matrix = np.zeros((n, n))
    for u, v, w in graph.edges():
        if u == v:
            continue
        weight_matrix[index[u], index[v]] = w
        weight_matrix[index[v], index[u]] = w
    if weight_matrix.max() > 0:
        weight_matrix = weight_matrix / weight_matrix.max()
    k = 1.0 / math.sqrt(n)
    temperature = 0.1
    for step in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        distance = np.sqrt((delta ** 2).sum(axis=2)) + 1e-9
        repulsion = (k ** 2) / distance
        attraction = weight_matrix * distance / k
        force = (repulsion - attraction)[:, :, None] * delta / distance[:, :, None]
        displacement = force.sum(axis=1)
        length = np.sqrt((displacement ** 2).sum(axis=1)) + 1e-9
        pos += displacement / length[:, None] * np.minimum(length, temperature)[:, None]
        temperature *= 0.97
    return {node: (float(x), float(y)) for node, (x, y) in zip(order, pos)}


def layout_cluster_separation(
    positions: Dict[Node, Tuple[float, float]], partition: Partition
) -> float:
    """Silhouette-like separation score of a layout w.r.t. a partition.

    Returns the ratio of mean inter-cluster distance to mean intra-cluster
    distance; values well above 1 mean the layout visually separates the
    clusters, which is the qualitative claim of the paper's Figs. 8–12.
    """
    nodes = [node for node in positions if node in partition]
    if len(nodes) < 2:
        raise ValueError("need at least two positioned nodes covered by the partition")
    coords = np.array([positions[node] for node in nodes])
    labels = np.array([partition.cluster_index(node) for node in nodes])
    delta = coords[:, None, :] - coords[None, :, :]
    distance = np.sqrt((delta ** 2).sum(axis=2))
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    different = ~ (labels[:, None] == labels[None, :])
    intra = distance[same]
    inter = distance[different]
    if intra.size == 0 or inter.size == 0:
        return float("inf") if intra.size == 0 else 0.0
    return float(inter.mean() / max(intra.mean(), 1e-12))
