"""The "received fragments per peer" metric (Section II of the paper).

For a single broadcast ``i`` and an edge ``e = (v1, v2)``:

    w_i(e) = (v1 →_i v2) + (v2 →_i v1)                       (Eq. 1)

and aggregated over ``n`` iterations:

    w(e) = Σ_i w_i(e) / n                                    (Eq. 2)

The functions here turn the directed :class:`FragmentMatrix` measurements into
symmetric edge metrics and into the weighted graph consumed by the
clustering phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.bittorrent.instrumentation import FragmentMatrix
from repro.graph.wgraph import WeightedGraph


@dataclass(frozen=True)
class EdgeMetric:
    """Aggregated symmetric edge weights ``w(e)`` over a set of hosts.

    Attributes
    ----------
    labels:
        Host order of the matrix.
    weights:
        Symmetric matrix; ``weights[i, j]`` is ``w((labels[i], labels[j]))``.
    iterations:
        Number of broadcast iterations aggregated.
    """

    labels: Tuple[str, ...]
    weights: np.ndarray
    iterations: int

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        n = len(self.labels)
        if weights.shape != (n, n):
            raise ValueError(f"weights must be {n}x{n}")
        if not np.allclose(weights, weights.T, atol=1e-9):
            raise ValueError("edge metric matrix must be symmetric")
        if (weights < 0).any():
            raise ValueError("edge metrics must be non-negative")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", tuple(self.labels))

    # ------------------------------------------------------------------ #
    def index_of(self, host: str) -> int:
        try:
            return self.labels.index(host)
        except ValueError as exc:
            raise KeyError(f"unknown host {host!r}") from exc

    def weight(self, u: str, v: str) -> float:
        """``w((u, v))``; zero for never-communicating pairs."""
        return float(self.weights[self.index_of(u), self.index_of(v)])

    def edges_of(self, host: str) -> Dict[str, float]:
        """All edge weights incident to ``host`` (Fig. 4's bar chart data)."""
        i = self.index_of(host)
        return {
            other: float(self.weights[i, j])
            for j, other in enumerate(self.labels)
            if j != i
        }

    def total_weight(self) -> float:
        return float(np.triu(self.weights, k=1).sum())


def aggregate_mean(matrices: Sequence[FragmentMatrix]) -> EdgeMetric:
    """Aggregate broadcast measurements into the per-edge metric of Eq. 2."""
    if not matrices:
        raise ValueError("at least one measurement is required")
    labels = matrices[0].labels
    for m in matrices[1:]:
        if m.labels != labels:
            raise ValueError("all measurements must share the same host order")
    stacked = np.stack([m.symmetric_weights() for m in matrices])
    mean = stacked.mean(axis=0)
    np.fill_diagonal(mean, 0.0)
    return EdgeMetric(labels=tuple(labels), weights=mean, iterations=len(matrices))


def metric_graph(metric: EdgeMetric, drop_zero: bool = True) -> WeightedGraph:
    """Convert an :class:`EdgeMetric` into the weighted graph fed to clustering.

    Parameters
    ----------
    metric:
        Aggregated edge metric.
    drop_zero:
        When True (default) pairs that never exchanged fragments contribute no
        edge; nodes are always present even if isolated.
    """
    graph = WeightedGraph()
    for label in metric.labels:
        graph.add_node(label)
    n = len(metric.labels)
    for i in range(n):
        for j in range(i + 1, n):
            w = float(metric.weights[i, j])
            if w > 0 or not drop_zero:
                graph.add_edge(metric.labels[i], metric.labels[j], w)
    return graph


def edge_weight_history(
    matrices: Sequence[FragmentMatrix], u: str, v: str
) -> List[float]:
    """Per-iteration ``w_i(e)`` values for one edge (the data behind Fig. 5)."""
    if not matrices:
        raise ValueError("at least one measurement is required")
    return [m.edge_weight(u, v) for m in matrices]


def local_remote_split(
    metric: EdgeMetric, host: str, local_hosts: Iterable[str]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Split the edges of ``host`` into local-cluster and remote groups (Fig. 4)."""
    local = set(local_hosts)
    if host not in metric.labels:
        raise KeyError(f"unknown host {host!r}")
    edges = metric.edges_of(host)
    local_edges = {k: v for k, v in edges.items() if k in local}
    remote_edges = {k: v for k, v in edges.items() if k not in local}
    return local_edges, remote_edges
