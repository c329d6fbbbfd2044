"""Presentation helpers: DOT export, ASCII rendering of clusterings and metrics.

The paper's figures are Graphviz renderings; in a headless test environment
we export equivalent DOT files (so they can be rendered with ``neato`` if
available) and provide plain-text renderings that the examples and the
benchmark harness print.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional

import numpy as np

from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph
from repro.tomography.metric import EdgeMetric

Node = Hashable

#: Shapes used for ground-truth clusters, mirroring the paper's figures.
_DOT_SHAPES = ("diamond", "circle", "triangle", "box", "pentagon", "hexagon", "ellipse")


def render_dot(
    graph: WeightedGraph,
    ground_truth: Optional[Partition] = None,
    top_edge_fraction: float = 0.5,
    graph_name: str = "tomography",
) -> str:
    """Render a measured graph as a Graphviz DOT string.

    Matches the paper's rendering conventions: node shape encodes the ground
    truth cluster, edge length is inversely proportional to weight, and only
    the top ``top_edge_fraction`` of edges by weight are drawn.
    """
    if not 0.0 < top_edge_fraction <= 1.0:
        raise ValueError("top_edge_fraction must be in (0, 1]")
    drawn = graph.top_weight_fraction(top_edge_fraction)
    lines = [f'graph "{graph_name}" {{', "  layout=neato;", "  node [style=filled];"]
    for node in graph.nodes():
        shape = "circle"
        if ground_truth is not None and node in ground_truth:
            shape = _DOT_SHAPES[ground_truth.cluster_index(node) % len(_DOT_SHAPES)]
        lines.append(f'  "{node}" [shape={shape}];')
    max_weight = max((w for _, _, w in drawn.edges()), default=1.0)
    for u, v, w in drawn.edges():
        if u == v or w <= 0:
            continue
        length = max_weight / w
        lines.append(f'  "{u}" -- "{v}" [len={length:.4f}, weight={w:.2f}];')
    lines.append("}")
    return "\n".join(lines)


def ascii_cluster_table(partition: Partition, ground_truth: Optional[Partition] = None) -> str:
    """Plain-text table of clusters with optional ground-truth composition."""
    lines: List[str] = []
    for idx, cluster in enumerate(partition.clusters):
        members = sorted(map(str, cluster))
        header = f"cluster {idx} ({len(members)} nodes)"
        if ground_truth is not None:
            composition: Dict[int, int] = {}
            for node in cluster:
                if node in ground_truth:
                    truth_idx = ground_truth.cluster_index(node)
                    composition[truth_idx] = composition.get(truth_idx, 0) + 1
            detail = ", ".join(
                f"truth-{k}: {v}" for k, v in sorted(composition.items())
            )
            header += f"  [{detail}]"
        lines.append(header)
        for chunk_start in range(0, len(members), 4):
            lines.append("    " + "  ".join(members[chunk_start : chunk_start + 4]))
    return "\n".join(lines)


def render_fig4_bars(
    local_edges: Mapping[str, float],
    remote_edges: Mapping[str, float],
    width: int = 50,
) -> str:
    """ASCII bar chart of a node's edge metrics, local cluster vs remote (Fig. 4)."""
    if width < 10:
        raise ValueError("width must be at least 10 characters")
    all_values = list(local_edges.values()) + list(remote_edges.values())
    peak = max(all_values) if all_values else 1.0
    peak = peak if peak > 0 else 1.0

    def bars(edges: Mapping[str, float]) -> List[str]:
        lines = []
        for peer, value in sorted(edges.items(), key=lambda kv: -kv[1]):
            filled = int(round(width * value / peak))
            lines.append(f"  {peer:<32} {'#' * filled:<{width}} {value:8.1f}")
        return lines

    out = ["Peers from local cluster:"]
    out += bars(local_edges) or ["  (none)"]
    out.append("Peers from remote clusters:")
    out += bars(remote_edges) or ["  (none)"]
    local_total = sum(local_edges.values())
    remote_total = sum(remote_edges.values())
    out.append(
        f"totals: local={local_total:.0f} fragments, remote={remote_total:.0f} fragments"
    )
    return "\n".join(out)


def metric_summary(metric: EdgeMetric) -> str:
    """One-paragraph text summary of an aggregated metric."""
    weights = metric.weights[np.triu_indices(len(metric.labels), k=1)]
    nonzero = weights[weights > 0]
    lines = [
        f"hosts: {len(metric.labels)}",
        f"iterations aggregated: {metric.iterations}",
        f"edges with traffic: {nonzero.size} / {weights.size}",
    ]
    if nonzero.size:
        lines.append(
            "edge weight (fragments/iteration): "
            f"min={nonzero.min():.1f} median={np.median(nonzero):.1f} max={nonzero.max():.1f}"
        )
    return "\n".join(lines)
