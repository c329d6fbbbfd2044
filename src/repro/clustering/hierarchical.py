"""Hierarchical (multi-level) clustering — the paper's future-work extension.

The paper restricts itself to a single-level partition, which is why the B-T
dataset (Bordeaux + Toulouse with Bordeaux internally split by a bottleneck)
caps at NMI ≈ 0.7: its ground truth is really hierarchical.  Section V
explicitly names extending the method to "overlapping multi-level hierarchical
clusterings" as future work.

This module provides that extension in its simplest useful form:

* :func:`recursive_louvain` — run Louvain on the measured graph, then recurse
  into every recovered cluster's induced subgraph and keep any split whose
  intra-cluster modularity is high enough.  The result is a
  :class:`HierarchicalClustering` — a tree whose leaves are a (usually finer)
  partition of the nodes.
* :meth:`HierarchicalClustering.flatten` — the leaf partition, directly
  comparable to a multi-level ground truth with the existing NMI measures.
* :meth:`HierarchicalClustering.best_match` — choose, among the levels of the
  hierarchy, the one that best matches a reference partition; used by the
  ablation benchmark to show the hierarchy recovers the B-T ground truth that
  the single-level method cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.clustering.louvain import louvain
from repro.clustering.modularity import modularity
from repro.clustering.nmi import overlapping_nmi
from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph


@dataclass
class ClusterNode:
    """One node of the hierarchy tree.

    Attributes
    ----------
    members:
        Hosts covered by this subtree.
    children:
        Sub-clusters; empty for leaves.
    depth:
        Root is depth 0.
    split_modularity:
        Modularity of the split that produced the children (on the induced
        subgraph), or ``None`` for leaves.
    """

    members: frozenset
    children: List["ClusterNode"] = field(default_factory=list)
    depth: int = 0
    split_modularity: Optional[float] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> List["ClusterNode"]:
        if self.is_leaf:
            return [self]
        out: List[ClusterNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out


@dataclass
class HierarchicalClustering:
    """A multi-level clustering of a measured network."""

    roots: List[ClusterNode]

    # ------------------------------------------------------------------ #
    def flatten(self) -> Partition:
        """The finest level: one cluster per leaf of the tree."""
        leaves = [set(leaf.members) for root in self.roots for leaf in root.leaves()]
        return Partition(leaves)

    def levels(self) -> List[Partition]:
        """Every depth cut of the tree, coarse to fine (deduplicated)."""
        max_depth = 0

        def walk(node: ClusterNode) -> None:
            nonlocal max_depth
            max_depth = max(max_depth, node.depth)
            for child in node.children:
                walk(child)

        for root in self.roots:
            walk(root)

        cuts: List[Partition] = []
        for depth in range(max_depth + 1):
            clusters: List[set] = []

            def cut(node: ClusterNode) -> None:
                if node.depth == depth or node.is_leaf:
                    clusters.append(set(node.members))
                    return
                for child in node.children:
                    cut(child)

            for root in self.roots:
                cut(root)
            partition = Partition(clusters)
            if not cuts or cuts[-1] != partition:
                cuts.append(partition)
        return cuts

    def best_match(self, reference: Partition) -> tuple:
        """``(partition, nmi)`` of the depth cut that best matches ``reference``.

        The reference must cover the same node set as the hierarchy (restrict
        it first if it covers more hosts).
        """
        best_partition = None
        best_score = -1.0
        for level in self.levels():
            score = overlapping_nmi(level, reference.restrict(level.nodes()))
            if score > best_score:
                best_score = score
                best_partition = level
        return best_partition, best_score

    def describe(self) -> str:
        """Human-readable outline of the tree."""
        lines: List[str] = []

        def walk(node: ClusterNode, prefix: str) -> None:
            mod = (
                f" (split modularity {node.split_modularity:.3f})"
                if node.split_modularity is not None
                else ""
            )
            lines.append(f"{prefix}- {len(node.members)} nodes{mod}")
            for child in node.children:
                walk(child, prefix + "  ")

        for root in self.roots:
            walk(root, "")
        return "\n".join(lines)


def recursive_louvain(
    graph: WeightedGraph,
    min_cluster_size: int = 4,
    min_split_modularity: float = 0.1,
    max_depth: int = 4,
    rng: Optional[np.random.Generator] = None,
) -> HierarchicalClustering:
    """Multi-level clustering by recursively applying Louvain inside clusters.

    Parameters
    ----------
    graph:
        Weighted measurement graph.
    min_cluster_size:
        Clusters smaller than this are never split further.
    min_split_modularity:
        A split of a cluster's induced subgraph is kept only if its modularity
        on that subgraph is at least this value; this prevents the recursion
        from shattering homogeneous clusters into noise.
    max_depth:
        Maximum recursion depth (the paper's networks have 2 levels: sites and
        intra-site clusters).
    """
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be at least 2")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")

    top = louvain(graph, rng=rng).partition

    def build(members: frozenset, depth: int) -> ClusterNode:
        node = ClusterNode(members=members, depth=depth)
        if depth >= max_depth or len(members) < 2 * min_cluster_size:
            return node
        subgraph = graph.subgraph(members)
        if subgraph.total_weight() <= 0:
            return node
        sub_partition = louvain(subgraph, rng=rng).partition
        if sub_partition.num_clusters < 2:
            return node
        if min(sub_partition.sizes()) < min_cluster_size:
            return node
        split_q = modularity(subgraph, sub_partition)
        if split_q < min_split_modularity:
            return node
        node.split_modularity = split_q
        node.children = [
            build(frozenset(cluster), depth + 1) for cluster in sub_partition.clusters
        ]
        return node

    roots = [build(frozenset(cluster), 0) for cluster in top.clusters]
    return HierarchicalClustering(roots=roots)
