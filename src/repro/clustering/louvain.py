"""The Louvain method (Blondel et al. 2008) for weighted modularity maximisation.

The algorithm alternates two phases until modularity stops improving:

1. **local moving** — repeatedly move single nodes to the neighbouring
   community that yields the largest modularity gain;
2. **aggregation** — collapse each community into a super-node (intra-community
   weight becomes a self-loop) and repeat on the smaller graph.

Each aggregation produces one level of the dendrogram.  As in the paper, the
partition returned by :func:`louvain` is the dendrogram cut with the highest
modularity — in practice the final level, since every level is at least as
good as the previous one, but the full dendrogram is exposed for the
hierarchical extension the paper discusses as future work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.clustering.modularity import ModularityEvaluator
from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph
from repro.observability.metrics import METRICS
from repro.observability.tracer import TRACER

Node = Hashable


@dataclass
class LouvainResult:
    """Outcome of a Louvain run.

    Attributes
    ----------
    partition:
        Best partition found (highest-modularity dendrogram cut).
    modularity:
        Its modularity value.
    dendrogram:
        One partition (of the *original* nodes) per aggregation level, coarse
        levels last.
    levels:
        Number of aggregation levels performed.
    """

    partition: Partition
    modularity: float
    dendrogram: List[Partition]
    levels: int


class _LouvainState:
    """Mutable community bookkeeping for one level of local moving.

    The adjacency is flattened once into CSR index arrays (``indptr`` /
    ``indices`` / ``weights``, self-loops excluded — the same layout trick as
    :mod:`repro.network.solver`), and the per-node move loop gathers
    neighbour communities and their total weights with array operations
    instead of per-node Python dict walks.  Decisions are bit-identical to
    the dict implementation it replaces: neighbour (and therefore candidate
    community) order is the adjacency insertion order, per-community weights
    accumulate in that same order (``np.bincount`` adds sequentially over
    its input), and the sequential ``> best + 1e-12`` comparison chain is
    preserved, so tie-breaking — and the NMI of every clustering result —
    is unchanged.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self.nodes = graph.nodes()
        n = len(self.nodes)
        self.index: Dict[Node, int] = {node: i for i, node in enumerate(self.nodes)}
        self.total_weight = graph.total_weight()
        self.node_degree = np.array(
            [graph.degree_weight(node) for node in self.nodes], dtype=np.float64
        )
        self.self_loops = np.array(
            [graph.edge_weight(node, node) for node in self.nodes], dtype=np.float64
        )
        # CSR adjacency in insertion order, self-loops dropped (the move
        # loop never counts them among neighbour communities).
        indptr = np.zeros(n + 1, dtype=np.int64)
        flat_indices: List[int] = []
        flat_weights: List[float] = []
        for i, node in enumerate(self.nodes):
            for nbr, w in graph.neighbors(node).items():
                if nbr == node:
                    continue
                flat_indices.append(self.index[nbr])
                flat_weights.append(w)
            indptr[i + 1] = len(flat_indices)
        self.indptr = indptr
        self.indices = np.array(flat_indices, dtype=np.int64)
        self.weights = np.array(flat_weights, dtype=np.float64)
        # node -> community id; communities start as singletons, and nodes
        # only ever join a neighbour's community, so ids stay within [0, n).
        self.community = np.arange(n, dtype=np.int64)
        self.community_degree = self.node_degree.copy()

    def one_pass(self, order: Sequence[Node]) -> bool:
        """One sweep of local moving; returns True if any node moved."""
        moved = False
        indptr = self.indptr
        indices = self.indices
        weights = self.weights
        community = self.community
        community_degree = self.community_degree
        node_degree = self.node_degree
        total_weight = self.total_weight
        two_m = 2.0 * total_weight
        norm = two_m * two_m / 2.0
        for node in order:
            i = self.index[node]
            start, end = indptr[i], indptr[i + 1]
            nbr_communities = community[indices[start:end]]
            current = int(community[i])
            # remove(): take the node out of its community.
            degree = float(node_degree[i])
            reduced = float(community_degree[current]) - degree
            community_degree[current] = 0.0 if reduced <= 1e-12 else reduced
            if nbr_communities.size:
                totals = np.bincount(
                    nbr_communities, weights=weights[start:end]
                )
                # First-appearance dedup: dict keys preserve insertion
                # order, matching the dict-walk candidate order exactly.
                candidates = dict.fromkeys(nbr_communities.tolist())
                weight_to_current = (
                    float(totals[current]) if current < totals.size else 0.0
                )
            else:
                candidates = ()
                weight_to_current = 0.0
            best_community = current
            best_gain = (
                weight_to_current / total_weight
                - (float(community_degree[current]) * degree) / norm
            )
            for candidate in candidates:
                candidate_gain = (
                    float(totals[candidate]) / total_weight
                    - (float(community_degree[candidate]) * degree) / norm
                )
                if candidate_gain > best_gain + 1e-12:
                    best_gain = candidate_gain
                    best_community = candidate
            # insert(): join the winning community.
            community[i] = best_community
            community_degree[best_community] = (
                float(community_degree[best_community]) + degree
            )
            if best_community != current:
                moved = True
        return moved

    def partition(self) -> Partition:
        groups: Dict[int, set] = {}
        for node, community in zip(self.nodes, self.community):
            groups.setdefault(int(community), set()).add(node)
        return Partition(groups.values())


def _aggregate(graph: WeightedGraph, partition: Partition) -> WeightedGraph:
    """Collapse each cluster to a super-node; intra-cluster weight becomes a self-loop.

    Vectorized over the flat edge arrays, replacing the per-edge
    ``add_edge(..., accumulate=True)`` walk, but constructing a graph
    bit-identical to it — and therefore preserving every downstream move
    decision, because the dict-era graph's observable state is reproduced
    exactly: per-pair weights are the same left-fold of the original edge
    stream (``bincount`` over the pair's occurrences in order), super-edges
    are inserted in first-occurrence order (which fixes the adjacency
    iteration order the move loop depends on), and the cached total weight
    is re-folded in the original stream order below.
    """
    aggregated = WeightedGraph()
    for idx in range(partition.num_clusters):
        aggregated.add_node(idx)
    edge_u, edge_v, edge_w = graph.edge_arrays()
    if not edge_u.size:
        return aggregated
    memb = np.array(
        [partition.cluster_index(node) for node in graph.nodes()], dtype=np.int64
    )
    cluster_u = memb[edge_u]
    cluster_v = memb[edge_v]
    lo = np.minimum(cluster_u, cluster_v)
    hi = np.maximum(cluster_u, cluster_v)
    num = partition.num_clusters
    keys = lo * num + hi
    unique, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    sums = np.bincount(inverse, weights=edge_w).tolist()
    unique = unique.tolist()
    for k in np.argsort(first_index).tolist():
        key = unique[k]
        aggregated.add_edge(key // num, key % num, sums[k])
    # The dict-era cached total weight is a left-fold of every original edge
    # in stream order; the add_edge calls above folded the per-pair sums
    # instead, which can differ by ulps.  Re-fold it exactly so the
    # ``> best + 1e-12`` move comparisons on deeper levels see identical
    # normalisation.
    total = 0.0
    for w in edge_w.tolist():
        total += w
    aggregated._total_weight = total
    return aggregated


def louvain(
    graph: WeightedGraph,
    rng: Optional[np.random.Generator] = None,
    max_levels: int = 32,
    min_gain: float = 1e-9,
) -> LouvainResult:
    """Run the Louvain method on a weighted graph.

    Parameters
    ----------
    graph:
        Weighted undirected graph (the aggregated tomography measurement).
    rng:
        Generator used to randomise the node visiting order; ``None`` uses a
        deterministic (sorted) order, which is what the pipeline defaults to
        so that experiment results are reproducible.
    max_levels:
        Safety bound on aggregation levels.
    min_gain:
        Stop when a full level improves modularity by less than this.

    Raises
    ------
    ValueError
        If the graph has no edges with positive weight (modularity undefined).
    """
    if graph.total_weight() <= 0:
        raise ValueError("Louvain requires a graph with positive total edge weight")

    original_nodes = graph.nodes()
    # Maps every original node to its current super-node in the working graph.
    node_to_super: Dict[Node, Node] = {node: node for node in original_nodes}

    working = graph.copy()
    dendrogram: List[Partition] = []
    best_partition = Partition.singletons(original_nodes)
    # Per-level scoring against the original graph, flattened once.
    scorer = ModularityEvaluator(graph)
    best_q = scorer.value(best_partition)

    run_started = TRACER.now() if TRACER.enabled else 0.0
    levels_run = 0
    passes_run = 0
    for _level in range(max_levels):
        state = _LouvainState(working)
        if rng is None:
            order = sorted(working.nodes(), key=repr)
        else:
            order = list(working.nodes())
            rng.shuffle(order)
        improved_any = False
        sweeps = 0
        for _sweep in range(1000):
            if not state.one_pass(order):
                break
            improved_any = True
            sweeps += 1
        levels_run += 1
        passes_run += sweeps
        local_partition = state.partition()

        # Express the level's partition in terms of the original nodes.
        super_cluster = {
            super_node: local_partition.cluster_index(super_node)
            for super_node in working.nodes()
        }
        membership = {
            node: super_cluster[node_to_super[node]] for node in original_nodes
        }
        level_partition = Partition.from_membership(membership)
        level_q = scorer.value(level_partition)
        dendrogram.append(level_partition)
        if TRACER.full:
            TRACER.event(
                "louvain.level",
                level=levels_run,
                nodes=len(order),
                sweeps=sweeps,
                modularity=level_q,
            )

        if level_q > best_q + min_gain:
            best_q = level_q
            best_partition = level_partition
        elif not improved_any or level_q <= best_q + min_gain:
            break

        # Aggregate and continue on the coarser graph.
        working_new = _aggregate(working, local_partition)
        node_to_super = {
            node: local_partition.cluster_index(node_to_super[node])
            for node in original_nodes
        }
        working = working_new
        if len(working) <= 1:
            break

    METRICS.count("louvain.runs")
    METRICS.count("louvain.levels", levels_run)
    METRICS.count("louvain.passes", passes_run)
    if TRACER.enabled:
        TRACER.span_record(
            "louvain.run",
            run_started,
            levels=levels_run,
            passes=passes_run,
            modularity=best_q,
        )
    if not dendrogram:
        dendrogram.append(best_partition)
    return LouvainResult(
        partition=best_partition,
        modularity=best_q,
        dendrogram=dendrogram,
        levels=len(dendrogram),
    )
