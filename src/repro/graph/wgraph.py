"""A small weighted undirected graph.

The clustering algorithms (Louvain, Infomap), the layout code and the
tomography pipeline all operate on the same structure: an undirected graph
whose nodes are arbitrary hashable labels (host names in practice) and whose
edges carry a non-negative weight (the aggregated fragment metric ``w(e)``).

The clustering and layout substrates are implemented against this class
alone, so the package needs no graph library.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

Node = Hashable
Edge = Tuple[Node, Node]


class WeightedGraph:
    """Undirected graph with non-negative edge weights and optional self-loops.

    The class keeps an adjacency map ``node -> {neighbour: weight}``, an
    interned ``node -> insertion id`` map (the canonical edge orientation,
    replacing repr-based keys), and cached edge-count/total-weight
    aggregates maintained on every mutation, so ``number_of_edges()`` and
    ``total_weight()`` — called in the inner loops of Louvain, Infomap and
    modularity — are O(1).
    """

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}
        self._node_id: Dict[Node, int] = {}
        self._num_edges = 0
        self._total_weight = 0.0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[Node, Node, float]], nodes: Optional[Iterable[Node]] = None
    ) -> "WeightedGraph":
        """Build a graph from ``(u, v, weight)`` triples.

        Repeated edges accumulate their weights, matching the aggregation of
        fragment counts over BitTorrent iterations.
        """
        graph = cls()
        if nodes is not None:
            for node in nodes:
                graph.add_node(node)
        for u, v, w in edges:
            graph.add_edge(u, v, w, accumulate=True)
        return graph

    def copy(self) -> "WeightedGraph":
        clone = WeightedGraph()
        for node, nbrs in self._adj.items():
            clone._adj[node] = dict(nbrs)
        clone._node_id = dict(self._node_id)
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        return clone

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> None:
        if node not in self._adj:
            self._node_id[node] = len(self._node_id)
            self._adj[node] = {}

    def add_edge(self, u: Node, v: Node, weight: float = 1.0, accumulate: bool = False) -> None:
        """Add (or overwrite / accumulate) the undirected edge ``u -- v``."""
        weight = float(weight)
        if weight < 0:
            raise ValueError(f"edge weights must be non-negative, got {weight}")
        self.add_node(u)
        self.add_node(v)
        previous = self._adj[u].get(v)
        if accumulate and previous is not None:
            weight += previous
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        if previous is None:
            self._num_edges += 1
            self._total_weight += weight
        else:
            self._total_weight += weight - previous

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> List[Node]:
        return list(self._adj.keys())

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def edge_weight(self, u: Node, v: Node, default: float = 0.0) -> float:
        return self._adj.get(u, {}).get(v, default)

    def neighbors(self, node: Node) -> Dict[Node, float]:
        """Return the ``{neighbour: weight}`` mapping (a copy) for ``node``."""
        if node not in self._adj:
            raise KeyError(f"node {node!r} not in graph")
        return dict(self._adj[node])

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Yield each undirected edge once as ``(u, v, weight)``.

        The first endpoint is the earlier-inserted node, so no seen-set (or
        repr-based canonical key) is needed: an edge is yielded exactly when
        the adjacency scan reaches its lower-id endpoint.
        """
        node_id = self._node_id
        for u, nbrs in self._adj.items():
            iu = node_id[u]
            for v, w in nbrs.items():
                if node_id[v] >= iu:
                    yield (u, v, w)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as ``(u_ids, v_ids, weights)`` arrays in :meth:`edges` order.

        Node ids are the insertion ids, which coincide with positions in
        :meth:`nodes` (nodes are never removed), so ``u_ids``/``v_ids``
        index directly into per-node arrays built over :meth:`nodes`.  This
        is the flat form the vectorized Louvain aggregation and per-level
        modularity paths consume; ``u_ids <= v_ids`` row-wise, exactly as
        :meth:`edges` yields.
        """
        count = self._num_edges
        u_ids = np.empty(count, dtype=np.int64)
        v_ids = np.empty(count, dtype=np.int64)
        weights = np.empty(count, dtype=np.float64)
        node_id = self._node_id
        k = 0
        for u, nbrs in self._adj.items():
            iu = node_id[u]
            for v, w in nbrs.items():
                iv = node_id[v]
                if iv >= iu:
                    u_ids[k] = iu
                    v_ids[k] = iv
                    weights[k] = w
                    k += 1
        return u_ids, v_ids, weights

    def number_of_edges(self) -> int:
        return self._num_edges

    def degree_weight(self, node: Node) -> float:
        """Weighted degree; self-loops count twice, as in modularity papers."""
        if node not in self._adj:
            raise KeyError(f"node {node!r} not in graph")
        total = 0.0
        for v, w in self._adj[node].items():
            total += w
            if v == node:
                total += w
        return total

    def total_weight(self) -> float:
        """Sum of edge weights (each undirected edge counted once)."""
        return self._total_weight

    def subgraph(self, nodes: Iterable[Node]) -> "WeightedGraph":
        """Induced subgraph on ``nodes`` (edges with both endpoints inside).

        Only the kept nodes' adjacency is visited, so extracting a small
        community out of a large graph is O(kept nodes + their edges), not
        O(all edges).
        """
        keep = set(nodes)
        missing = keep - set(self._adj)
        if missing:
            raise KeyError(f"nodes not in graph: {sorted(map(repr, missing))}")
        sub = WeightedGraph()
        for node in keep:
            sub.add_node(node)
        node_id = self._node_id
        for u in sorted(keep, key=node_id.__getitem__):
            iu = node_id[u]
            adj_u = self._adj[u]
            for v, w in adj_u.items():
                if node_id[v] >= iu and v in keep:
                    sub.add_edge(u, v, w)
        return sub

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_weight_matrix(self, order: Optional[List[Node]] = None) -> Tuple[np.ndarray, List[Node]]:
        """Return ``(matrix, labels)`` with ``matrix[i, j]`` the edge weight."""
        labels = list(order) if order is not None else self.nodes()
        index = {node: i for i, node in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("duplicate labels in order")
        matrix = np.zeros((len(labels), len(labels)), dtype=float)
        for u, v, w in self.edges():
            if u in index and v in index:
                i, j = index[u], index[v]
                matrix[i, j] = w
                matrix[j, i] = w
        return matrix, labels

    def top_weight_fraction(self, fraction: float) -> "WeightedGraph":
        """Keep only the top ``fraction`` of edges by weight (paper's Fig. 8 rendering)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        edges = sorted(self.edges(), key=lambda e: e[2], reverse=True)
        keep = edges[: max(1, int(round(fraction * len(edges))))] if edges else []
        out = WeightedGraph()
        for node in self.nodes():
            out.add_node(node)
        for u, v, w in keep:
            out.add_edge(u, v, w)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(nodes={len(self)}, edges={self.number_of_edges()})"
