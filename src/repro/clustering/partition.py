"""Partition datatype: an assignment of nodes to disjoint clusters.

Both the clustering algorithms and the ground truths in the experiments are
partitions (the paper deliberately restricts itself to single-level,
non-overlapping clusterings); this class provides the conversions and
sanity checks the rest of the code relies on.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

Node = Hashable


class Partition:
    """An immutable partition of a node set into disjoint, non-empty clusters."""

    def __init__(self, clusters: Iterable[Iterable[Node]]) -> None:
        cleaned: List[frozenset] = []
        seen: Set[Node] = set()
        for cluster in clusters:
            members = frozenset(cluster)
            if not members:
                continue
            overlap = members & seen
            if overlap:
                raise ValueError(
                    f"clusters overlap on {sorted(map(repr, overlap))[:3]}; "
                    "Partition represents disjoint clusterings only"
                )
            seen |= members
            cleaned.append(members)
        if not cleaned:
            raise ValueError("a partition must contain at least one non-empty cluster")
        # Canonical order: by decreasing size then lexicographic representative,
        # so equal partitions compare equal regardless of construction order.
        self._clusters: Tuple[frozenset, ...] = tuple(
            sorted(cleaned, key=lambda c: (-len(c), sorted(map(repr, c))))
        )
        self._membership: Dict[Node, int] = {}
        for idx, cluster in enumerate(self._clusters):
            for node in cluster:
                self._membership[node] = idx

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_membership(cls, membership: Mapping[Node, Hashable]) -> "Partition":
        """Build from a ``node -> cluster label`` mapping."""
        groups: Dict[Hashable, Set[Node]] = {}
        for node, label in membership.items():
            groups.setdefault(label, set()).add(node)
        return cls(groups.values())

    @classmethod
    def singletons(cls, nodes: Iterable[Node]) -> "Partition":
        """Every node in its own cluster (the Louvain starting point)."""
        return cls([{node} for node in nodes])

    @classmethod
    def whole(cls, nodes: Iterable[Node]) -> "Partition":
        """All nodes in a single cluster."""
        return cls([set(nodes)])

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def clusters(self) -> Tuple[frozenset, ...]:
        return self._clusters

    @property
    def num_clusters(self) -> int:
        return len(self._clusters)

    def nodes(self) -> Set[Node]:
        return set(self._membership)

    def __len__(self) -> int:
        return len(self._membership)

    def __contains__(self, node: Node) -> bool:
        return node in self._membership

    def cluster_of(self, node: Node) -> frozenset:
        """The cluster containing ``node``."""
        try:
            return self._clusters[self._membership[node]]
        except KeyError as exc:
            raise KeyError(f"node {node!r} not covered by this partition") from exc

    def cluster_index(self, node: Node) -> int:
        return self._membership[node]

    def membership(self) -> Dict[Node, int]:
        """``node -> cluster index`` with the canonical cluster ordering."""
        return dict(self._membership)

    def same_cluster(self, u: Node, v: Node) -> bool:
        return self._membership[u] == self._membership[v]

    def sizes(self) -> List[int]:
        return [len(cluster) for cluster in self._clusters]

    def restrict(self, nodes: Iterable[Node]) -> "Partition":
        """Partition induced on a subset of the nodes."""
        keep = set(nodes)
        missing = keep - set(self._membership)
        if missing:
            raise KeyError(f"nodes not covered: {sorted(map(repr, missing))[:3]}")
        clusters = [cluster & keep for cluster in self._clusters if cluster & keep]
        return Partition(clusters)

    # ------------------------------------------------------------------ #
    # comparisons
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return set(self._clusters) == set(other._clusters)

    def __hash__(self) -> int:
        return hash(frozenset(self._clusters))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(str(s) for s in self.sizes())
        return f"Partition(clusters={self.num_clusters}, sizes=[{sizes}])"
