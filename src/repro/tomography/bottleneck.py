"""Locating bottleneck links from a recovered clustering.

The paper's conclusion highlights that the method "correctly identified
communication bottleneck links ... by placing the nodes communicating across
the bottleneck link in different logical clusters".  Given the logical
clusters and a routing view of the (physical or assumed) topology, the links
shared by inter-cluster routes are exactly the candidate bottlenecks; ranking
them by how many inter-cluster host pairs traverse them pinpoints the culprit
(the Dell↔Cisco 1 GbE link in Bordeaux).

This analysis needs topology knowledge and is therefore a *diagnosis* step on
top of the tomography output, not part of the measurement: the measurement
itself never looks at the physical topology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.clustering.partition import Partition
from repro.network.routing import RoutingTable
from repro.network.topology import Topology


@dataclass(frozen=True)
class BottleneckReport:
    """Candidate bottleneck links between two logical clusters.

    Attributes
    ----------
    cluster_a, cluster_b:
        Indices of the two clusters in the partition.
    shared_links:
        Link names traversed by *every* inter-cluster route, i.e. links whose
        failure or saturation affects all traffic between the clusters.
    link_pair_counts:
        For every link appearing on at least one inter-cluster route, the
        number of inter-cluster host pairs routed across it.
    pair_count:
        Total number of inter-cluster host pairs considered.
    """

    cluster_a: int
    cluster_b: int
    shared_links: Tuple[str, ...]
    link_pair_counts: Dict[str, int]
    pair_count: int


def find_bottleneck_links(
    topology: Topology,
    partition: Partition,
    routing: Optional[RoutingTable] = None,
    max_pairs_per_cluster_pair: int = 64,
) -> List[BottleneckReport]:
    """Identify candidate bottleneck links for every pair of logical clusters.

    Parameters
    ----------
    topology:
        The (physical or assumed) topology to diagnose against.
    partition:
        Logical clusters recovered by the tomography pipeline; every member
        must be a host of the topology.
    routing:
        Optional pre-built routing table.
    max_pairs_per_cluster_pair:
        Cap on the number of host pairs sampled per cluster pair (routes in
        Grid'5000-style networks are highly redundant, so a sample suffices
        and keeps the analysis linear in practice).

    Returns
    -------
    list of BottleneckReport
        One report per unordered pair of clusters, in cluster-index order.
    """
    if max_pairs_per_cluster_pair < 1:
        raise ValueError("max_pairs_per_cluster_pair must be at least 1")
    for node in partition.nodes():
        if not topology.is_host(node):
            raise ValueError(f"partition member {node!r} is not a host of the topology")
    routing = routing or RoutingTable(topology)

    clusters = [sorted(cluster, key=str) for cluster in partition.clusters]
    # Sort the narrowest links first so ties in the ranking favour them.
    capacity = {link.name: link.capacity for link in topology.links}

    reports: List[BottleneckReport] = []
    for index_a, index_b in itertools.combinations(range(len(clusters)), 2):
        pairs = list(itertools.product(clusters[index_a], clusters[index_b]))
        pairs = pairs[:max_pairs_per_cluster_pair]
        shared: Optional[set] = None
        counts: Dict[str, int] = {}
        for src, dst in pairs:
            route = set(routing.route(src, dst))
            shared = route if shared is None else (shared & route)
            for link in route:
                counts[link] = counts.get(link, 0) + 1
        shared_links = tuple(
            sorted(shared or (), key=lambda name: (capacity.get(name, float("inf")), name))
        )
        reports.append(
            BottleneckReport(
                cluster_a=index_a,
                cluster_b=index_b,
                shared_links=shared_links,
                link_pair_counts=counts,
                pair_count=len(pairs),
            )
        )
    return reports


def describe_bottlenecks(
    topology: Topology, reports: Sequence[BottleneckReport]
) -> str:
    """Human-readable summary of bottleneck reports (used by examples/CLI)."""
    lines: List[str] = []
    for report in reports:
        lines.append(
            f"clusters {report.cluster_a} <-> {report.cluster_b} "
            f"({report.pair_count} host pairs considered):"
        )
        if not report.shared_links:
            lines.append("  no link is shared by every inter-cluster route")
            continue
        for name in report.shared_links:
            link = topology.link(name)
            lines.append(
                f"  shared link {name}: capacity {link.capacity * 8 / 1e9:.2f} Gb/s"
            )
    return "\n".join(lines)
