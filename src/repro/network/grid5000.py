"""Synthetic Grid'5000 topologies modelled on the paper's description.

The paper evaluates on the Grid'5000 testbed: nine French sites connected by
the Renater optical backbone (10 Gb/s), each site containing one or more
Ethernet compute clusters.  The experiments use four sites — Bordeaux,
Toulouse, Grenoble and Lyon — and the Bordeaux site is the interesting one: it
contains three physical clusters (Bordeplage, Bordereau, Borderline) where the
link between the Dell and Cisco switches is a single 1 GbE bottleneck, so
Bordeplage forms its own *logical* cluster under all-to-all load while
Bordereau and Borderline merge into one.

This module builds :class:`~repro.network.topology.Topology` objects with the
same structure and with capacities/latencies chosen so that the two reference
numbers quoted in the paper hold on the simulator:

* NetPIPE-style point-to-point bandwidth inside an Ethernet cluster
  ≈ 890 Mb/s (the node access links);
* point-to-point bandwidth between two sites ≈ 787 Mb/s (TCP window of
  ~1 MiB over a ~10 ms RTT WAN path — see :func:`tcp_rate_cap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.network.routing import RoutingTable
from repro.network.topology import GBPS, MBPS, Host, Switch, Topology, TopologyError

#: Effective point-to-point capacity of a node's GigE access link (bytes/s).
NODE_ACCESS_CAPACITY = 890 * MBPS

#: Capacity of the single inter-switch bottleneck link inside Bordeaux.
BORDEAUX_BOTTLENECK_CAPACITY = 1.0 * GBPS

#: Capacity of intra-site switch interconnects that are *not* bottlenecks.
FAST_INTERCONNECT_CAPACITY = 10.0 * GBPS

#: Capacity of a site's uplink into the Renater backbone.
RENATER_CAPACITY = 10.0 * GBPS

#: One-way latency of a node access link (seconds).
ACCESS_LATENCY = 50e-6

#: One-way latency of an intra-site switch-to-switch link (seconds).
INTRA_SITE_LATENCY = 50e-6

#: Default TCP window used for the per-flow WAN rate cap (bytes).
DEFAULT_TCP_WINDOW = 1_048_576.0


@dataclass(frozen=True)
class SiteSpec:
    """Declarative description of one Grid'5000 site.

    Attributes
    ----------
    name:
        Site name, e.g. ``"bordeaux"``.
    clusters:
        Mapping ``cluster name -> node count``.
    bottleneck_clusters:
        Clusters that sit behind the site's internal bottleneck link (only
        Bordeaux/Bordeplage in the paper).  Empty for flat sites.
    wan_latency:
        One-way latency from the site router to the Renater core (seconds).
        Chosen per-site so that inter-site RTTs are on the order of 10 ms.
    """

    name: str
    clusters: Mapping[str, int]
    bottleneck_clusters: Tuple[str, ...] = ()
    wan_latency: float = 2.6e-3


#: Reference site catalogue (node counts far exceed what experiments request;
#: builders trim to the requested sizes).
GRID5000_SITES: Dict[str, SiteSpec] = {
    "bordeaux": SiteSpec(
        name="bordeaux",
        clusters={"bordeplage": 51, "bordereau": 93, "borderline": 10},
        bottleneck_clusters=("bordeplage",),
        wan_latency=2.7e-3,
    ),
    "toulouse": SiteSpec(
        name="toulouse", clusters={"pastel": 140}, wan_latency=2.6e-3
    ),
    "grenoble": SiteSpec(
        name="grenoble", clusters={"genepi": 136}, wan_latency=2.4e-3
    ),
    "lyon": SiteSpec(name="lyon", clusters={"sagittaire": 79}, wan_latency=1.2e-3),
    "lille": SiteSpec(name="lille", clusters={"chinqchint": 46}, wan_latency=2.2e-3),
    "nancy": SiteSpec(name="nancy", clusters={"griffon": 92}, wan_latency=2.0e-3),
    "orsay": SiteSpec(name="orsay", clusters={"gdx": 180}, wan_latency=1.8e-3),
    "rennes": SiteSpec(name="rennes", clusters={"paravent": 99}, wan_latency=2.8e-3),
    "sophia": SiteSpec(name="sophia", clusters={"suno": 45}, wan_latency=3.0e-3),
}


def host_name(site: str, cluster: str, index: int) -> str:
    """Canonical host naming used by all builders: ``site.cluster-<index>``."""
    return f"{site}.{cluster}-{index}"


def tcp_rate_cap(rtt: float, window: float = DEFAULT_TCP_WINDOW) -> float:
    """Per-flow TCP throughput cap ``window / RTT`` in bytes/second.

    The paper's inter-site point-to-point bandwidth (≈787 Mb/s between
    Bordeaux and Toulouse) is below the 10 Gb/s Renater capacity because a
    single TCP stream is window-limited over the WAN round-trip time.  The
    fluid model reproduces that with this cap; intra-site RTTs are so small
    that the cap never binds there.
    """
    if rtt <= 0:
        return float("inf")
    return float(window) / float(rtt)


class Grid5000Builder:
    """Builds single- and multi-site Grid'5000-like topologies."""

    def __init__(
        self,
        site_specs: Optional[Mapping[str, SiteSpec]] = None,
        node_capacity: float = NODE_ACCESS_CAPACITY,
        bottleneck_capacity: float = BORDEAUX_BOTTLENECK_CAPACITY,
        interconnect_capacity: float = FAST_INTERCONNECT_CAPACITY,
        renater_capacity: float = RENATER_CAPACITY,
    ) -> None:
        self.site_specs = dict(site_specs or GRID5000_SITES)
        self.node_capacity = node_capacity
        self.bottleneck_capacity = bottleneck_capacity
        self.interconnect_capacity = interconnect_capacity
        self.renater_capacity = renater_capacity

    # ------------------------------------------------------------------ #
    # single site
    # ------------------------------------------------------------------ #
    def build_site(
        self,
        topology: Topology,
        site: str,
        nodes_per_cluster: Mapping[str, int],
    ) -> str:
        """Add one site to ``topology`` and return the name of its site router."""
        if site not in self.site_specs:
            raise TopologyError(f"unknown Grid'5000 site {site!r}")
        spec = self.site_specs[site]
        router = f"{site}.router"
        topology.add_switch(Switch(name=router, site=site))

        for cluster, count in nodes_per_cluster.items():
            if cluster not in spec.clusters:
                raise TopologyError(f"site {site!r} has no cluster {cluster!r}")
            if count < 0:
                raise TopologyError("node counts must be non-negative")
            if count > spec.clusters[cluster]:
                raise TopologyError(
                    f"cluster {site}/{cluster} has only {spec.clusters[cluster]} nodes, "
                    f"requested {count}"
                )
            switch = f"{site}.{cluster}.switch"
            topology.add_switch(Switch(name=switch, site=site))
            for i in range(count):
                host = topology.add_host(
                    Host(name=host_name(site, cluster, i), site=site, cluster=cluster)
                )
                topology.add_link(
                    host.name,
                    switch,
                    capacity=self.node_capacity,
                    latency=ACCESS_LATENCY,
                )
            if cluster in spec.bottleneck_clusters:
                # e.g. Bordeplage's Cisco switch reaches the rest of the site
                # through a single 1 GbE link (the paper's bottleneck).
                topology.add_link(
                    switch,
                    router,
                    capacity=self.bottleneck_capacity,
                    latency=INTRA_SITE_LATENCY,
                    name=f"{site}.{cluster}.bottleneck",
                )
            else:
                topology.add_link(
                    switch,
                    router,
                    capacity=self.interconnect_capacity,
                    latency=INTRA_SITE_LATENCY,
                )
        return router

    def build_single_site(
        self, site: str, nodes_per_cluster: Mapping[str, int], name: Optional[str] = None
    ) -> Topology:
        """Build a topology containing a single site (no WAN)."""
        topology = Topology(name=name or f"grid5000-{site}")
        self.build_site(topology, site, nodes_per_cluster)
        topology.validate_connected()
        return topology

    # ------------------------------------------------------------------ #
    # multi site
    # ------------------------------------------------------------------ #
    def build_multi_site(
        self,
        nodes: Mapping[str, Mapping[str, int]],
        name: Optional[str] = None,
    ) -> Topology:
        """Build several sites joined by a Renater-like star backbone.

        Parameters
        ----------
        nodes:
            ``site -> {cluster -> node count}``.
        """
        if not nodes:
            raise TopologyError("at least one site is required")
        topology = Topology(name=name or "grid5000-" + "-".join(sorted(nodes)))
        core = "renater.core"
        topology.add_switch(Switch(name=core, site="renater"))
        for site, clusters in nodes.items():
            router = self.build_site(topology, site, clusters)
            spec = self.site_specs[site]
            topology.add_link(
                router,
                core,
                capacity=self.renater_capacity,
                latency=spec.wan_latency,
                name=f"renater.{site}",
            )
        topology.validate_connected()
        return topology


# ---------------------------------------------------------------------- #
# convenience constructors used throughout tests / experiments
# ---------------------------------------------------------------------- #
def build_bordeaux_site(
    bordeplage: int = 32, bordereau: int = 27, borderline: int = 5
) -> Topology:
    """The paper's 64-node Bordeaux configuration (Fig. 7 / Fig. 8, dataset B)."""
    builder = Grid5000Builder()
    return builder.build_single_site(
        "bordeaux",
        {"bordeplage": bordeplage, "bordereau": bordereau, "borderline": borderline},
    )


def build_flat_site(site: str, count: int) -> Topology:
    """A site with a flat Ethernet hierarchy (Grenoble, Toulouse, Lyon)."""
    builder = Grid5000Builder()
    spec = GRID5000_SITES[site]
    cluster = next(iter(spec.clusters))
    return builder.build_single_site(site, {cluster: count})


def build_multi_site(nodes: Mapping[str, Mapping[str, int]]) -> Topology:
    """Multi-site topology over the Renater-like backbone."""
    return Grid5000Builder().build_multi_site(nodes)


def default_cluster_of(site: str) -> str:
    """First (default) cluster name of a site in the catalogue."""
    return next(iter(GRID5000_SITES[site].clusters))


def path_rtt(routing: RoutingTable, src: str, dst: str) -> float:
    """Round-trip time between two hosts (twice the one-way path latency)."""
    return 2.0 * routing.path_latency(src, dst)


def flow_rate_cap(
    routing: RoutingTable, src: str, dst: str, window: float = DEFAULT_TCP_WINDOW
) -> float:
    """Per-flow rate cap for a host pair, from the TCP window / RTT model."""
    return tcp_rate_cap(path_rtt(routing, src, dst), window)
