"""Generated scenario families beyond the paper's Grid'5000 menu.

The paper evaluates on a fixed catalogue of Grid'5000 configurations.  The
factories here generate *families* of settings the paper never measured, to
exercise the tomography method on qualitatively different substrates:

* :func:`fat_tree_dataset` — a single-rooted fat-tree data centre with a
  configurable edge oversubscription ratio; oversubscribed racks become
  logical clusters, a non-blocking fabric collapses to one;
* :func:`random_bottleneck_dataset` — a flat site where a seeded layout RNG
  hides undersized uplinks behind randomly chosen clusters (the "find the
  bottleneck you didn't place" stress test);
* :func:`hetero_uplink_dataset` — several Grid'5000 sites whose Renater
  uplinks are provisioned heterogeneously, with a global ``squeeze`` knob
  made for parameter sweeps.

All three return the same :class:`~repro.experiments.datasets.Dataset`
bundle as the paper's factories, so the generic campaign pipeline, the CLI
and the benchmarks treat them identically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.clustering.partition import Partition
from repro.experiments.datasets import (
    Dataset,
    PaperExpectation,
    REFERENCE_PER_SITE,
)
from repro.network.grid5000 import (
    ACCESS_LATENCY,
    GRID5000_SITES,
    INTRA_SITE_LATENCY,
    NODE_ACCESS_CAPACITY,
    RENATER_CAPACITY,
    Grid5000Builder,
    default_cluster_of,
)
from repro.network.topology import GBPS, MBPS, Host, Switch, Topology
from repro.simulation.rng import derive_seed

#: Edge oversubscription at or above which a rack's uplink is contended
#: enough under all-to-all load to form its own logical cluster.
FAT_TREE_SPLIT_OVERSUBSCRIPTION = 2.0


def fat_tree_dataset(
    racks: int = 4,
    hosts_per_rack: int = 4,
    oversubscription: float = 4.0,
) -> Dataset:
    """A single-rooted fat-tree site with oversubscribed rack uplinks.

    Each rack's edge switch reaches the core through an uplink of capacity
    ``hosts_per_rack * access / oversubscription``.  With
    ``oversubscription >= 2`` the uplink saturates under all-to-all load and
    every rack is a logical cluster; a non-blocking fabric
    (``oversubscription <= 1``) has no internal contrast and the logical
    ground truth is a single cluster.
    """
    if racks < 2:
        raise ValueError("a fat-tree scenario needs at least two racks")
    if hosts_per_rack < 2:
        raise ValueError("each rack needs at least two hosts")
    if oversubscription <= 0:
        raise ValueError("oversubscription must be positive")

    uplink = hosts_per_rack * NODE_ACCESS_CAPACITY / oversubscription
    topology = Topology(name=f"fat-tree-{racks}x{hosts_per_rack}")
    topology.add_switch(Switch(name="core", site="dc"))
    rack_members: List[List[str]] = []
    for r in range(racks):
        edge = topology.add_switch(Switch(name=f"edge-{r}", site="dc"))
        topology.add_link(edge.name, "core", capacity=uplink, latency=INTRA_SITE_LATENCY)
        members: List[str] = []
        for i in range(hosts_per_rack):
            host = topology.add_host(
                Host(name=f"dc.rack{r}-{i}", site="dc", cluster=f"rack{r}")
            )
            topology.add_link(
                host.name, edge.name, capacity=NODE_ACCESS_CAPACITY, latency=ACCESS_LATENCY
            )
            members.append(host.name)
        rack_members.append(members)
    topology.validate_connected()

    hosts = topology.host_names
    split = oversubscription >= FAT_TREE_SPLIT_OVERSUBSCRIPTION
    if split:
        ground_truth = Partition([set(members) for members in rack_members])
        expected = racks
        shape = f"{racks} oversubscribed racks, one logical cluster each"
    else:
        ground_truth = Partition.whole(hosts)
        expected = 1
        shape = "non-blocking fabric, single logical cluster"
    expectation = PaperExpectation(
        expected_clusters=expected,
        paper_nmi=1.0,
        paper_iterations_to_converge=4,
        description=f"fat-tree {racks}x{hosts_per_rack}, "
        f"{oversubscription:g}:1 edge oversubscription — {shape}",
    )
    return Dataset(
        name=f"FATTREE-{racks}x{hosts_per_rack}",
        topology=topology,
        hosts=hosts,
        ground_truth=ground_truth,
        expectation=expectation,
        site_of={h: "dc" for h in hosts},
    )


def random_bottleneck_dataset(
    clusters: int = 5,
    hosts_per_cluster: int = 4,
    num_bottlenecks: int = 2,
    layout_seed: int = 1,
    bottleneck_capacity: float = 250 * MBPS,
    fast_capacity: float = 10 * GBPS,
) -> Dataset:
    """A flat site whose bottlenecks are placed by a seeded layout RNG.

    ``num_bottlenecks`` of the ``clusters`` Ethernet clusters are picked (by
    a stream derived from ``layout_seed``, independent of the measurement
    seed) to sit behind a severely undersized uplink.  The logical ground
    truth is one cluster per bottlenecked group plus a single merged cluster
    of all well-connected groups — the tomography has to find bottlenecks
    whose placement the experimenter did not choose.
    """
    if clusters < 2:
        raise ValueError("need at least two clusters")
    if hosts_per_cluster < 2:
        raise ValueError("each cluster needs at least two hosts")
    if not 1 <= num_bottlenecks <= clusters:
        raise ValueError("num_bottlenecks must be in [1, clusters]")

    rng = np.random.default_rng(derive_seed(layout_seed, "random-bottleneck"))
    slow = set(int(i) for i in rng.choice(clusters, size=num_bottlenecks, replace=False))

    topology = Topology(name=f"random-bottleneck-s{layout_seed}")
    topology.add_switch(Switch(name="core", site="dc"))
    members: Dict[int, List[str]] = {}
    for c in range(clusters):
        switch = topology.add_switch(Switch(name=f"c{c}.switch", site="dc"))
        capacity = bottleneck_capacity if c in slow else fast_capacity
        topology.add_link(
            switch.name,
            "core",
            capacity=capacity,
            latency=INTRA_SITE_LATENCY,
            name=f"c{c}.uplink" + (".bottleneck" if c in slow else ""),
        )
        members[c] = []
        for i in range(hosts_per_cluster):
            host = topology.add_host(
                Host(name=f"dc.c{c}-{i}", site="dc", cluster=f"c{c}")
            )
            topology.add_link(
                host.name, switch.name, capacity=NODE_ACCESS_CAPACITY, latency=ACCESS_LATENCY
            )
            members[c].append(host.name)
    topology.validate_connected()

    hosts = topology.host_names
    groups = [set(members[c]) for c in sorted(slow)]
    open_hosts = {h for c, names in members.items() if c not in slow for h in names}
    if open_hosts:
        groups.append(open_hosts)
    ground_truth = Partition(groups)
    expectation = PaperExpectation(
        expected_clusters=len(groups),
        paper_nmi=1.0,
        paper_iterations_to_converge=4,
        description=f"{clusters} clusters, {num_bottlenecks} random bottlenecks "
        f"(layout seed {layout_seed}: clusters {sorted(slow)})",
    )
    return Dataset(
        name=f"RANDBOT-{layout_seed}",
        topology=topology,
        hosts=hosts,
        ground_truth=ground_truth,
        expectation=expectation,
        site_of={h: "dc" for h in hosts},
    )


def hetero_uplink_dataset(
    per_site: int = 6,
    sites: Sequence[str] = ("grenoble", "toulouse", "lyon"),
    uplink_scales: Sequence[float] = (1.0, 0.45, 0.15),
    squeeze: float = 1.0,
) -> Dataset:
    """Grid'5000 sites with heterogeneously provisioned Renater uplinks.

    Site ``i`` joins the backbone through an uplink of capacity
    ``RENATER * uplink_scales[i] * squeeze`` (scaled to the requested
    per-site node count, as the paper-dataset factories do).  ``squeeze``
    uniformly tightens every uplink and is the natural axis for
    ``repro sweep HETERO-UPLINK --param squeeze``: large values leave the
    WAN uncontended (sites split only by TCP-window latency caps), small
    values progressively strangle the slowest sites.
    """
    if len(sites) < 2:
        raise ValueError("need at least two sites")
    if len(uplink_scales) != len(sites):
        raise ValueError("uplink_scales must match sites")
    if any(s <= 0 for s in uplink_scales) or squeeze <= 0:
        raise ValueError("uplink scales and squeeze must be positive")
    unknown = [s for s in sites if s not in GRID5000_SITES]
    if unknown:
        raise ValueError(f"unknown Grid'5000 sites: {unknown}")

    builder = Grid5000Builder()
    topology = Topology(name="hetero-uplink-" + "-".join(sites))
    core = "renater.core"
    topology.add_switch(Switch(name=core, site="renater"))
    base = RENATER_CAPACITY * min(per_site / float(REFERENCE_PER_SITE), 1.0)
    members: Dict[str, List[str]] = {}
    for site, scale in zip(sites, uplink_scales):
        router = builder.build_site(topology, site, {default_cluster_of(site): per_site})
        spec = GRID5000_SITES[site]
        topology.add_link(
            router,
            core,
            capacity=base * scale * squeeze,
            latency=spec.wan_latency,
            name=f"renater.{site}",
        )
        members[site] = [h for h in topology.host_names if topology.host(h).site == site]
    topology.validate_connected()

    hosts = topology.host_names
    ground_truth = Partition([set(names) for names in members.values()])
    expectation = PaperExpectation(
        expected_clusters=len(sites),
        paper_nmi=1.0,
        paper_iterations_to_converge=6,
        description="heterogeneous uplinks "
        + ", ".join(f"{s}×{u:g}" for s, u in zip(sites, uplink_scales))
        + f" (squeeze {squeeze:g})",
    )
    return Dataset(
        name="HETERO-UPLINK",
        topology=topology,
        hosts=hosts,
        ground_truth=ground_truth,
        expectation=expectation,
        site_of={h: topology.host(h).site for h in hosts},
    )
