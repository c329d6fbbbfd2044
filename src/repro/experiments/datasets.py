"""The paper's experimental datasets, expressed as topology + ground truth.

The paper names its datasets after the participating sites:

* ``2x2`` — 2 Bordeplage + 2 Borderline nodes (Section IV-B1); the 1 GbE
  inter-switch link is not a bottleneck at this scale, so the expected
  result is a single logical cluster;
* ``B``   — 64 Bordeaux nodes, 32 Bordeplage + 5 Borderline + 27 Bordereau
  (Fig. 8); ground truth has two logical clusters because Bordereau and
  Borderline share fast interconnects while Bordeplage sits behind the
  1 GbE bottleneck;
* ``BT``  — 32 Bordeaux + 32 Toulouse nodes (Fig. 9); the ground truth keeps
  the Bordeaux-internal split, giving three clusters, while the
  single-level clustering is expected to find only the two sites
  (NMI ≈ 0.7);
* ``GT``  — 32 Grenoble + 32 Toulouse (Fig. 10), two flat sites;
* ``BGT`` — 32 Bordeaux (well-connected clusters only) + 32 Grenoble +
  32 Toulouse (Fig. 11);
* ``BGTL`` — 16 nodes each in Bordeaux, Grenoble, Toulouse, Lyon (Fig. 12),
  the setting that needs the most iterations (~15) to converge.

Every dataset also records the paper's expectations (cluster count, NMI
behaviour) so the benchmark harness can print paper-vs-measured rows.

Scaled testbed
--------------
The paper runs 32 nodes per site (64–96 hosts per experiment).  The simulated
campaigns default to smaller node counts so that dozens of measurement
iterations stay cheap.  The contrast the metric relies on, however, is a
*contention ratio*: e.g. 32 Bordeplage nodes pushing through a single 1 GbE
inter-switch link, or two sites' worth of upload capacity squeezed through a
10 Gb/s Renater uplink.  To preserve those ratios at reduced scale, the
dataset factories scale the shared links (site bottleneck, site uplinks and
the Renater backbone) by ``requested nodes / reference nodes`` while leaving
the per-node access links untouched.  Full-scale datasets (32 per site) use
the unscaled, physical capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.clustering.partition import Partition
from repro.network.grid5000 import (
    BORDEAUX_BOTTLENECK_CAPACITY,
    FAST_INTERCONNECT_CAPACITY,
    RENATER_CAPACITY,
    Grid5000Builder,
    default_cluster_of,
)
from repro.network.topology import Topology

#: Per-site node count the paper uses; capacity scaling is relative to this.
REFERENCE_PER_SITE = 32


def scaled_builder(per_site: int, reference: int = REFERENCE_PER_SITE) -> Grid5000Builder:
    """A topology builder whose shared links are scaled to ``per_site`` nodes.

    The per-node access links keep their physical 890 Mb/s capacity; the
    shared resources (Bordeaux's 1 GbE bottleneck, the 10 Gb/s intra-site
    interconnects and the Renater uplinks) are scaled by
    ``per_site / reference`` so that the contention ratios under all-to-all
    load match the paper's 32-nodes-per-site experiments.  With
    ``per_site >= reference`` the physical capacities are used unchanged.
    """
    if per_site < 1:
        raise ValueError("per_site must be at least 1")
    scale = min(per_site / float(reference), 1.0)
    return Grid5000Builder(
        bottleneck_capacity=BORDEAUX_BOTTLENECK_CAPACITY * scale,
        interconnect_capacity=FAST_INTERCONNECT_CAPACITY * scale,
        renater_capacity=RENATER_CAPACITY * scale,
    )


@dataclass(frozen=True)
class PaperExpectation:
    """What the paper reports for a dataset (the reproduction target *shape*)."""

    expected_clusters: int
    paper_nmi: float
    paper_iterations_to_converge: int
    description: str


@dataclass
class Dataset:
    """A named experimental setting: topology, participating hosts, ground truth."""

    name: str
    topology: Topology
    hosts: List[str]
    ground_truth: Partition
    expectation: PaperExpectation
    site_of: Dict[str, str] = field(default_factory=dict)

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def local_cluster_of(self, host: str) -> List[str]:
        """Hosts sharing the ground-truth cluster of ``host`` (excluding it)."""
        cluster = self.ground_truth.cluster_of(host)
        return sorted(h for h in cluster if h != host)


# ---------------------------------------------------------------------- #
# builders
# ---------------------------------------------------------------------- #
def _bordeaux_ground_truth(topology: Topology, hosts: List[str]) -> Partition:
    """Bordeaux logical ground truth: Bordeplage vs (Bordereau ∪ Borderline)."""
    bordeplage = {h for h in hosts if topology.host(h).cluster == "bordeplage"}
    rest = {h for h in hosts if h not in bordeplage}
    clusters = [c for c in (bordeplage, rest) if c]
    return Partition(clusters)


def dataset_2x2(seed_label: str = "2x2") -> Dataset:
    """Section IV-B1: 2 Bordeplage + 2 Borderline nodes, one logical cluster."""
    builder = Grid5000Builder()
    topology = builder.build_single_site(
        "bordeaux", {"bordeplage": 2, "borderline": 2}, name="grid5000-bordeaux-2x2"
    )
    hosts = topology.host_names
    # At this scale the 1 GbE inter-switch link is not a bottleneck, so the
    # *logical* ground truth is a single cluster (what the paper's method found
    # and what the text argues is correct for the 2x2 setting).
    ground_truth = Partition.whole(hosts)
    expectation = PaperExpectation(
        expected_clusters=1,
        paper_nmi=1.0,
        paper_iterations_to_converge=2,
        description="2+2 nodes, no effective bottleneck, single logical cluster",
    )
    return Dataset(
        name=seed_label,
        topology=topology,
        hosts=hosts,
        ground_truth=ground_truth,
        expectation=expectation,
        site_of={h: "bordeaux" for h in hosts},
    )


def dataset_b(bordeplage: int = 32, bordereau: int = 27, borderline: int = 5) -> Dataset:
    """Dataset 'B' (Fig. 8): one site, 64 nodes, two logical clusters."""
    builder = scaled_builder(bordeplage)
    topology = builder.build_single_site(
        "bordeaux",
        {"bordeplage": bordeplage, "bordereau": bordereau, "borderline": borderline},
    )
    hosts = topology.host_names
    ground_truth = _bordeaux_ground_truth(topology, hosts)
    expectation = PaperExpectation(
        expected_clusters=2,
        paper_nmi=1.0,
        paper_iterations_to_converge=2,
        description="Bordeaux 64 nodes; Bordeplage split off by the 1 GbE bottleneck",
    )
    return Dataset(
        name="B",
        topology=topology,
        hosts=hosts,
        ground_truth=ground_truth,
        expectation=expectation,
        site_of={h: "bordeaux" for h in hosts},
    )


def bordeaux_split(per_site: int) -> Dict[str, int]:
    """The :func:`dataset_b` cluster sizes for ``per_site`` Bordeplage nodes
    at reduced scale: Bordereau three quarters of it, Borderline a quarter
    (at least one node each)."""
    return {
        "bordeplage": per_site,
        "bordereau": max(per_site - per_site // 4, 1),
        "borderline": max(per_site // 4, 1),
    }


def _multi_site_dataset(
    name: str,
    site_nodes: Mapping[str, int],
    split_bordeaux: bool,
    expectation: PaperExpectation,
    bordeaux_clusters: Optional[Mapping[str, int]] = None,
) -> Dataset:
    builder = scaled_builder(max(site_nodes.values()))
    request: Dict[str, Dict[str, int]] = {}
    for site, count in site_nodes.items():
        if site == "bordeaux":
            if bordeaux_clusters is not None:
                request[site] = dict(bordeaux_clusters)
            elif split_bordeaux:
                half = count // 2
                request[site] = {"bordeplage": half, "bordereau": count - half}
            else:
                # Only the well-connected clusters, as in the 3- and 4-site runs.
                request[site] = {"bordereau": count - count // 4, "borderline": count // 4}
        else:
            request[site] = {default_cluster_of(site): count}
    topology = builder.build_multi_site(request)
    hosts = topology.host_names
    site_of = {h: topology.host(h).site for h in hosts}

    clusters: List[set] = []
    for site in site_nodes:
        members = {h for h in hosts if site_of[h] == site}
        if site == "bordeaux" and split_bordeaux:
            bordeplage = {h for h in members if topology.host(h).cluster == "bordeplage"}
            rest = members - bordeplage
            clusters.extend(c for c in (bordeplage, rest) if c)
        else:
            clusters.append(members)
    ground_truth = Partition(clusters)
    return Dataset(
        name=name,
        topology=topology,
        hosts=hosts,
        ground_truth=ground_truth,
        expectation=expectation,
        site_of=site_of,
    )


def dataset_bt(per_site: int = 32) -> Dataset:
    """Dataset 'BT' (Fig. 9): Bordeaux + Toulouse, 3-way ground truth."""
    expectation = PaperExpectation(
        expected_clusters=2,
        paper_nmi=0.7,
        paper_iterations_to_converge=4,
        description=(
            "Bordeaux+Toulouse; single-level clustering finds the two sites, "
            "missing the Bordeaux-internal split, hence NMI ≈ 0.7"
        ),
    )
    return _multi_site_dataset(
        "B-T",
        {"bordeaux": per_site, "toulouse": per_site},
        split_bordeaux=True,
        expectation=expectation,
    )


def dataset_gt(per_site: int = 32) -> Dataset:
    """Dataset 'GT' (Fig. 10): Grenoble + Toulouse, two flat sites."""
    expectation = PaperExpectation(
        expected_clusters=2,
        paper_nmi=1.0,
        paper_iterations_to_converge=2,
        description="Grenoble+Toulouse, flat Ethernet within each site",
    )
    return _multi_site_dataset(
        "G-T",
        {"grenoble": per_site, "toulouse": per_site},
        split_bordeaux=False,
        expectation=expectation,
    )


def dataset_bgt(per_site: int = 32) -> Dataset:
    """Dataset 'BGT' (Fig. 11): Bordeaux (well-connected part) + Grenoble + Toulouse."""
    expectation = PaperExpectation(
        expected_clusters=3,
        paper_nmi=1.0,
        paper_iterations_to_converge=2,
        description="three sites, one logical cluster each",
    )
    return _multi_site_dataset(
        "B-G-T",
        {"bordeaux": per_site, "grenoble": per_site, "toulouse": per_site},
        split_bordeaux=False,
        expectation=expectation,
    )


def dataset_bgtl(per_site: int = 16) -> Dataset:
    """Dataset 'BGTL' (Fig. 12): four sites, 16 nodes each, slowest to converge."""
    expectation = PaperExpectation(
        expected_clusters=4,
        paper_nmi=1.0,
        paper_iterations_to_converge=15,
        description="four sites; needs the most iterations (~15) in the paper",
    )
    return _multi_site_dataset(
        "B-G-T-L",
        {
            "bordeaux": per_site,
            "grenoble": per_site,
            "toulouse": per_site,
            "lyon": per_site,
        },
        split_bordeaux=False,
        expectation=expectation,
    )


def dataset_nested(alpha: int = 6, beta: int = 6, gamma: int = 12) -> Dataset:
    """A two-level ("hierarchical") scenario for the paper's future-work extension.

    One data-centre site with three Ethernet clusters:

    * ``alpha`` and ``beta`` — well connected to each other through moderately
      provisioned uplinks (mild contention under all-to-all load, like
      Bordereau/Borderline);
    * ``gamma`` — behind a severely undersized uplink (a Bordeplage-style
      bottleneck).

    The *fine* ground truth (stored in :attr:`Dataset.ground_truth`) has three
    clusters.  The *coarse* ground truth — ``{alpha ∪ beta}`` vs ``{gamma}`` —
    is what a single-level modularity clustering typically recovers, because
    the alpha/beta contrast is weak relative to the whole graph (the same
    effect that caps the paper's B-T dataset at NMI ≈ 0.7).  The hierarchical
    clustering extension (``repro.clustering.hierarchical``) recovers both
    levels; see ``benchmarks/test_bench_ext_hierarchical.py``.
    """
    from repro.network.topology import MBPS, Host, Switch, Topology

    sizes = {"alpha": alpha, "beta": beta, "gamma": gamma}
    if any(n < 2 for n in sizes.values()):
        raise ValueError("each cluster needs at least two nodes")
    uplinks = {"alpha": 1200 * MBPS, "beta": 1200 * MBPS, "gamma": 250 * MBPS}

    topology = Topology(name="nested-hierarchy")
    topology.add_switch(Switch(name="core", site="dc"))
    clusters: Dict[str, List[str]] = {}
    for name, count in sizes.items():
        switch = topology.add_switch(Switch(name=f"{name}.switch", site="dc"))
        topology.add_link(switch.name, "core", capacity=uplinks[name], latency=5e-5)
        clusters[name] = []
        for i in range(count):
            host = topology.add_host(
                Host(name=f"dc.{name}-{i}", site="dc", cluster=name)
            )
            topology.add_link(host.name, switch.name, capacity=890 * MBPS, latency=5e-5)
            clusters[name].append(host.name)
    topology.validate_connected()

    hosts = topology.host_names
    ground_truth = Partition([set(members) for members in clusters.values()])
    expectation = PaperExpectation(
        expected_clusters=2,
        paper_nmi=0.7,
        paper_iterations_to_converge=4,
        description=(
            "two-level hierarchy: single-level clustering finds the coarse split "
            "only (the paper's B-T failure mode); the hierarchical extension "
            "recovers both levels"
        ),
    )
    return Dataset(
        name="NESTED",
        topology=topology,
        hosts=hosts,
        ground_truth=ground_truth,
        expectation=expectation,
        site_of={h: "dc" for h in hosts},
    )


def nested_coarse_ground_truth(ds: Dataset) -> Partition:
    """The coarse (two-way) ground truth of :func:`dataset_nested`."""
    if ds.name != "NESTED":
        raise ValueError("coarse ground truth is only defined for the NESTED dataset")
    alpha_beta = {
        h for h in ds.hosts if ds.topology.host(h).cluster in ("alpha", "beta")
    }
    gamma = {h for h in ds.hosts if ds.topology.host(h).cluster == "gamma"}
    return Partition([alpha_beta, gamma])


#: Registry of dataset factories keyed by the names used in Fig. 13.
DATASETS: Dict[str, Callable[[], Dataset]] = {
    "2x2": dataset_2x2,
    "B": dataset_b,
    "B-T": dataset_bt,
    "G-T": dataset_gt,
    "B-G-T": dataset_bgt,
    "B-G-T-L": dataset_bgtl,
}


def dataset(name: str, **kwargs) -> Dataset:
    """Instantiate a dataset by its Fig. 13 name (``"B"``, ``"B-T"``, ...)."""
    try:
        factory = DATASETS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from exc
    return factory(**kwargs)
