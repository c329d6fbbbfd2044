#!/usr/bin/env python3
"""Using the library on your own network model, and comparing with baselines.

The tomography pipeline is not tied to the Grid'5000 builders: any
:class:`repro.network.topology.Topology` works.  This example builds a small
"clusters of clusters" network by hand (three racks behind an oversubscribed
core switch), runs the BitTorrent tomography, and compares its measurement
cost and clustering quality against the classical pairwise and triplet
saturation baselines on the same network.

Run with:  python examples/custom_topology.py
"""

from repro.clustering.nmi import overlapping_nmi
from repro.clustering.partition import Partition
from repro.network.topology import GBPS, MBPS, Host, Switch, Topology
from repro.tomography.baselines import (
    PairwiseSaturationTomography,
    TripletSaturationTomography,
)
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config


def build_three_rack_network(nodes_per_rack: int = 5) -> Topology:
    """Three racks of GigE nodes behind an oversubscribed core switch."""
    topo = Topology(name="three-racks")
    core = topo.add_switch(Switch(name="core"))
    for rack in range(3):
        rack_switch = topo.add_switch(Switch(name=f"rack{rack}.switch"))
        # The rack uplink is the shared resource: 2 Gb/s for 5 GigE nodes.
        topo.add_link(rack_switch.name, core.name, capacity=2 * GBPS, latency=1e-4)
        for i in range(nodes_per_rack):
            host = topo.add_host(
                Host(name=f"rack{rack}.node{i}", site="dc", cluster=f"rack{rack}")
            )
            topo.add_link(host.name, rack_switch.name, capacity=900 * MBPS, latency=5e-5)
    topo.validate_connected()
    return topo


def main() -> None:
    topology = build_three_rack_network()
    ground_truth = Partition(
        [
            {h.name for h in topology.hosts if h.cluster == f"rack{r}"}
            for r in range(3)
        ]
    )

    # --- BitTorrent tomography ------------------------------------------- #
    pipeline = TomographyPipeline(
        topology,
        ground_truth=ground_truth,
        config=default_swarm_config(500),
        seed=11,
    )
    bt_result = pipeline.run(iterations=8)
    print("BitTorrent tomography:")
    print(f"  clusters found:        {bt_result.num_clusters}")
    print(f"  NMI vs ground truth:   {bt_result.nmi:.2f}")
    print(f"  measurement time:      {bt_result.measurement_time:.1f} simulated s")

    # --- classical baselines --------------------------------------------- #
    pairwise = PairwiseSaturationTomography(topology, probe_size=32e6, seed=1).run()
    triplet = TripletSaturationTomography(
        topology, hosts=topology.host_names[:9], probe_size=32e6
    ).run()

    print("\nPairwise saturation baseline (O(N^2) probes):")
    print(f"  probes:                {pairwise.probes}")
    print(f"  measurement time:      {pairwise.measurement_time:.1f} simulated s")
    print(f"  NMI vs ground truth:   {overlapping_nmi(pairwise.partition, ground_truth):.2f}")

    truth_9 = ground_truth.restrict(topology.host_names[:9])
    print("\nTriplet saturation baseline (O(N^3) probes, first 9 hosts only):")
    print(f"  probes:                {triplet.probes}")
    print(f"  measurement time:      {triplet.measurement_time:.1f} simulated s")
    print(f"  NMI vs ground truth:   {overlapping_nmi(triplet.partition, truth_9):.2f}")
    print(f"  interfering pair-pairs detected: {len(triplet.interference)}")

    print("\nThe BitTorrent campaign measures every edge of the network in a")
    print("handful of broadcasts, while the baselines' cost grows polynomially")
    print("with the node count (the paper's efficiency argument, Section II-B).")


if __name__ == "__main__":
    main()
