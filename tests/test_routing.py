"""Unit tests for shortest-path routing."""

import itertools
import warnings

import pytest

from repro.network.routing import RoutingTable
from repro.network.topology import MBPS, Host, Switch, Topology, TopologyError
from repro.observability.metrics import METRICS


class TestRouting:
    def test_route_within_cluster_is_two_hops(self, dumbbell_topology):
        routing = RoutingTable(dumbbell_topology)
        route = routing.route("left-0", "left-1")
        assert len(route) == 2
        assert all("sw-left" in name for name in route)

    def test_route_across_bottleneck(self, dumbbell_topology):
        routing = RoutingTable(dumbbell_topology)
        route = routing.route("left-0", "right-0")
        assert "bottleneck" in route
        assert len(route) == 3

    def test_route_to_self_is_empty(self, dumbbell_topology):
        routing = RoutingTable(dumbbell_topology)
        assert routing.route("left-0", "left-0") == []

    def test_routes_are_symmetric_in_length(self, dumbbell_topology):
        routing = RoutingTable(dumbbell_topology)
        forward = routing.route("left-0", "right-2")
        backward = routing.route("right-2", "left-0")
        assert len(forward) == len(backward)
        assert set(forward) == set(backward)

    def test_unknown_source_raises(self, dumbbell_topology):
        routing = RoutingTable(dumbbell_topology)
        with pytest.raises(TopologyError):
            routing.route("ghost", "left-0")

    def test_hosts_do_not_forward_transit_traffic(self):
        # a -- b -- c where b is a *host*: no route a->c may pass through b.
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_host(Host(name=name))
        topo.add_link("a", "b", capacity=10 * MBPS)
        topo.add_link("b", "c", capacity=10 * MBPS)
        routing = RoutingTable(topo)
        with pytest.raises(TopologyError):
            routing.route("a", "c")
        # Direct neighbours still reachable.
        assert len(routing.route("a", "b")) == 1

    def test_bottleneck_capacity(self, line_topology):
        routing = RoutingTable(line_topology)
        assert routing.bottleneck_capacity("a", "c") == pytest.approx(25 * MBPS)
        assert routing.bottleneck_capacity("a", "b") == pytest.approx(50 * MBPS)
        assert routing.bottleneck_capacity("a", "a") == float("inf")

    def test_path_latency_accumulates(self, dumbbell_topology):
        routing = RoutingTable(dumbbell_topology)
        intra = routing.path_latency("left-0", "left-1")
        inter = routing.path_latency("left-0", "right-0")
        assert inter > intra > 0

    def test_prefers_lower_latency_path(self):
        topo = Topology()
        topo.add_host(Host(name="a"))
        topo.add_host(Host(name="b"))
        topo.add_switch(Switch(name="fast"))
        topo.add_switch(Switch(name="slow1"))
        topo.add_switch(Switch(name="slow2"))
        topo.add_link("a", "fast", capacity=10 * MBPS, latency=1e-5)
        topo.add_link("fast", "b", capacity=10 * MBPS, latency=1e-5)
        topo.add_link("a", "slow1", capacity=10 * MBPS, latency=1e-3)
        topo.add_link("slow1", "slow2", capacity=10 * MBPS, latency=1e-3)
        topo.add_link("slow2", "b", capacity=10 * MBPS, latency=1e-3)
        routing = RoutingTable(topo)
        route = routing.route("a", "b")
        assert len(route) == 2
        assert all("fast" in name for name in route)

    def test_grid5000_routes_use_renater_for_inter_site(self, two_site_topology):
        routing = RoutingTable(two_site_topology)
        hosts = two_site_topology.host_names
        grenoble = [h for h in hosts if h.startswith("grenoble")]
        toulouse = [h for h in hosts if h.startswith("toulouse")]
        route = routing.route(grenoble[0], toulouse[0])
        assert any(name.startswith("renater.") for name in route)
        intra = routing.route(grenoble[0], grenoble[1])
        assert not any(name.startswith("renater.") for name in intra)


# --------------------------------------------------------------------- #
# avoid-set routing: the control plane's self-healing recompute
# --------------------------------------------------------------------- #
def _without_link(topo: Topology, link_name: str) -> Topology:
    """A fresh topology identical to ``topo`` minus one link."""
    clone = Topology(name=f"{topo.name}-sans-{link_name}")
    for host in topo.hosts:
        clone.add_host(host)
    for switch in topo.switches:
        clone.add_switch(switch)
    for link in topo.links:
        if link.name != link_name:
            clone.add_link(link.a, link.b, capacity=link.capacity,
                           latency=link.latency, name=link.name)
    return clone


def _dumbbell_with_backup(dumbbell_topology: Topology) -> Topology:
    # A dormant detour: higher latency than the bottleneck, so Dijkstra
    # ignores it while the network is healthy.
    dumbbell_topology.add_link("sw-left", "sw-right", capacity=5 * MBPS,
                               latency=1e-3, name="backup")
    return dumbbell_topology


class TestAvoidSetRouting:
    def test_avoiding_unknown_link_rejected(self, dumbbell_topology):
        with pytest.raises(TopologyError, match="unknown links"):
            RoutingTable(dumbbell_topology, avoid={"no-such-link"})

    def test_avoid_equals_fresh_table_on_pruned_topology(
        self, dumbbell_topology, bordeaux_small, two_site_topology
    ):
        """The self-healing property: for every single-link failure, the
        avoid-set recompute must produce exactly the routes a fresh table
        computes on the topology with that link physically removed; pairs
        the removal disconnects raise (no fallback) or serve the nominal
        route (with fallback)."""
        for topo in (dumbbell_topology, bordeaux_small, two_site_topology):
            nominal = RoutingTable(topo)
            hosts = topo.host_names
            for link in topo.links:
                healed = RoutingTable(topo, avoid={link.name})
                pruned = RoutingTable(_without_link(topo, link.name))
                fallback = RoutingTable(topo, avoid={link.name},
                                        fallback=nominal)
                for src, dst in itertools.combinations(hosts, 2):
                    try:
                        expected = pruned.route(src, dst)
                    except TopologyError:
                        with pytest.raises(TopologyError):
                            healed.route(src, dst)
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            assert fallback.route(src, dst) == \
                                nominal.route(src, dst)
                        continue
                    assert healed.route(src, dst) == expected, \
                        (topo.name, link.name, src, dst)
                    assert link.name not in expected

    def test_detour_taken_when_primary_fails(self, dumbbell_topology):
        topo = _dumbbell_with_backup(dumbbell_topology)
        healthy = RoutingTable(topo)
        assert "bottleneck" in healthy.route("left-0", "right-0")
        assert "backup" not in healthy.route("left-0", "right-0")
        healed = RoutingTable(topo, avoid={"bottleneck"}, fallback=healthy)
        detour = healed.route("left-0", "right-0")
        assert "backup" in detour
        assert "bottleneck" not in detour

    def test_fallback_counts_and_warns_once(self, dumbbell_topology):
        nominal = RoutingTable(dumbbell_topology)
        healed = RoutingTable(dumbbell_topology, avoid={"bottleneck"},
                              fallback=nominal)
        before = METRICS.snapshot().counter("routing.fallback_hits")
        with pytest.warns(RuntimeWarning, match="serving the fallback route"):
            assert healed.route("left-0", "right-0") == \
                nominal.route("left-0", "right-0")
        # Counted on every hit, warned only on the first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            healed.route("left-1", "right-1")
        after = METRICS.snapshot().counter("routing.fallback_hits")
        assert after - before == 2

    def test_no_fallback_raises_for_disconnected_pair(self, dumbbell_topology):
        healed = RoutingTable(dumbbell_topology, avoid={"bottleneck"})
        with pytest.raises(TopologyError, match="no route"):
            healed.route("left-0", "right-0")
        # Pairs the failure does not disconnect still route normally.
        assert len(healed.route("left-0", "left-1")) == 2
