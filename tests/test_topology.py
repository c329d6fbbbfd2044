"""Unit tests for the physical topology model."""

import pytest

from repro.network.topology import GBPS, MBPS, Host, Link, Switch, Topology, TopologyError


class TestLink:
    def test_capacity_must_be_positive(self):
        with pytest.raises(TopologyError):
            Link(a="x", b="y", capacity=0.0)

    def test_latency_must_be_non_negative(self):
        with pytest.raises(TopologyError):
            Link(a="x", b="y", capacity=1.0, latency=-1.0)

    def test_default_name(self):
        link = Link(a="x", b="y", capacity=1.0)
        assert link.name == "x--y"

    def test_other_endpoint(self):
        link = Link(a="x", b="y", capacity=1.0)
        assert link.other("x") == "y"
        assert link.other("y") == "x"
        with pytest.raises(TopologyError):
            link.other("z")

    def test_unit_constants(self):
        assert GBPS == pytest.approx(125e6)
        assert MBPS == pytest.approx(125e3)


class TestTopology:
    def test_duplicate_names_rejected(self):
        topo = Topology()
        topo.add_host(Host(name="n1"))
        with pytest.raises(TopologyError):
            topo.add_host(Host(name="n1"))
        with pytest.raises(TopologyError):
            topo.add_switch(Switch(name="n1"))

    def test_empty_name_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_host(Host(name=""))

    def test_link_requires_known_elements(self):
        topo = Topology()
        topo.add_host(Host(name="a"))
        with pytest.raises(TopologyError):
            topo.add_link("a", "ghost", capacity=1.0)

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_host(Host(name="a"))
        with pytest.raises(TopologyError):
            topo.add_link("a", "a", capacity=1.0)

    def test_duplicate_link_name_rejected(self):
        topo = Topology()
        topo.add_host(Host(name="a"))
        topo.add_host(Host(name="b"))
        topo.add_link("a", "b", capacity=1.0, name="l")
        with pytest.raises(TopologyError):
            topo.add_link("b", "a", capacity=1.0, name="l")

    def test_incident_links_and_neighbors(self, dumbbell_topology):
        links = dumbbell_topology.incident_links("sw-left")
        assert len(links) == 4  # 3 hosts + the bottleneck
        neighbors = dict(dumbbell_topology.neighbors("left-0"))
        assert set(neighbors) == {"sw-left"}

    def test_hosts_in_site_and_cluster(self, bordeaux_small):
        bordeplage = bordeaux_small.hosts_in_cluster("bordeaux", "bordeplage")
        assert len(bordeplage) == 4
        assert bordeaux_small.sites() == ["bordeaux"]

    def test_validate_connected_detects_islands(self):
        topo = Topology()
        topo.add_host(Host(name="a"))
        topo.add_host(Host(name="b"))
        with pytest.raises(TopologyError):
            topo.validate_connected()

    def test_validate_connected_passes_for_connected(self, dumbbell_topology):
        dumbbell_topology.validate_connected()

    def test_lookup_errors(self, dumbbell_topology):
        with pytest.raises(TopologyError):
            dumbbell_topology.host("nope")
        with pytest.raises(TopologyError):
            dumbbell_topology.link("nope")
        with pytest.raises(TopologyError):
            dumbbell_topology.incident_links("nope")

    def test_is_host_distinguishes_switches(self, dumbbell_topology):
        assert dumbbell_topology.is_host("left-0")
        assert not dumbbell_topology.is_host("sw-left")
        assert dumbbell_topology.has_element("sw-left")
