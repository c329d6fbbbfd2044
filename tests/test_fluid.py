"""Unit tests for the fluid transfer engine."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.network.fluid import FluidNetwork
from repro.network.routing import RoutingTable
from repro.network.topology import MBPS, Host, Switch, Topology


def isolated_duration(topology, src, dst, size):
    network = FluidNetwork(topology)
    transfer = network.start_transfer(src, dst, size)
    network.run_until_complete()
    return transfer.finish_time - transfer.start_time


class TestSingleTransfer:
    def test_transfer_time_matches_bottleneck(self, dumbbell_topology):
        # 10 MB over a 100 Mb/s access path = 10e6 / 12.5e6 = 0.8 s
        duration = isolated_duration(dumbbell_topology, "left-0", "left-1", 10e6)
        assert duration == pytest.approx(10e6 / (100 * MBPS), rel=1e-6)

    def test_transfer_across_bottleneck_is_slower(self, dumbbell_topology):
        duration = isolated_duration(dumbbell_topology, "left-0", "right-0", 10e6)
        assert duration == pytest.approx(10e6 / (10 * MBPS), rel=1e-6)

    def test_rate_cap_limits_single_flow(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        transfer = network.start_transfer("left-0", "left-1", 10e6, rate_cap=1e6)
        network.run_until_complete()
        assert transfer.finish_time == pytest.approx(10.0, rel=1e-6)

    def test_completion_callback_fires(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        finished = []
        network.start_transfer(
            "left-0", "left-1", 1e6, on_complete=lambda t: finished.append(t.transfer_id)
        )
        network.run_until_complete()
        assert len(finished) == 1

    def test_invalid_transfers_rejected(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        with pytest.raises(ValueError):
            network.start_transfer("left-0", "left-1", 0.0)
        with pytest.raises(ValueError):
            network.start_transfer("sw-left", "left-1", 1e6)


class TestSharing:
    def test_two_flows_share_bottleneck(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        t1 = network.start_transfer("left-0", "right-0", 5e6)
        t2 = network.start_transfer("left-1", "right-1", 5e6)
        network.run_until_complete()
        # Both share the 10 Mb/s bottleneck -> each gets half -> 8 s.
        expected = 5e6 / (5 * MBPS)
        assert t1.finish_time == pytest.approx(expected, rel=1e-6)
        assert t2.finish_time == pytest.approx(expected, rel=1e-6)

    def test_intra_cluster_flow_unaffected_by_bottleneck_traffic(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        cross = network.start_transfer("left-0", "right-0", 5e6)
        local = network.start_transfer("left-1", "left-2", 5e6)
        network.run_until_complete()
        assert local.finish_time == pytest.approx(5e6 / (100 * MBPS), rel=1e-6)
        assert cross.finish_time == pytest.approx(5e6 / (10 * MBPS), rel=1e-6)

    def test_completion_frees_bandwidth(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        short = network.start_transfer("left-0", "right-0", 1e6)
        long = network.start_transfer("left-1", "right-1", 2e6)
        network.run_until_complete()
        # Phase 1: both at 5 Mb/s until short finishes at t=1.6 (1e6/0.625e6).
        assert short.finish_time == pytest.approx(1e6 / (5 * MBPS), rel=1e-6)
        # Long has 2e6 - 1e6 = 1e6 left, then runs at full 10 Mb/s.
        expected_long = short.finish_time + 1e6 / (10 * MBPS)
        assert long.finish_time == pytest.approx(expected_long, rel=1e-6)

    def test_cancel_removes_flow_and_frees_capacity(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        doomed = network.start_transfer("left-0", "right-0", 100e6)
        survivor = network.start_transfer("left-1", "right-1", 1e6)
        network.advance_to(0.1)
        network.cancel_transfer(doomed)
        network.run_until_complete()
        assert doomed.finish_time is None
        assert survivor.done


class TestAdvance:
    def test_advance_accumulates_bytes_at_allocated_rate(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        transfer = network.start_transfer("left-0", "left-1", 100e6)
        network.advance_to(0.5)
        assert transfer.transferred == pytest.approx(0.5 * 100 * MBPS, rel=1e-6)
        assert not transfer.done

    def test_advance_handles_mid_step_completion(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        small = network.start_transfer("left-0", "left-1", 1e6)
        finished = network.advance_to(10.0)
        assert [t.transfer_id for t in finished] == [small.transfer_id]
        assert small.finish_time == pytest.approx(1e6 / (100 * MBPS), rel=1e-6)
        assert network.now == pytest.approx(10.0)

    def test_advance_with_negative_dt_raises(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        network.advance_to(2.0)
        with pytest.raises(ValueError):
            network.advance_to(1.0)

    def test_advance_without_transfers_moves_clock(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        network.advance_to(2.0)
        assert network.now == pytest.approx(2.0)

    def test_rates_reported_for_active_transfers(self, dumbbell_topology):
        network = FluidNetwork(dumbbell_topology)
        t1 = network.start_transfer("left-0", "right-0", 50e6)
        t2 = network.start_transfer("left-1", "right-1", 50e6)
        network.next_transition()  # allocates the rates
        assert t1.rate == pytest.approx(5 * MBPS, rel=1e-6)
        assert t2.rate == pytest.approx(5 * MBPS, rel=1e-6)


# ---------------------------------------------------------------------- #
# the cached next completion against a fresh computation
# ---------------------------------------------------------------------- #
def dumbbell_with_backup():
    """Two 3-host clusters joined by a bottleneck and a slower detour,
    which only a table avoiding the bottleneck routes over."""
    topology = Topology(name="dumbbell-backup")
    for side in ("left", "right"):
        topology.add_switch(Switch(name=f"sw-{side}", site=side))
        for i in range(3):
            topology.add_host(Host(name=f"{side}-{i}", site=side, cluster=side))
            topology.add_link(f"{side}-{i}", f"sw-{side}", capacity=100 * MBPS,
                              latency=5e-5, name=f"{side}-{i}-up")
    topology.add_link("sw-left", "sw-right", capacity=10 * MBPS, latency=1e-4,
                      name="bottleneck")
    topology.add_link("sw-left", "sw-right", capacity=5 * MBPS, latency=1e-3,
                      name="backup")
    return topology


BACKUP_TOPOLOGY = dumbbell_with_backup()
ROUTINGS = (
    RoutingTable(BACKUP_TOPOLOGY),
    RoutingTable(BACKUP_TOPOLOGY, avoid={"bottleneck"}),
)


class UncachedFluidNetwork(FluidNetwork):
    """The fluid network recomputing its next completion on every read."""

    def _next_completion(self):
        self._completion_known = False
        return super()._next_completion()


def fresh_completion(network):
    """``anchor + min(remaining / rate)`` over the moving active slots."""
    slots = np.array([t._slot for t in network._active.values()], dtype=np.int64)
    rates = network._rate[slots]
    moving = rates > 1e-12
    if not moving.any():
        return None
    return network._anchor + float((network._remaining[slots][moving] / rates[moving]).min())


host = st.sampled_from(BACKUP_TOPOLOGY.host_names)
fluid_operation = st.one_of(
    st.tuples(st.just("start"), host, host, st.floats(min_value=1e4, max_value=5e6)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=99)),
    st.tuples(
        st.just("capacity"),
        st.sampled_from(["bottleneck", "backup", "left-0-up", "right-2-up"]),
        st.floats(min_value=1 * MBPS, max_value=200 * MBPS),
    ),
    st.tuples(st.just("repin"), st.integers(min_value=0, max_value=1)),
    # Fractions of the way to the next completion: short of it, onto it,
    # and past it (across one or more completions).
    st.tuples(
        st.just("advance"),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                  st.floats(min_value=0.0, max_value=3.0)),
    ),
)


@given(st.lists(fluid_operation, min_size=1, max_size=40))
# A re-pin that moves no route still moves the anchor, and the completion
# must then be recomputed there: off by one ulp otherwise.
@example([("start", "left-0", "left-0", 1e4), ("advance", 0.09375), ("repin", 0)])
@settings(max_examples=150, deadline=None)
def test_cached_next_completion_matches_a_fresh_one(operations):
    """After every start, cancel, capacity change, re-pin and advance, the
    cached next completion is the fresh expression at the current anchor,
    bitwise, and a network without the cache completes every transfer at
    the same instant with the same bytes."""
    networks = [FluidNetwork(BACKUP_TOPOLOGY, ROUTINGS[0]),
                UncachedFluidNetwork(BACKUP_TOPOLOGY, ROUTINGS[0])]
    transfers = [[], []]
    for operation in operations:
        kind = operation[0]
        finished = [[], []]
        for side, network in enumerate(networks):
            live = [t for t in transfers[side] if t._slot >= 0]
            if kind == "start":
                _, src, dst, size = operation
                transfers[side].append(network.start_transfer(src, dst, size))
            elif kind == "cancel" and live:
                network.cancel_transfer(live[operation[1] % len(live)])
            elif kind == "capacity":
                network.set_link_capacity(operation[1], operation[2])
            elif kind == "repin":
                network.routing = ROUTINGS[operation[1]]
                network.repin_routes(network.routing)
            elif kind == "advance":
                upcoming = network.next_transition()
                span = 1e-3 if upcoming is None else upcoming - network.now
                finished[side] = network.advance_to(network.now + operation[1] * span)
        cached = networks[0].next_transition()
        assert cached == fresh_completion(networks[0])
        assert cached == networks[1].next_transition()
        assert [(t.transfer_id, t.finish_time) for t in finished[0]] == [
            (t.transfer_id, t.finish_time) for t in finished[1]
        ]
        assert [t.transferred for t in transfers[0]] == [t.transferred for t in transfers[1]]
