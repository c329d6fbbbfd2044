"""Edge cases of the anchored fluid engine under multi-tenant transitions.

Covers the corners the workload engine leans on:
``FluidNetwork.next_transition``/``advance_to`` with (effectively)
zero-rate flows, simultaneous completions, sub-clock-tick residuals, and a
capacity change landing exactly on a predicted transition time.
"""

import numpy as np
import pytest

from repro.network.fluid import FluidNetwork
from repro.network.topology import MBPS


class TestZeroRateFlows:
    def test_next_transition_none_when_nothing_moves(self, dumbbell_topology):
        net = FluidNetwork(dumbbell_topology)
        # A positive-but-negligible rate cap: the allocator honours it, the
        # transition predictor must treat the flow as stalled, not schedule
        # a completion aeons away.
        net.start_transfer("left-0", "right-0", 1e6, rate_cap=1e-13)
        assert net.next_transition() is None

    def test_advance_to_credits_nothing_to_stalled_flows(self, dumbbell_topology):
        net = FluidNetwork(dumbbell_topology)
        stalled = net.start_transfer("left-0", "right-0", 1e6, rate_cap=1e-13)
        finished = net.advance_to(100.0)
        assert finished == []
        assert net.now == 100.0
        assert stalled.transferred == pytest.approx(0.0, abs=1e-9)
        assert not stalled.done

    def test_stalled_flow_resumes_when_a_real_one_joins(self, dumbbell_topology):
        net = FluidNetwork(dumbbell_topology)
        stalled = net.start_transfer("left-0", "right-0", 1e6, rate_cap=1e-13)
        net.advance_to(10.0)
        mover = net.start_transfer("left-1", "left-2", 1e6)
        transition = net.next_transition()
        assert transition is not None
        net.advance_to(transition)
        assert mover.done
        assert not stalled.done


class TestSimultaneousCompletions:
    def test_equal_flows_finish_together_in_slot_order(self, dumbbell_topology):
        net = FluidNetwork(dumbbell_topology)
        first = net.start_transfer("left-0", "left-1", 5e6)
        second = net.start_transfer("right-0", "right-1", 5e6)
        transition = net.next_transition()
        finished = net.advance_to(transition + 1e-6)
        assert {t.transfer_id for t in finished} == {
            first.transfer_id, second.transfer_id
        }
        # Deterministic completion order (slot order) and identical times.
        assert [t.transfer_id for t in finished] == sorted(
            t.transfer_id for t in finished
        )
        assert finished[0].finish_time == finished[1].finish_time
        assert all(t.done for t in finished)

    def test_sub_tick_residual_completes_instead_of_spinning(self, dumbbell_topology):
        """A residual that would drain within one clock ulp is done now.

        Regression for the multi-tenant deadlock: another tenant's
        completion materializes the byte state a hair before a flow's own
        finish, leaving a femto-residual that no representable clock
        advance could drain."""
        net = FluidNetwork(dumbbell_topology)
        net.advance_to(1.0)
        transfer = net.start_transfer("left-0", "left-1", 1e6)
        slot = transfer._slot
        net._materialize(net.now)
        # Pin an artificial residual far below rate x ulp(clock).
        net._remaining[slot] = 5e-9
        finished = net.advance_to(1.0 + 1e-9)
        assert transfer in finished
        assert transfer.done


class TestCapacityChangeTransitions:
    def test_change_landing_exactly_on_predicted_transition(self, dumbbell_topology):
        net = FluidNetwork(dumbbell_topology)
        short = net.start_transfer("left-0", "left-1", 1e6)
        long = net.start_transfer("left-2", "right-0", 50e6)
        predicted = net.next_transition()
        finished = net.advance_to(predicted)
        assert short in finished
        moved_before = long.transferred
        # The drift event lands on the very transition instant: the byte
        # state must be settled under the old rates before the new capacity
        # takes effect.
        net.set_link_capacity("bottleneck", 5 * MBPS)
        assert long.transferred == pytest.approx(moved_before, rel=1e-12)
        remaining = long.size - moved_before
        transition = net.next_transition()
        assert transition == pytest.approx(
            predicted + remaining / (5 * MBPS), rel=1e-9
        )
        net.advance_to(transition)
        assert long.done

    def test_capacity_change_is_a_counted_transition(self, dumbbell_topology):
        net = FluidNetwork(dumbbell_topology)
        net.start_transfer("left-0", "right-0", 1e6)
        before = net.transitions
        net.set_link_capacity("bottleneck", 8 * MBPS)
        assert net.transitions == before + 1
        # Setting the same value again is a no-op, not a transition.
        net.set_link_capacity("bottleneck", 8 * MBPS)
        assert net.transitions == before + 1

    def test_capacity_raise_speeds_in_flight_completion(self, dumbbell_topology):
        net = FluidNetwork(dumbbell_topology)
        transfer = net.start_transfer("left-0", "right-0", 10e6)
        slow_eta = net.next_transition()
        net.advance_to(slow_eta / 2)
        net.set_link_capacity("bottleneck", 100 * MBPS)
        fast_eta = net.next_transition()
        assert fast_eta < slow_eta
        net.advance_to(fast_eta)
        assert transfer.done
        assert transfer.finish_time == pytest.approx(fast_eta)

    def test_unknown_link_and_bad_capacity_rejected(self, dumbbell_topology):
        net = FluidNetwork(dumbbell_topology)
        with pytest.raises(KeyError, match="unknown link"):
            net.set_link_capacity("nope", 1 * MBPS)
        with pytest.raises(ValueError, match="positive"):
            net.set_link_capacity("bottleneck", 0.0)
        assert net.link_capacity("bottleneck") == 10 * MBPS


class TestFailureOnPredictedTransition:
    def test_failure_landing_exactly_on_predicted_transition(
        self, dumbbell_topology
    ):
        """A link *failure* (capacity collapse to a positive residual) landing
        on the very instant of a predicted completion: bytes are settled
        under the old rates first, the survivor then drains at the residual
        rate."""
        net = FluidNetwork(dumbbell_topology)
        short = net.start_transfer("left-0", "left-1", 1e6)
        long = net.start_transfer("left-2", "right-0", 50e6)
        predicted = net.next_transition()
        finished = net.advance_to(predicted)
        assert short in finished
        moved_before = long.transferred
        residual_rate = 1e-3 * net.link_capacity("bottleneck")
        net.set_link_capacity("bottleneck", residual_rate)
        assert long.transferred == pytest.approx(moved_before, rel=1e-12)
        transition = net.next_transition()
        assert transition == pytest.approx(
            predicted + (long.size - moved_before) / residual_rate, rel=1e-9
        )

    def _broadcast_under_failure(self, topology, stepping, fail_time=None):
        """Fingerprint a workload broadcast; at ``fail_time`` the bottleneck
        collapses to half capacity.  With ``fail_time=None``, instead record
        every transition time the engine's predictor returns."""
        from repro.bittorrent.swarm import SwarmConfig
        from repro.bittorrent.torrent import TorrentMeta
        from repro.workloads import BroadcastActor, WorkloadEngine
        from repro.workloads.actors import WorkloadActor

        class ScriptedFailure(WorkloadActor):
            kind = "link-failure"

            def __init__(self, label, time, link):
                super().__init__(label)
                self.time, self.link = time, link

            def start(self):
                self.engine.schedule(self, self.time, self._fail)

            def _fail(self):
                fluid = self.engine.fluid
                fluid.set_link_capacity(
                    self.link, 0.1 * fluid.link_capacity(self.link)
                )

        meta = TorrentMeta(name="edge", fragment_size=16384, num_fragments=40)
        config = SwarmConfig(torrent=meta, stepping=stepping)
        engine = WorkloadEngine(topology)
        primary = engine.add(
            BroadcastActor("primary", config, rng=np.random.default_rng(17))
        )
        predicted = []
        if fail_time is None:
            original = engine.fluid.next_transition

            def spy():
                t = original()
                if t is not None:
                    predicted.append(t)
                return t

            engine.fluid.next_transition = spy
        else:
            engine.add(ScriptedFailure("blackout", fail_time, "bottleneck"))
        engine.run()
        result = primary.result
        return (
            tuple(result.fragments.labels),
            result.fragments.counts.tobytes(),
            result.duration,
            predicted,
        )

    def test_fixed_and_event_agree_when_failure_hits_a_transition(
        self, dumbbell_topology
    ):
        """Fixed and event stepping stay bit-identical when a link failure
        lands *exactly* on a predicted fluid transition — the engine's
        tie-break (settle completions, then run the agenda event) must be
        the same in both modes."""
        # Probe run: harvest the exact transition instants the predictor
        # announces mid-broadcast, then aim the failure at one of them.
        probe = self._broadcast_under_failure(dumbbell_topology, "fixed")
        probe_duration, predicted = probe[2], probe[3]
        mid_flight = sorted(t for t in predicted if 0 < t < probe_duration)
        assert mid_flight, "broadcast produced no mid-flight transitions"
        fail_time = mid_flight[len(mid_flight) // 4]

        fixed = self._broadcast_under_failure(
            dumbbell_topology, "fixed", fail_time=fail_time
        )
        event = self._broadcast_under_failure(
            dumbbell_topology, "event", fail_time=fail_time
        )
        assert fixed[:3] == event[:3]
        # And the failure really happened: the degraded broadcast's matrix
        # or duration differs from the healthy probe's.
        assert fixed[:3] != probe[:3]
