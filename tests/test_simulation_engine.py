"""Unit tests for the discrete-event agenda."""

import pytest

from repro.simulation.engine import SimulationError, Simulator


def drain(sim):
    """Dispatch every live event, as the workload engine's loop would."""
    while sim.step() is not None:
        pass


class TestEventQueue:
    """The agenda as an event queue: ``(time, insertion order)`` dispatch."""

    def test_pop_orders_by_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        drain(sim)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in ("first", "second", "third"):
            sim.schedule_at(5.0, lambda lbl=label: order.append(lbl))
        drain(sim)
        assert order == ["first", "second", "third"]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule_at(1.0, lambda: fired.append("keep"))
        cancel = sim.schedule_at(0.5, lambda: fired.append("cancel"))
        cancel.cancel()
        event = sim.step()
        assert fired == ["keep"]
        assert keep is event
        assert sim.step() is None

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        early = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        early.cancel()
        assert sim.peek_time() == pytest.approx(2.0)

    def test_empty_queue_behaviour(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule_at(1.0, lambda: None).cancel()
        # An agenda holding only cancelled entries is empty.
        assert sim.peek_time() is None
        assert sim.step() is None
        assert sim.now == 0.0


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule_at(1.5, lambda: times.append(sim.now))
        sim.schedule_at(0.5, lambda: times.append(sim.now))
        drain(sim)
        assert times == [0.5, 1.5]
        assert sim.now == pytest.approx(1.5)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth < 3:
                sim.schedule_at(sim.now + 1.0, lambda: chain(depth + 1))

        sim.schedule_at(0.0, lambda: chain(0))
        drain(sim)
        assert fired == [pytest.approx(t) for t in (0.0, 1.0, 2.0, 3.0)]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        drain(sim)
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_non_finite_time_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_cancelled_event_not_executed(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("x"))
        handle.cancel()
        drain(sim)
        assert fired == []

    def test_advance_to_moves_clock_forward_only(self):
        sim = Simulator()
        sim.advance_to(4.0)
        assert sim.now == pytest.approx(4.0)
        with pytest.raises(SimulationError):
            sim.advance_to(1.0)


class TestSharedAgendaSurface:
    """peek/step/owner: the workload engine's shared-agenda interface."""

    def test_step_dispatches_exactly_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        assert sim.peek_time() == 1.0
        event = sim.step()
        assert fired == [1]
        assert event.time == 1.0
        assert sim.now == 1.0
        assert sim.peek_time() == 2.0

    def test_step_on_empty_agenda_returns_none(self):
        sim = Simulator()
        assert sim.step() is None
        assert sim.peek_time() is None

    def test_events_carry_their_owner(self):
        sim = Simulator()
        owner = object()
        sim.schedule_at(1.0, lambda: None, owner=owner)
        event = sim.step()
        assert event.owner is owner
