"""Equivalence and unit tests for the vectorized max-min solver.

The scalar progressive-filling implementation in ``repro.network.flows`` is
the reference oracle; the vectorized :class:`~repro.network.solver.FlowSet`
must reproduce it on randomized instances — shared bottlenecks, rate caps,
loopback flows, every mix — and stay feasible under ``validate_allocation``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.flows import (
    FlowDemand,
    max_min_fair_allocation,
    max_min_fair_allocation_scalar,
    validate_allocation,
)
from repro.network.solver import FlowSet


def assert_allocations_match(flows, capacities):
    """Vectorized and scalar allocations are equal, float for float, and feasible."""
    scalar = max_min_fair_allocation_scalar(flows, capacities)
    vectorized = max_min_fair_allocation(flows, capacities)
    assert vectorized == scalar
    validate_allocation(flows, vectorized, capacities)


# --------------------------------------------------------------------- #
# FlowSet unit behaviour
# --------------------------------------------------------------------- #
class TestFlowSet:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FlowSet([100.0, 0.0])

    def test_rejects_bad_rate_cap(self):
        flow_set = FlowSet([10.0])
        with pytest.raises(ValueError):
            flow_set.add([0], rate_cap=0.0)

    def test_rejects_out_of_range_link(self):
        flow_set = FlowSet([10.0])
        with pytest.raises(IndexError):
            flow_set.add([1])

    def test_single_flow_takes_bottleneck(self):
        flow_set = FlowSet([100.0, 40.0])
        slot = flow_set.add([0, 1])
        assert flow_set.solve()[slot] == pytest.approx(40.0)

    def test_loopback_flow_unbounded(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([])
        assert np.isinf(flow_set.solve()[slot])

    def test_loopback_flow_with_cap(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([], rate_cap=3.0)
        assert flow_set.solve()[slot] == pytest.approx(3.0)

    def test_duplicate_links_count_once(self):
        flow_set = FlowSet([10.0])
        a = flow_set.add([0, 0, 0])
        b = flow_set.add([0])
        rates = flow_set.solve()
        assert rates[a] == pytest.approx(5.0)
        assert rates[b] == pytest.approx(5.0)

    def test_incremental_add_remove_matches_fresh_solve(self):
        """The maintained incidence equals a from-scratch build at every step."""
        rng = np.random.default_rng(7)
        capacities = rng.uniform(10.0, 200.0, size=12)
        flow_set = FlowSet(capacities)
        live = {}
        for step in range(120):
            if live and rng.random() < 0.4:
                slot = list(live)[int(rng.integers(0, len(live)))]
                flow_set.remove(slot)
                del live[slot]
            else:
                k = int(rng.integers(1, 5))
                route = rng.choice(12, size=k, replace=False)
                cap = None if rng.random() < 0.5 else float(rng.uniform(1.0, 80.0))
                live[flow_set.add(route, cap)] = (tuple(route), cap)
            assert len(flow_set) == len(live)
            rates = flow_set.solve()
            fresh = FlowSet(capacities)
            fresh_slots = {
                slot: fresh.add(route, cap) for slot, (route, cap) in live.items()
            }
            fresh_rates = fresh.solve()
            for slot, fresh_slot in fresh_slots.items():
                assert rates[slot] == fresh_rates[fresh_slot]

    def test_remove_unknown_slot_raises(self):
        flow_set = FlowSet([10.0])
        with pytest.raises(KeyError):
            flow_set.remove(0)

    def test_slot_recycling_after_remove(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([0])
        flow_set.remove(slot)
        again = flow_set.add([0])
        assert flow_set.solve()[again] == pytest.approx(10.0)

    def test_pool_growth_beyond_initial_capacity(self):
        flow_set = FlowSet([1000.0])
        slots = [flow_set.add([0]) for _ in range(100)]
        rates = flow_set.solve()
        for slot in slots:
            assert rates[slot] == pytest.approx(10.0)


# --------------------------------------------------------------------- #
# equivalence with the scalar oracle
# --------------------------------------------------------------------- #
class TestScalarEquivalence:
    def test_dispatch_uses_vectorized_beyond_threshold(self):
        # 9 flows on a shared link: the dispatching entry point must agree
        # with the scalar oracle no matter which path served it.
        flows = [FlowDemand(f"f{i}", ("l",)) for i in range(9)]
        assert_allocations_match(flows, {"l": 90.0})

    def test_shared_bottleneck_with_caps_and_loopbacks(self):
        flows = [
            FlowDemand("a", ("access0", "core")),
            FlowDemand("b", ("access1", "core"), rate_cap=2.0),
            FlowDemand("c", ("access2", "core")),
            FlowDemand("loop", (), rate_cap=5.0),
            FlowDemand("free", ()),
            FlowDemand("d", ("access0",)),
            FlowDemand("e", ("access1",)),
            FlowDemand("f", ("access2", "core")),
            FlowDemand("g", ("core",)),
            FlowDemand("h", ("core",), rate_cap=0.5),
        ]
        capacities = {"core": 12.0, "access0": 8.0, "access1": 6.0, "access2": 9.0}
        assert_allocations_match(flows, capacities)

    def test_many_flows_through_bottleneck(self):
        n = 64
        flows = [FlowDemand(f"f{i}", (f"acc{i}", "core")) for i in range(n)]
        capacities = {"core": 125e6}
        capacities.update({f"acc{i}": 111e6 for i in range(n)})
        assert_allocations_match(flows, capacities)


@st.composite
def random_scenario(draw):
    num_links = draw(st.integers(min_value=1, max_value=8))
    link_names = [f"L{i}" for i in range(num_links)]
    capacities = {
        name: draw(st.floats(min_value=1.0, max_value=1000.0)) for name in link_names
    }
    # Enough flows to exercise the vectorized dispatch path most of the time.
    num_flows = draw(st.integers(min_value=1, max_value=40))
    flows = []
    for i in range(num_flows):
        if draw(st.booleans()) or num_links == 0:
            k = draw(st.integers(min_value=1, max_value=num_links))
            links = tuple(draw(st.permutations(link_names))[:k])
        else:
            links = ()
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=500.0)))
        flows.append(FlowDemand(f"f{i}", links, rate_cap=cap))
    return flows, capacities


@given(random_scenario())
@settings(max_examples=120, deadline=None)
def test_vectorized_matches_scalar_randomized(scenario):
    flows, capacities = scenario
    assert_allocations_match(flows, capacities)


@given(random_scenario())
@settings(max_examples=60, deadline=None)
def test_vectorized_rates_positive_and_complete(scenario):
    flows, capacities = scenario
    rates = max_min_fair_allocation(flows, capacities)
    assert set(rates) == {flow.flow_id for flow in flows}
    for rate in rates.values():
        assert rate > 0


@st.composite
def flow_set_operations(draw):
    """Link capacities and a random sequence of FlowSet operations.

    Capacities and rate caps stay at most 1e3, where rounding residues stay
    far below ``SATURATION_EPS``; the sequences grow the pool past its
    initial 8 slots and recycle slots.
    """
    num_links = draw(st.integers(min_value=1, max_value=6))
    value = st.floats(min_value=1.0, max_value=1e3)
    capacities = draw(st.lists(value, min_size=num_links, max_size=num_links))
    link = st.integers(min_value=0, max_value=num_links - 1)
    add = st.tuples(
        st.just("add"),
        st.lists(link, max_size=num_links + 2),
        st.one_of(st.none(), st.just(draw(value)), value),
        st.booleans(),
    )
    remove = st.tuples(st.just("remove"), st.integers(min_value=0, max_value=999))
    capacity = st.tuples(st.just("capacity"), link, value)
    operations = st.lists(
        st.one_of(add, add, remove, capacity), min_size=1, max_size=50
    )
    return capacities, draw(operations)


@given(flow_set_operations())
@settings(max_examples=200, deadline=None)
def test_flow_set_operations_match_scalar_oracle(scenario):
    """After every operation each slot's rate equals the oracle's bitwise.

    Live slots read the scalar oracle's rate (``inf`` for uncapped linkless
    flows), free slots read 0, and slot ids follow the LIFO free list with
    the pool doubling when it runs dry.
    """
    capacities, operations = scenario
    flow_set = FlowSet(capacities)
    link_capacity = {f"L{i}": capacity for i, capacity in enumerate(capacities)}
    live = {}
    pool = 8
    free = list(range(pool - 1, -1, -1))
    for operation in operations:
        if operation[0] == "add":
            _, route, cap, unique = operation
            if unique and len(set(route)) == len(route):
                # A simple path goes in as the fluid engine passes it.
                slot = flow_set.add(tuple(route), cap, assume_unique=True)
            else:
                slot = flow_set.add(route, cap)
            if not free:
                free.extend(range(2 * pool - 1, pool - 1, -1))
                pool *= 2
            assert slot == free.pop()
            live[slot] = FlowDemand(slot, tuple(f"L{i}" for i in route), cap)
        elif operation[0] == "remove":
            if not live:
                continue
            slot = list(live)[operation[1] % len(live)]
            flow_set.remove(slot)
            del live[slot]
            free.append(slot)
        else:
            _, index, capacity = operation
            flow_set.set_link_capacity(index, capacity)
            link_capacity[f"L{index}"] = capacity
        assert flow_set.pool_size == pool
        assert len(flow_set) == len(live)
        rates = flow_set.solve()
        reference = max_min_fair_allocation_scalar(list(live.values()), link_capacity)
        assert rates.tolist() == [reference.get(slot, 0.0) for slot in range(pool)]
