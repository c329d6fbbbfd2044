"""Max-min fair allocation cases on FlowSet, and its definition restated.

Each unit case pins the exact rates of a small allocation and certifies it.
The properties restate the definition of max-min fairness in plain Python,
link by link and flow by flow, on random instances at 1e6–1e10 B/s: an
independent check of what :meth:`~repro.network.solver.FlowSet.certify`
computes in one vectorized pass.
"""

import math

import pytest
from hypothesis import given, settings

from repro.network.solver import SATURATION_EPS, FlowSet
from test_solver import random_scenario, solve_certified


class TestBasicAllocation:
    def test_single_flow_gets_bottleneck_capacity(self):
        flow_set = FlowSet([100.0, 40.0, 70.0])
        slot = flow_set.add([0, 1, 2])
        assert solve_certified(flow_set)[slot] == 40.0

    def test_two_flows_share_a_link_equally(self):
        flow_set = FlowSet([100.0])
        a, b = flow_set.add([0]), flow_set.add([0])
        rates = solve_certified(flow_set)
        assert (rates[a], rates[b]) == (50.0, 50.0)

    def test_unequal_paths_give_max_min_solution(self):
        # Flow a crosses links 0 and 1, flow b only link 0, flow c only link 1.
        flow_set = FlowSet([10.0, 10.0])
        slots = [flow_set.add([0, 1]), flow_set.add([0]), flow_set.add([1])]
        assert solve_certified(flow_set)[slots].tolist() == [5.0, 5.0, 5.0]

    def test_freed_capacity_goes_to_unconstrained_flows(self):
        narrow, wide = 0, 1
        flow_set = FlowSet([2.0, 10.0])
        a, b = flow_set.add([narrow, wide]), flow_set.add([wide])
        rates = solve_certified(flow_set)
        assert (rates[a], rates[b]) == (2.0, 8.0)

    def test_rate_cap_is_respected(self):
        flow_set = FlowSet([10.0])
        a, b = flow_set.add([0], rate_cap=3.0), flow_set.add([0])
        rates = solve_certified(flow_set)
        assert (rates[a], rates[b]) == (3.0, 7.0)

    def test_flow_without_links_or_cap_is_unbounded(self):
        flow_set = FlowSet([1.0])
        loop, linked = flow_set.add([]), flow_set.add([0])
        rates = solve_certified(flow_set)
        assert (rates[loop], rates[linked]) == (math.inf, 1.0)

    def test_flow_without_links_with_cap(self):
        flow_set = FlowSet([1.0])
        loop, linked = flow_set.add([], rate_cap=5.0), flow_set.add([0], rate_cap=5.0)
        rates = solve_certified(flow_set)
        assert (rates[loop], rates[linked]) == (5.0, 1.0)

    def test_empty_flow_list(self):
        assert solve_certified(FlowSet([1.0])).tolist() == [0.0] * 8

    def test_unknown_link_raises(self):
        with pytest.raises(IndexError):
            FlowSet([1.0]).add([-1])

    def test_non_positive_capacity_raises(self):
        flow_set = FlowSet([1.0])
        with pytest.raises(ValueError):
            flow_set.set_link_capacity(0, 0.0)

    def test_invalid_rate_cap_rejected(self):
        with pytest.raises(ValueError):
            FlowSet([1.0]).add([0], rate_cap=-1.0)

    def test_many_flows_through_bottleneck(self):
        # Half of 32 flows are capped at 1 MB/s; the other half share the rest.
        n = 32
        flow_set = FlowSet([125e6] + [111e6] * n)
        slots = [
            flow_set.add([1 + i, 0], rate_cap=1e6 if i % 2 else None) for i in range(n)
        ]
        rates = solve_certified(flow_set)[slots].tolist()
        assert rates == [(125e6 - 16e6) / 16, 1e6] * 16


# --------------------------------------------------------------------- #
# the definition, restated flow by flow
# --------------------------------------------------------------------- #
def allocate(scenario):
    """Solve a random instance; returns capacities, (route, cap, rate) per
    flow with routes deduplicated, and each link's load and top rate."""
    capacities, flows = scenario
    flow_set = FlowSet(capacities)
    slots = [flow_set.add(route, cap) for route, cap in flows]
    rates = flow_set.solve()
    allocated = [
        (set(route), math.inf if cap is None else cap, float(rates[slot]))
        for (route, cap), slot in zip(flows, slots)
    ]
    load = [0.0] * len(capacities)
    top = [0.0] * len(capacities)
    for route, _, rate in allocated:
        for link in route:
            load[link] += rate
            top[link] = max(top[link], rate)
    return capacities, allocated, load, top


@given(random_scenario())
@settings(max_examples=80, deadline=None)
def test_allocation_is_always_feasible(scenario):
    capacities, allocated, load, _ = allocate(scenario)
    for link, capacity in enumerate(capacities):
        assert load[link] <= capacity * (1 + SATURATION_EPS)
    for _, cap, rate in allocated:
        assert rate <= cap * (1 + SATURATION_EPS)


@given(random_scenario())
@settings(max_examples=80, deadline=None)
def test_allocation_rates_are_positive(scenario):
    _, allocated, _, _ = allocate(scenario)
    for route, cap, rate in allocated:
        assert rate > 0
        assert rate == cap or route


@given(random_scenario())
@settings(max_examples=80, deadline=None)
def test_every_flow_hits_a_binding_constraint(scenario):
    """Max-min property: each flow is at its cap or crosses a saturated
    link on which no flow gets more."""
    capacities, allocated, load, top = allocate(scenario)
    for route, cap, rate in allocated:
        capped = rate >= cap * (1 - SATURATION_EPS)
        bottlenecked = any(
            load[link] >= capacities[link] * (1 - SATURATION_EPS)
            and rate >= top[link] * (1 - SATURATION_EPS)
            for link in route
        )
        assert capped or bottlenecked
