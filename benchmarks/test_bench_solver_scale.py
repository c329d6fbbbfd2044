"""Scaling benchmark for the vectorized max-min solver.

Times building a :class:`repro.network.solver.FlowSet` and one
:meth:`~repro.network.solver.FlowSet.solve` on synthetic multi-site
contention patterns at 10² – 10⁴ concurrent flows.  The fluid engine solves
lazily, at the first rate read after a batch of pipe opens and closes: a
paper-4site campaign makes 2,486 solves for 68,536 opens and closes, a
blackout campaign 19,514 for 105,514.  These instances are far wider than
any campaign solve (at most 256 flows in the perfbench workloads).  The same
seeded instances pin the solver's bits (sha256 goldens), and
:meth:`~repro.network.solver.FlowSet.certify` checks that each solve is the
max-min fair allocation.
"""

import hashlib
import time

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.network.solver import FlowSet

#: Number of shared core links every flow competes on (star-of-sites shape).
CORE_LINKS = 32

#: Discrete per-flow TCP-window rate caps (quantized like real RTT classes).
RATE_CAPS = (None, 98e6, 105e6, 131e6)


def build_scenario(num_flows: int, seed: int = 2012):
    """Synthetic contention: per-flow access links feeding shared cores."""
    rng = np.random.default_rng(seed)
    num_links = num_flows + CORE_LINKS
    capacities = np.empty(num_links, dtype=np.float64)
    capacities[:num_flows] = 111e6          # access links, one per flow
    capacities[num_flows:] = 1.25e9          # shared core links
    routes = []
    caps = []
    for flow in range(num_flows):
        src_core = num_flows + int(rng.integers(0, CORE_LINKS))
        dst_core = num_flows + int(rng.integers(0, CORE_LINKS))
        route = [flow, src_core]
        if dst_core != src_core:
            route.append(dst_core)
        routes.append(route)
        caps.append(RATE_CAPS[int(rng.integers(0, len(RATE_CAPS)))])
    return capacities, routes, caps


def solve_once(capacities, routes, caps):
    """Add the routes in order and solve; rates come aligned with ``routes``."""
    flow_set = FlowSet(capacities)
    slots = [
        flow_set.add(route, cap, assume_unique=True)
        for route, cap in zip(routes, caps)
    ]
    return flow_set.solve()[slots]


@pytest.mark.parametrize("num_flows", [100, 1_000, 10_000])
def test_solver_scales_to_many_flows(num_flows):
    capacities, routes, caps = build_scenario(num_flows)
    start = time.perf_counter()
    rates = solve_once(capacities, routes, caps)
    elapsed = time.perf_counter() - start

    # Feasibility and fairness are test_solver_is_certified's.
    assert (rates > 0).all()

    report(
        f"solver scale — {num_flows} flows",
        {
            "solve wall-clock (ms)": f"{elapsed * 1e3:.3f}",
            "throughput (flows/s)": f"{num_flows / elapsed:,.0f}",
        },
    )


#: sha256 of ``solve()`` over the seeded instances, flows added in order.
SOLVER_GOLDENS = {
    100: "3e265add4bc258d92f8f600166dd189ceebf2261350f686997889a702e45291c",
    1_000: "a333524daa86ed8bcb34807f735a9cdae18c83d7307420f62726a2687803afbe",
    10_000: "e9674b2401055da4ec870d45b279fa1e2f2242b869af337b1aea0830ac11dda5",
}


@pytest.mark.parametrize("num_flows", sorted(SOLVER_GOLDENS))
def test_solver_replays_its_golden(num_flows):
    """Every rate keeps its bits."""
    rates = solve_once(*build_scenario(num_flows))
    assert hashlib.sha256(rates.tobytes()).hexdigest() == SOLVER_GOLDENS[num_flows]


@pytest.mark.parametrize("num_flows", sorted(SOLVER_GOLDENS))
def test_solver_is_certified(num_flows):
    """Each scale instance's solve is max-min fair, flow for flow."""
    capacities, routes, caps = build_scenario(num_flows)
    flow_set = FlowSet(capacities)
    for route, cap in zip(routes, caps):
        flow_set.add(route, cap, assume_unique=True)
    flow_set.certify(flow_set.solve())
