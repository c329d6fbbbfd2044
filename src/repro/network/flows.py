"""Max-min fair bandwidth allocation among concurrent flows.

This is the bandwidth-sharing model used by flow-level simulators such as
SimGrid (which the baseline tomography papers themselves use): each flow
traverses a fixed set of links; link capacity is divided among the flows
crossing it by *progressive filling* — all unfrozen flows grow their rate
together until some link saturates, the flows crossing that link are frozen
at the fair share, and the process repeats.

The allocation is what makes the BitTorrent fragment metric informative: many
flows squeezed through a 1 GbE bottleneck each get a small rate, so few
fragments cross it, while intra-cluster flows keep a large rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.solver import FlowSet

FlowId = Hashable


@dataclass(frozen=True)
class FlowDemand:
    """A unidirectional flow demand between two hosts.

    Attributes
    ----------
    flow_id:
        Arbitrary hashable identifier (the fluid engine uses transfer ids).
    links:
        Names of the links the flow traverses (order irrelevant).
    rate_cap:
        Optional per-flow rate cap in bytes/second (e.g. an application limit
        or the NIC speed when it is not modelled as a link).
    """

    flow_id: FlowId
    links: Tuple[str, ...]
    rate_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate_cap is not None and self.rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {self.rate_cap}")


def max_min_fair_allocation(
    flows: Sequence[FlowDemand],
    link_capacity: Mapping[str, float],
) -> Dict[FlowId, float]:
    """Compute the max-min fair rate of every flow.

    Indexes the referenced links and solves on a
    :class:`~repro.network.solver.FlowSet`, the vectorized solver the fluid
    engine runs on; :func:`max_min_fair_allocation_scalar` is the reference
    it is tested against (see ``tests/test_solver.py``).

    Parameters
    ----------
    flows:
        Flow demands.  Flows with an empty link list (loopback transfers) are
        only limited by their ``rate_cap`` (infinite if none).
    link_capacity:
        Capacity in bytes/second for every link name referenced by the flows.

    Returns
    -------
    dict
        ``flow_id -> rate`` in bytes/second.

    Raises
    ------
    KeyError
        If a flow references a link absent from ``link_capacity``.
    ValueError
        If a referenced link has non-positive capacity.
    """
    link_index: Dict[str, int] = {}
    capacities: List[float] = []
    routes: List[List[int]] = []
    seen_ids = set()
    for flow in flows:
        if flow.flow_id in seen_ids:
            raise ValueError(f"duplicate flow id {flow.flow_id!r}")
        seen_ids.add(flow.flow_id)
        route: List[int] = []
        for link in flow.links:
            index = link_index.get(link)
            if index is None:
                if link not in link_capacity:
                    raise KeyError(
                        f"flow {flow.flow_id!r} references unknown link {link!r}"
                    )
                cap = float(link_capacity[link])
                if cap <= 0:
                    raise ValueError(
                        f"link {link!r} has non-positive capacity {cap}"
                    )
                index = link_index[link] = len(capacities)
                capacities.append(cap)
            route.append(index)
        routes.append(route)

    flow_set = FlowSet(capacities)
    slots = [
        flow_set.add(route, flow.rate_cap) for route, flow in zip(routes, flows)
    ]
    rates = flow_set.solve()
    return {flow.flow_id: float(rates[slot]) for flow, slot in zip(flows, slots)}


def max_min_fair_allocation_scalar(
    flows: Sequence[FlowDemand],
    link_capacity: Mapping[str, float],
) -> Dict[FlowId, float]:
    """Scalar progressive-filling reference implementation.

    Kept as the oracle the vectorized solver is property-tested against.
    """
    rates: Dict[FlowId, float] = {}
    unfrozen: Dict[FlowId, FlowDemand] = {}

    for flow in flows:
        if flow.flow_id in rates or flow.flow_id in unfrozen:
            raise ValueError(f"duplicate flow id {flow.flow_id!r}")
        if not flow.links:
            rates[flow.flow_id] = flow.rate_cap if flow.rate_cap is not None else float("inf")
        else:
            unfrozen[flow.flow_id] = flow

    # Remaining capacity per link, and which unfrozen flows cross it.
    remaining: Dict[str, float] = {}
    crossing: Dict[str, set] = {}
    for flow in unfrozen.values():
        for link in set(flow.links):
            if link not in link_capacity:
                raise KeyError(f"flow {flow.flow_id!r} references unknown link {link!r}")
            cap = float(link_capacity[link])
            if cap <= 0:
                raise ValueError(f"link {link!r} has non-positive capacity {cap}")
            remaining.setdefault(link, cap)
            crossing.setdefault(link, set()).add(flow.flow_id)

    allocated: Dict[FlowId, float] = {fid: 0.0 for fid in unfrozen}

    # Progressive filling.  Each round either freezes at least one flow
    # (rate-cap bound) or saturates at least one link, so it terminates in at
    # most ``len(flows) + len(links)`` rounds.
    while unfrozen:
        # The common increment is bounded by the tightest link fair-share and
        # by the smallest residual rate cap.
        best_increment = float("inf")
        for link, flow_ids in crossing.items():
            active = [fid for fid in flow_ids if fid in unfrozen]
            if not active:
                continue
            best_increment = min(best_increment, remaining[link] / len(active))
        # Rate caps can only tighten the increment; find the tightest first and
        # only then decide which flows actually reach their cap this round.
        for fid, flow in unfrozen.items():
            if flow.rate_cap is not None:
                residual = flow.rate_cap - allocated[fid]
                if residual < best_increment:
                    best_increment = residual
        capped: List[FlowId] = []
        for fid, flow in unfrozen.items():
            if flow.rate_cap is not None:
                residual = flow.rate_cap - allocated[fid]
                if residual <= best_increment + 1e-12:
                    capped.append(fid)
        if not np.isfinite(best_increment):
            # No links and no caps constrain the remaining flows.
            for fid in list(unfrozen):
                rates[fid] = float("inf")
                del unfrozen[fid]
            break
        best_increment = max(best_increment, 0.0)

        # Apply the increment to all unfrozen flows and update link residuals.
        for fid, flow in unfrozen.items():
            allocated[fid] += best_increment
        for link, flow_ids in crossing.items():
            active = sum(1 for fid in flow_ids if fid in unfrozen)
            if active:
                remaining[link] -= best_increment * active
                if remaining[link] < 0:
                    remaining[link] = 0.0

        # Freeze flows bound by a rate cap.
        for fid in capped:
            flow = unfrozen.pop(fid, None)
            if flow is not None:
                rates[fid] = allocated[fid]

        # Freeze flows crossing a saturated link.
        saturated = [link for link, rem in remaining.items() if rem <= 1e-9]
        for link in saturated:
            for fid in list(crossing.get(link, ())):
                if fid in unfrozen:
                    rates[fid] = allocated[fid]
                    del unfrozen[fid]

        if not capped and not saturated and unfrozen:
            # Defensive: numerical corner where nothing froze; freeze all at
            # the current allocation to guarantee termination.
            for fid in list(unfrozen):
                rates[fid] = allocated[fid]
                del unfrozen[fid]

    return rates


def link_utilisation(
    flows: Sequence[FlowDemand],
    rates: Mapping[FlowId, float],
    link_capacity: Mapping[str, float],
) -> Dict[str, float]:
    """Fraction of each link's capacity consumed by the allocated rates."""
    load: Dict[str, float] = {link: 0.0 for link in link_capacity}
    for flow in flows:
        rate = rates.get(flow.flow_id, 0.0)
        if not np.isfinite(rate):
            continue
        for link in set(flow.links):
            load[link] = load.get(link, 0.0) + rate
    return {
        link: (load.get(link, 0.0) / cap if cap > 0 else 0.0)
        for link, cap in link_capacity.items()
    }


def validate_allocation(
    flows: Sequence[FlowDemand],
    rates: Mapping[FlowId, float],
    link_capacity: Mapping[str, float],
    tol: float = 1e-6,
) -> None:
    """Assert that an allocation is feasible (no link over capacity, caps respected).

    Used by the property-based tests on the allocator.
    """
    for flow in flows:
        rate = rates[flow.flow_id]
        if flow.rate_cap is not None and rate > flow.rate_cap * (1 + tol) + tol:
            raise AssertionError(
                f"flow {flow.flow_id!r} exceeds its rate cap: {rate} > {flow.rate_cap}"
            )
    utilisation = link_utilisation(flows, rates, link_capacity)
    for link, frac in utilisation.items():
        if frac > 1.0 + tol:
            raise AssertionError(f"link {link!r} over capacity: utilisation {frac}")
