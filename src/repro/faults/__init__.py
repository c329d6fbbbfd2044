"""Deterministic fault injection for measurement campaigns.

Fault plans are :class:`~repro.workloads.spec.WorkloadSpec` presets of
fault actors — link failures, route flaps, tracker outages, tenant
arrival/departure — scheduled on the shared workload agenda, seeded from
stateless ``(seed, "fault", iteration, label)`` streams so campaigns stay
bit-for-bit reproducible under injected failure.  See ``docs/faults.md``.
"""

from repro.faults.actors import (
    FAILURE_RESIDUAL,
    MAX_ANNOUNCE_RETRIES,
    FaultActor,
    LinkFailureActor,
    RouteFlapActor,
    TenantCycleActor,
    TrackerOutageActor,
    shared_links,
)
from repro.faults.spec import (
    FAULT_BUILDERS,
    FAULT_NAMES,
    FAULT_PRESETS,
    NO_FAULTS,
    blackout_plan,
    chaos_plan,
    fault_plan_from_name,
    link_failure_plan,
    migrating_plan,
    route_flap_plan,
    tenant_cycle_plan,
    tracker_outage_plan,
)

__all__ = [
    "FAILURE_RESIDUAL",
    "MAX_ANNOUNCE_RETRIES",
    "FAULT_BUILDERS",
    "FAULT_NAMES",
    "FAULT_PRESETS",
    "NO_FAULTS",
    "FaultActor",
    "LinkFailureActor",
    "RouteFlapActor",
    "TenantCycleActor",
    "TrackerOutageActor",
    "blackout_plan",
    "chaos_plan",
    "fault_plan_from_name",
    "link_failure_plan",
    "migrating_plan",
    "route_flap_plan",
    "shared_links",
    "tenant_cycle_plan",
    "tracker_outage_plan",
]
