"""Fault plans: the preset registry.

A fault plan is a :class:`~repro.workloads.spec.WorkloadSpec` whose actors
are fault injectors declared with :func:`~repro.workloads.spec.actor` —
kinds ``link-failure``, ``route-flap``, ``tracker-outage`` and
``tenant-cycle`` — so one plan applies unchanged to any topology and
fragment count.  Passed as a campaign's ``faults``, its injectors are built
by the same builder as workload tenants, each on its own stateless
``(seed, "fault", iteration, label)`` stream (the role comes from the
argument the plan is passed as).  The empty plan (:data:`NO_FAULTS`)
therefore adds no actor, draws no random number and perturbs no existing
stream: campaigns replay their pinned sha256 goldens bit for bit
(``tests/test_seed_replay.py``).

Any injector may be scoped to part of a campaign with the
``from_iteration`` / ``until_iteration`` params — the substrate of the
detection scenarios, where a bottleneck link fails halfway through a
campaign and the question is how many iterations the tomography needs to
notice.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.faults.actors import FAILURE_RESIDUAL
from repro.workloads.spec import WorkloadSpec, actor


# ---------------------------------------------------------------------- #
# preset plans
# ---------------------------------------------------------------------- #
def link_failure_plan(
    intensity: float = 1.0,
    residual: float = FAILURE_RESIDUAL,
    from_iteration: int = 0,
) -> WorkloadSpec:
    """Transient fail-and-repair cycles on the shared links; ``intensity``
    scales the failure frequency (mean time between failures is
    ``0.35 / intensity`` of the expected broadcast duration)."""
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    return WorkloadSpec(
        name=f"link-failure-{intensity:g}",
        description=f"transient link failures at intensity {intensity:g}",
        actors=(
            actor(
                "link-failure",
                "linkfail",
                mtbf_frac=0.35 / intensity,
                repair_frac=0.1,
                residual=residual,
                from_iteration=from_iteration,
            ),
        ),
        intensity=float(intensity),
    )


def blackout_plan(
    from_iteration: int = 2,
    residual: float = 0.02,
    start_frac: float = 0.1,
    link: Optional[str] = None,
) -> WorkloadSpec:
    """A persistent bottleneck failure landing mid-campaign.

    From iteration ``from_iteration`` on, one shared link collapses to
    ``residual`` of its nominal capacity early in the broadcast and is
    never repaired — the substrate of the time-to-detect scenarios.  The
    residual is large enough that broadcasts still complete (slowly), so
    the failure shows up as a duration spike and a shifted matrix rather
    than an aborted iteration; combine with ``quorum=`` for aborts.
    """
    params = dict(
        mtbf_frac=start_frac,
        repair_frac=1.0,
        residual=residual,
        persistent=True,
        limit=1,
        from_iteration=from_iteration,
    )
    if link is not None:
        params["links"] = (link,)
    return WorkloadSpec(
        name="blackout",
        description=(
            f"persistent bottleneck failure from iteration {from_iteration}"
        ),
        actors=(actor("link-failure", "blackout", **params),),
        intensity=1.0 - float(residual),
    )


def migrating_plan(
    links: Sequence[str],
    onsets: Sequence[int],
    residual: float = 0.02,
    start_frac: float = 0.1,
    reroute: bool = True,
) -> WorkloadSpec:
    """A persistent failure that *relocates* between campaign epochs.

    ``links[k]`` fails persistently for the epoch spanning iterations
    ``[onsets[k], onsets[k+1])`` (the last epoch runs to the end of the
    campaign); with ``reroute=True`` the control plane recomputes routes
    around each epoch's victim, so the study exercises detection *and*
    self-healing, then must re-detect and re-localize when the failure
    moves.  Onsets must be strictly increasing and align one-to-one with
    the victim links.
    """
    links = tuple(links)
    onsets = tuple(int(o) for o in onsets)
    if not links:
        raise ValueError("migrating plan needs at least one victim link")
    if len(links) != len(onsets):
        raise ValueError("migrating plan needs one onset per victim link")
    if any(b <= a for a, b in zip(onsets, onsets[1:])):
        raise ValueError("migrating plan onsets must be strictly increasing")
    specs = []
    for k, (link, onset) in enumerate(zip(links, onsets)):
        until = onsets[k + 1] if k + 1 < len(onsets) else None
        specs.append(
            actor(
                "link-failure",
                f"migrate-{k}",
                mtbf_frac=start_frac,
                repair_frac=1.0,
                residual=residual,
                persistent=True,
                limit=1,
                links=(link,),
                from_iteration=onset,
                until_iteration=until,
                reroute=reroute,
            )
        )
    return WorkloadSpec(
        name="migrating",
        description=(
            f"persistent failure relocating across {len(links)} epochs "
            f"(onsets {', '.join(str(o) for o in onsets)})"
        ),
        actors=tuple(specs),
        intensity=1.0 - float(residual),
    )


def route_flap_plan(intensity: float = 1.0, severity: float = 0.25) -> WorkloadSpec:
    """Route flaps on the shared links: new flows are steered around the
    flapping link and its capacity is degraded for the flap window."""
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    return WorkloadSpec(
        name=f"route-flap-{intensity:g}",
        description=f"route flaps at intensity {intensity:g}",
        actors=(
            actor(
                "route-flap",
                "flap",
                interval_frac=0.35 / intensity,
                duration_frac=0.08,
                severity=severity,
            ),
        ),
        intensity=float(intensity),
    )


def tracker_outage_plan(intensity: float = 1.0) -> WorkloadSpec:
    """Tracker outages plus a late-arriving rival tenant whose announce
    exercises the peer-side retry/backoff path."""
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    return WorkloadSpec(
        name=f"tracker-outage-{intensity:g}",
        description=f"tracker outages at intensity {intensity:g} + rival arrival",
        actors=(
            actor(
                "tracker-outage",
                "outage",
                interval_frac=0.3 / intensity,
                outage_frac=0.15 * intensity,
            ),
            actor("tenant-cycle", "latecomer", tenant="rival", arrival_frac=0.3),
        ),
        intensity=float(intensity),
    )


def tenant_cycle_plan(intensity: float = 0.5) -> WorkloadSpec:
    """Whole-tenant arrival and departure mid-iteration: a Poisson tenant
    and a staggered bulk tenant cycle in and out of the live engine."""
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    return WorkloadSpec(
        name=f"tenant-cycle-{intensity:g}",
        description="background tenants arriving and departing mid-iteration",
        actors=(
            actor(
                "tenant-cycle",
                "cycle-poisson",
                tenant="poisson",
                intensity=intensity,
                arrival_frac=0.15,
                departure_frac=0.6,
            ),
            actor(
                "tenant-cycle",
                "cycle-bulk",
                tenant="bulk",
                arrival_frac=0.35,
                departure_frac=0.85,
            ),
        ),
        intensity=float(intensity),
    )


def chaos_plan(intensity: float = 1.0) -> WorkloadSpec:
    """Everything at once: link failures, route flaps, tracker outages and
    tenant cycling — the chaos suite's standard plan."""
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    return WorkloadSpec(
        name=f"chaos-{intensity:g}",
        description="link failures + route flaps + tracker outages + tenant cycling",
        actors=(
            actor("link-failure", "linkfail", mtbf_frac=0.4 / intensity,
                  repair_frac=0.1),
            actor("route-flap", "flap", interval_frac=0.5 / intensity,
                  duration_frac=0.06),
            actor("tracker-outage", "outage", interval_frac=0.45 / intensity,
                  outage_frac=0.1),
            actor("tenant-cycle", "cycle", tenant="poisson",
                  intensity=0.5 * intensity, arrival_frac=0.2,
                  departure_frac=0.7),
        ),
        intensity=float(intensity),
    )


#: The intensity-scaled plan families: ``FAULT-INJECTION`` sweeps their
#: ``intensity``, and each one's default is a named preset.
FAULT_BUILDERS: Dict[str, Callable[..., WorkloadSpec]] = {
    "link-failure": link_failure_plan,
    "route-flap": route_flap_plan,
    "tracker-outage": tracker_outage_plan,
    "tenant-cycle": tenant_cycle_plan,
    "chaos": chaos_plan,
}

#: The empty plan: nothing ever breaks (today's campaigns, bit for bit).
NO_FAULTS = WorkloadSpec(name="none", description="no injected faults")

#: Named presets reachable from the CLI (``repro run <scenario> --faults X``).
FAULT_PRESETS: Dict[str, WorkloadSpec] = {
    "none": NO_FAULTS,
    "blackout": blackout_plan(),
    **{name: build() for name, build in FAULT_BUILDERS.items()},
}

#: Preset names in CLI display order.
FAULT_NAMES = tuple(sorted(FAULT_PRESETS))


def fault_plan_from_name(name) -> WorkloadSpec:
    """Resolve a preset name (or pass a plan through unchanged)."""
    if isinstance(name, WorkloadSpec):
        return name
    key = (name or "none").strip().lower()
    try:
        return FAULT_PRESETS[key]
    except KeyError as exc:
        raise ValueError(
            f"unknown fault plan {name!r}; available: {', '.join(FAULT_NAMES)}"
        ) from exc
