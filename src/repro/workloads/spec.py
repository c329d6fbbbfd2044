"""Declarative workload composition and the preset registry.

A :class:`WorkloadSpec` names the tenants that share the cluster with a
measured broadcast: rival broadcasts, Poisson / on-off cross traffic,
long-lived bulk transfers, capacity drift, peer churn — and the fault
injectors (link failures, route flaps, tracker outages, tenant cycling) of
a fault plan, which is a spec of fault-kind actors (:mod:`repro.faults`).
Specs are frozen and picklable — all parameters are plain values expressed
*relative* to the measured campaign's scale (fractions of the expected
broadcast duration, of the torrent size, of a node access link), so one
spec applies unchanged to any topology and fragment count.

Absolute values are resolved at build time by :func:`run_workload_iteration`,
which also derives every actor's RNG stream statelessly from the campaign
seed, the plan's role and the actor label (``(seed, "workload", iteration,
label)`` for tenants, ``(seed, "fault", iteration, label)`` for injectors)
— the same discipline a measurement campaign uses for broadcasts, so a
campaign replays bit-for-bit from its seed and the measured broadcast's own
stream (``(seed, "broadcast", iteration)``) is never perturbed.  With the
empty spec (:data:`NONE`) the iteration reduces to the classic single-tenant
broadcast exactly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bittorrent.swarm import SwarmConfig
from repro.bittorrent.torrent import TorrentMeta
from repro.network.grid5000 import NODE_ACCESS_CAPACITY
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.simulation.rng import derive_seed
from repro.workloads.actors import (
    BroadcastActor,
    BulkTransferActor,
    CapacityDriftActor,
    ChurnActor,
    OnOffTrafficActor,
    PoissonTrafficActor,
    WorkloadActor,
)
from repro.workloads.engine import WorkloadEngine

#: Actor kinds a spec may declare: background tenants, then fault injectors.
ACTOR_KINDS = (
    "rival", "poisson", "onoff", "bulk", "drift", "churn",
    "link-failure", "route-flap", "tracker-outage", "tenant-cycle",
)


def expected_broadcast_duration(config: SwarmConfig) -> float:
    """The campaign's natural timescale (same model as default_swarm_config):
    a broadcast moves ~4 file transfers' worth of bytes through one access
    link.  Relative workload knobs (start offsets, churn intervals, drift
    ticks) are expressed as fractions of this."""
    return 4.0 * float(config.torrent.size) / NODE_ACCESS_CAPACITY


@dataclasses.dataclass(frozen=True)
class ActorSpec:
    """One declared tenant or fault injector.

    ``params`` is a frozen ``(key, value)`` mapping of *relative* knobs; the
    accepted keys depend on ``kind`` (see :func:`_build_actor`).  Every kind
    accepts ``from_iteration`` / ``until_iteration`` to scope the actor to
    a slice of the campaign.
    """

    kind: str
    label: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ACTOR_KINDS:
            raise ValueError(
                f"unknown actor kind {self.kind!r}; expected one of {ACTOR_KINDS}"
            )
        if not self.label:
            raise ValueError("actor label must be non-empty")

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def applies_to(self, iteration: int) -> bool:
        """Whether this actor runs in campaign iteration ``iteration``."""
        p = self.param_dict()
        if iteration < int(p.get("from_iteration", 0)):
            return False
        until = p.get("until_iteration")
        return until is None or iteration < int(until)


def actor(kind: str, label: str, **params) -> ActorSpec:
    """Convenience constructor: ``actor("poisson", "bg", intensity=0.5)``."""
    return ActorSpec(kind=kind, label=label, params=tuple(sorted(params.items())))


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A named composition of tenants (a workload) or injectors (a fault plan).

    ``intensity`` is the spec's headline knob (recorded in summaries); its
    meaning is per-family — offered cross load as a fraction of a node
    access link, churn pressure, rival count, failure frequency relative to
    the broadcast timescale.
    """

    name: str
    description: str = ""
    actors: Tuple[ActorSpec, ...] = ()
    intensity: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload name must be non-empty")
        labels = [spec.label for spec in self.actors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate actor labels in workload {self.name!r}")

    def __bool__(self) -> bool:
        return bool(self.actors)

    @property
    def actor_count(self) -> int:
        """Actors declared (in a workload, the measured broadcast adds one)."""
        return len(self.actors)

    def active_in(self, iteration: int) -> Tuple[ActorSpec, ...]:
        """The actors that run in campaign iteration ``iteration``."""
        return tuple(s for s in self.actors if s.applies_to(iteration))

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for spec in self.actors:
            counts[spec.kind] = counts.get(spec.kind, 0) + 1
        return counts

    def metadata(self) -> Dict[str, object]:
        """Workload descriptors recorded in summaries."""
        return {
            "workload": self.name,
            "workload_actors": self.actor_count + 1,
            "workload_kinds": self.counts_by_kind(),
            "interference_intensity": self.intensity,
        }


# ---------------------------------------------------------------------- #
# actor builders (relative spec -> absolute actor)
# ---------------------------------------------------------------------- #
def _build_actor(
    spec: ActorSpec,
    config: SwarmConfig,
    hosts: Sequence[str],
    primary: BroadcastActor,
    rng: np.random.Generator,
) -> WorkloadActor:
    p = spec.param_dict()
    duration = expected_broadcast_duration(config)
    size = float(config.torrent.size)
    hosts = list(hosts)
    start_time = float(p.get("start_frac", 0.0)) * duration

    if spec.kind == "rival":
        fragments = p.get("fragments")
        rival_config = config
        if fragments is not None:
            rival_config = dataclasses.replace(
                config, torrent=TorrentMeta.scaled(int(fragments), name="rival")
            )
        root = hosts[int(p.get("root_index", -1)) % len(hosts)]
        return BroadcastActor(
            spec.label,
            rival_config,
            hosts=hosts,
            root=root,
            rng=rng,
            start_time=start_time,
            blocking=False,
        )
    if spec.kind == "poisson":
        intensity = float(p.get("intensity", 0.5))
        return PoissonTrafficActor(
            spec.label,
            rng,
            offered_load=intensity * NODE_ACCESS_CAPACITY,
            mean_size=float(p.get("mean_size_frac", 0.25)) * size,
            start_time=start_time,
        )
    if spec.kind == "onoff":
        intensity = float(p.get("intensity", 0.5))
        on_mean = float(p.get("on_frac", 0.15)) * duration
        return OnOffTrafficActor(
            spec.label,
            rng,
            on_mean=on_mean,
            off_mean=float(p.get("off_frac", 0.15)) * duration,
            # Big enough that a burst is ended by its timer, not its budget.
            burst_size=4.0 * NODE_ACCESS_CAPACITY * on_mean + size,
            rate_cap=intensity * NODE_ACCESS_CAPACITY,
            start_time=start_time,
        )
    if spec.kind == "bulk":
        return BulkTransferActor(
            spec.label,
            rng,
            src=hosts[int(p.get("src_index", 0)) % len(hosts)],
            dst=hosts[int(p.get("dst_index", -1)) % len(hosts)],
            size=float(p.get("size_frac", 2.0)) * size,
            repeat=bool(p.get("repeat", True)),
            start_time=start_time,
        )
    if spec.kind == "drift":
        return CapacityDriftActor(
            spec.label,
            rng,
            interval_mean=float(p.get("interval_frac", 0.25)) * duration,
            floor=float(p.get("floor", 0.5)),
            ceiling=float(p.get("ceiling", 1.0)),
            start_time=start_time,
        )
    if spec.kind == "churn":
        return ChurnActor(
            spec.label,
            rng,
            target=primary,
            interval_mean=float(p.get("interval_frac", 0.25)) * duration,
            downtime_mean=float(p.get("downtime_frac", 0.15)) * duration,
            start_time=start_time,
        )

    # Imported here because repro.faults imports this module.
    from repro.faults.actors import (
        FAILURE_RESIDUAL,
        LinkFailureActor,
        RouteFlapActor,
        TenantCycleActor,
        TrackerOutageActor,
    )

    if spec.kind == "link-failure":
        return LinkFailureActor(
            spec.label,
            rng,
            mtbf=float(p.get("mtbf_frac", 0.35)) * duration,
            repair_mean=float(p.get("repair_frac", 0.1)) * duration,
            links=p.get("links"),
            residual=float(p.get("residual", FAILURE_RESIDUAL)),
            persistent=bool(p.get("persistent", False)),
            limit=p.get("limit"),
            start_time=start_time,
            reroute=bool(p.get("reroute", False)),
        )
    if spec.kind == "route-flap":
        return RouteFlapActor(
            spec.label,
            rng,
            mtbf=float(p.get("interval_frac", 0.35)) * duration,
            repair_mean=float(p.get("duration_frac", 0.08)) * duration,
            links=p.get("links"),
            residual=float(p.get("severity", 0.25)),
            start_time=start_time,
            reroute=True,
            repin=bool(p.get("repin", False)),
        )
    if spec.kind == "tracker-outage":
        return TrackerOutageActor(
            spec.label,
            rng,
            interval_mean=float(p.get("interval_frac", 0.3)) * duration,
            outage_mean=float(p.get("outage_frac", 0.15)) * duration,
            start_time=start_time,
        )
    # tenant-cycle: the cycled tenant is this builder's own actor of kind
    # ``tenant`` (same params), drawing from the injector's stream and
    # starting at its arrival time.
    tenant = ActorSpec(str(p.get("tenant", "poisson")), f"{spec.label}.tenant",
                       spec.params)

    def factory(arrival: float) -> WorkloadActor:
        cycled = _build_actor(tenant, config, hosts, primary, rng)
        cycled.start_time = arrival
        return cycled

    # A rival broadcast announces to the tracker and runs to completion.
    rival = tenant.kind == "rival"
    return TenantCycleActor(
        spec.label,
        rng,
        factory=factory,
        arrival=float(p.get("arrival_frac", 0.2)) * duration,
        retry_base=float(p.get("retry_frac", 0.02)) * duration,
        departure=(
            None if rival else float(p.get("departure_frac", 0.7)) * duration
        ),
        needs_tracker=rival,
    )


# ---------------------------------------------------------------------- #
# running one multi-tenant measurement iteration
# ---------------------------------------------------------------------- #
def run_workload_iteration(
    topology: Topology,
    config: SwarmConfig,
    hosts: Optional[Sequence[str]],
    root: Optional[str],
    base_seed: int,
    iteration: int,
    workload: Optional[WorkloadSpec],
    routing: Optional[RoutingTable] = None,
    faults: Optional[WorkloadSpec] = None,
):
    """Run one measured broadcast inside its interference workload.

    Returns ``(BroadcastResult, per-actor stats list)``.  The measured
    broadcast's stream label is ``(seed, "broadcast", iteration)`` — the
    same derivation :class:`~repro.tomography.measurement
    .MeasurementCampaign` uses — so the empty workload reproduces the
    single-tenant campaign bit for bit.

    ``faults`` is a fault plan: its injectors join the same agenda after
    the workload's tenants.  Each actor active in ``iteration`` draws from
    its own ``(seed, stream, iteration, label)`` stream, where the stream
    is ``"workload"`` or ``"fault"`` by the argument its plan came in; an
    empty plan adds no actor and changes nothing.
    """
    engine = WorkloadEngine(topology, routing=routing)
    rng = np.random.default_rng(derive_seed(base_seed, "broadcast", iteration))
    primary = BroadcastActor("primary", config, hosts=hosts, root=root, rng=rng)
    engine.add(primary)
    swarm_hosts = primary.broadcast.hosts
    for stream, plan in (("workload", workload), ("fault", faults)):
        for spec in (plan or NONE).active_in(iteration):
            actor_rng = np.random.default_rng(
                derive_seed(base_seed, stream, iteration, spec.label)
            )
            engine.add(_build_actor(spec, config, swarm_hosts, primary, actor_rng))
    engine.run()
    return primary.result, engine.stats()


# ---------------------------------------------------------------------- #
# preset workloads
# ---------------------------------------------------------------------- #
def rival_broadcast_workload(rivals: int = 1, stagger: float = 0.3) -> WorkloadSpec:
    """Concurrent-broadcast contention: ``rivals`` unmeasured broadcasts on
    the same hosts, started at staggered fractions of the expected duration
    and rooted at different hosts."""
    if rivals < 1:
        raise ValueError("need at least one rival broadcast")
    return WorkloadSpec(
        name=f"rival-{rivals}",
        description=f"{rivals} concurrent rival broadcast(s), stagger {stagger:g}",
        actors=tuple(
            actor(
                "rival",
                f"rival-{i}",
                start_frac=stagger * i,
                root_index=-(i + 1),
            )
            for i in range(rivals)
        ),
        intensity=float(rivals),
    )


def cross_traffic_workload(
    intensity: float = 0.5, sources: int = 2, bulk: bool = False
) -> WorkloadSpec:
    """Generative cross traffic: Poisson flow arrivals plus bursty on-off
    sources, each offering ``intensity`` × one access link of load."""
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    actors: List[ActorSpec] = [actor("poisson", "poisson-bg", intensity=intensity)]
    for i in range(max(sources - 1, 0)):
        actors.append(
            actor("onoff", f"onoff-{i}", intensity=intensity, start_frac=0.05 * i)
        )
    if bulk:
        actors.append(actor("bulk", "bulk-bg", size_frac=2.0))
    return WorkloadSpec(
        name=f"cross-{intensity:g}",
        description=f"Poisson + on-off cross traffic at intensity {intensity:g}",
        actors=tuple(actors),
        intensity=float(intensity),
    )


def churn_workload(churn_rate: float = 1.0, downtime_frac: float = 0.15) -> WorkloadSpec:
    """Peer churn: mean leave interval is ``0.25 / churn_rate`` of the
    expected broadcast duration (higher rate → more departures)."""
    if churn_rate <= 0:
        raise ValueError("churn_rate must be positive")
    return WorkloadSpec(
        name=f"churn-{churn_rate:g}",
        description=f"leave/rejoin churn at rate {churn_rate:g}",
        actors=(
            actor(
                "churn",
                "churn",
                interval_frac=0.25 / churn_rate,
                downtime_frac=downtime_frac,
            ),
        ),
        intensity=float(churn_rate),
    )


def capacity_drift_workload(
    interval_frac: float = 0.2, floor: float = 0.5
) -> WorkloadSpec:
    """Link-capacity drift on the shared (switch-to-switch) links."""
    return WorkloadSpec(
        name="drift",
        description=f"capacity drift to [{floor:g}, 1.0] x nominal",
        actors=(actor("drift", "drift", interval_frac=interval_frac, floor=floor),),
        intensity=1.0 - float(floor),
    )


def mixed_workload(intensity: float = 0.5) -> WorkloadSpec:
    """Everything at once: a rival broadcast, cross traffic, drift and churn."""
    return WorkloadSpec(
        name=f"mixed-{intensity:g}",
        description="rival broadcast + cross traffic + drift + churn",
        actors=(
            actor("rival", "rival-0", start_frac=0.25, root_index=-1),
            actor("poisson", "poisson-bg", intensity=intensity),
            actor("onoff", "onoff-0", intensity=intensity),
            actor("drift", "drift", interval_frac=0.25, floor=0.6),
            actor("churn", "churn", interval_frac=0.35, downtime_frac=0.1),
        ),
        intensity=float(intensity),
    )


#: The empty workload: the measured broadcast alone on an idle network.
NONE = WorkloadSpec(name="none", description="single tenant, idle network")

#: Named presets reachable from the CLI (``repro run <scenario> --workload X``).
WORKLOAD_PRESETS: Dict[str, WorkloadSpec] = {
    "none": NONE,
    "rival": rival_broadcast_workload(rivals=1),
    "rival-2": rival_broadcast_workload(rivals=2),
    "cross-light": cross_traffic_workload(intensity=0.25, sources=1),
    "cross-heavy": cross_traffic_workload(intensity=1.0, sources=3, bulk=True),
    "churn": churn_workload(churn_rate=1.0),
    "drift": capacity_drift_workload(),
    "mixed": mixed_workload(intensity=0.5),
}

#: Preset names in CLI display order.
WORKLOAD_NAMES = tuple(sorted(WORKLOAD_PRESETS))


def workload_from_name(name) -> WorkloadSpec:
    """Resolve a preset name (or pass a spec through unchanged)."""
    if isinstance(name, WorkloadSpec):
        return name
    key = (name or "none").strip().lower()
    try:
        return WORKLOAD_PRESETS[key]
    except KeyError as exc:
        raise ValueError(
            f"unknown workload {name!r}; available: {', '.join(WORKLOAD_NAMES)}"
        ) from exc
