"""Fault actors: deterministic failure injection on the shared agenda.

Faults are tenants too: every injector below is a
:class:`~repro.workloads.actors.WorkloadActor` scheduled on the same
:class:`~repro.workloads.engine.WorkloadEngine` agenda as the measured
broadcast and its background workload, drawing from its own stateless RNG
stream (``(seed, "fault", iteration, label)``, see
:func:`~repro.workloads.spec.run_workload_iteration`).  Injecting a fault
is therefore just another agenda dispatch: capacity transitions notify
every other actor through ``on_network_change`` exactly like capacity
drift does, so fixed and event stepping stay bit-identical under faults.

The catalogue:

* :class:`LinkFailureActor` — link outages: capacity collapses to a tiny
  residual (the fluid engine requires positive capacities) and is restored
  after an exponential repair time, via the counted
  :meth:`~repro.network.fluid.FluidNetwork.set_link_capacity` transitions.
* :class:`RouteFlapActor` — routing instability: a link flaps, new flows
  are steered around it (when an alternate path exists) and its capacity is
  degraded for the flap window; in-flight flows keep their pinned routes,
  as real connections survive a reconverging control plane.
* :class:`TrackerOutageActor` — the rendezvous service goes dark: announce
  attempts made during the outage window fail and callers retry with
  bounded exponential backoff (see :class:`~repro.workloads.actors
  .ChurnActor` and :class:`TenantCycleActor`).
* :class:`TenantCycleActor` — whole-tenant arrival and departure
  mid-iteration: a background tenant is constructed and added to the live
  engine at its arrival time and stopped (in-flight flows cancelled) at its
  departure time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.observability.metrics import METRICS
from repro.observability.tracer import TRACER
from repro.workloads.actors import (
    MAX_ANNOUNCE_RETRIES,
    LinkWatcher,
    WorkloadActor,
    shared_links,
)

#: Fraction of nominal capacity a "failed" link retains.  The fluid engine
#: rejects non-positive capacities, so an outage is a collapse to a residual
#: trickle: flows crossing the link are effectively stalled (the transition
#: predictor treats them as such) but the allocation stays well-defined.
FAILURE_RESIDUAL = 1e-6

__all__ = [
    "FAILURE_RESIDUAL",
    "MAX_ANNOUNCE_RETRIES",
    "FaultActor",
    "LinkFailureActor",
    "RouteFlapActor",
    "TenantCycleActor",
    "TrackerOutageActor",
    "shared_links",
]


class FaultActor(WorkloadActor):
    """Base class for fault injectors (stats rows carry ``fault: True``).

    Besides the fault tag, the base carries the injectors' shared *control
    plane*: :meth:`_routing_for` derives (and caches, per avoid-set) a
    Dijkstra-recomputed :class:`~repro.network.routing.RoutingTable` that
    steers around a set of failed/flapping links, falling back to the
    nominal table for pairs the exclusion would disconnect.
    """

    def __init__(self, label: str) -> None:
        super().__init__(label)
        self._route_tables: Dict[frozenset, object] = {}
        self._base_routing = None

    def bind(self, engine) -> None:
        super().bind(engine)
        self._base_routing = engine.routing

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out["fault"] = True
        return out

    def _routing_for(self, avoid: frozenset):
        """Control-plane recompute: a table avoiding ``avoid``, cached.

        An empty avoid-set is the nominal table itself; every distinct
        non-empty set is computed once (lazy Dijkstra per source inside the
        table), counted under ``routing.recomputes`` and traced on the
        simulation clock.  The fallback keeps pairs reachable when the
        avoided link is their only path.
        """
        if not avoid:
            return self._base_routing
        table = self._route_tables.get(avoid)
        if table is None:
            from repro.network.routing import RoutingTable

            table = RoutingTable(
                self.engine.topology, avoid=avoid, fallback=self._base_routing
            )
            self._route_tables[avoid] = table
            METRICS.count("routing.recomputes")
            if TRACER.enabled:
                TRACER.event(
                    "routing.recompute",
                    sim_time=self.engine.now,
                    actor=self.label,
                    avoid=sorted(avoid),
                )
        return table

    def _record_fault(self, event: str, **args) -> None:
        """Count and (when tracing) record one injected fault event.

        ``event`` follows the ``{kind}`` / ``{kind}-phase`` convention
        (``link-failure``, ``link-repair``, ``tenant-arrival``, ...); the
        trace record is sim-time stamped at the injection instant.  Pure
        telemetry: no random draws, no clock movement.
        """
        METRICS.count("faults.injected")
        METRICS.count(f"faults.{event}")
        if TRACER.enabled:
            TRACER.event(
                f"fault.{event}",
                sim_time=self.engine.now,
                actor=self.label,
                **args,
            )


# ---------------------------------------------------------------------- #
# link failures
# ---------------------------------------------------------------------- #
class LinkFailureActor(LinkWatcher, FaultActor):
    """Fail-and-repair cycles on shared links.

    Every ``mtbf`` (exponential) seconds one of the watched links that is
    currently up collapses to ``nominal × residual``; it is repaired after
    an exponential ``repair_mean`` unless ``persistent`` is set, in which
    case the link stays down for the rest of the iteration.  ``limit``
    bounds the number of failures injected (``None`` → unbounded).

    Both the failure and the repair go through the counted
    ``set_link_capacity`` transition, so event-stepped sessions are woken
    at the exact instants the world changes.

    With ``reroute=True`` the actor is also a self-healing control plane:
    each failure (and repair) derives a routing table avoiding every
    currently-down link (:meth:`FaultActor._routing_for`) and installs it
    with ``repin=True`` — live flows converge onto the surviving paths at
    the same instant the capacity collapses.  The default is off, keeping
    the classic avoid-nothing behaviour (and its goldens) intact.
    """

    kind = "link-failure"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        mtbf: float,
        repair_mean: float,
        links: Optional[Sequence[str]] = None,
        residual: float = FAILURE_RESIDUAL,
        persistent: bool = False,
        limit: Optional[int] = None,
        start_time: float = 0.0,
        reroute: bool = False,
    ) -> None:
        super().__init__(label, links)
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if not persistent and repair_mean <= 0:
            raise ValueError("repair_mean must be positive")
        if not 0 < residual < 1:
            raise ValueError("residual must be in (0, 1)")
        self.rng = rng
        self.mtbf = mtbf
        self.repair_mean = repair_mean
        self.residual = residual
        self.persistent = persistent
        self.limit = limit
        self.start_time = float(start_time)
        self.reroute = bool(reroute)
        self.failures = 0
        self.repairs = 0
        self.downtime = 0.0
        self.failed_links: List[str] = []  # victims, in failure order
        self._down: Dict[str, float] = {}  # link -> failure time

    def start(self) -> None:
        self._schedule_failure(self.start_time)

    def _schedule_failure(self, after: float) -> None:
        if self.limit is not None and self.failures >= self.limit:
            return
        delay = float(self.rng.exponential(self.mtbf))
        self.engine.schedule(self, after + delay, self._on_fail)

    def _on_fail(self) -> None:
        up = [name for name in self.links if name not in self._down]
        if up:
            victim = up[int(self.rng.integers(0, len(up)))]
            now = self.engine.now
            self._down[victim] = now
            self.engine.fluid.set_link_capacity(
                victim, self._nominal[victim] * self.residual
            )
            self.failures += 1
            if victim not in self.failed_links:
                self.failed_links.append(victim)
            self._record_fault("link-failure", link=victim)
            if self.reroute:
                self._apply_routing()
            if not self.persistent:
                repair = float(self.rng.exponential(self.repair_mean))
                self.engine.schedule(
                    self, now + repair, lambda name=victim: self._on_repair(name)
                )
        self._schedule_failure(self.engine.now)

    def _on_repair(self, name: str) -> None:
        failed_at = self._down.pop(name, None)
        if failed_at is None:
            return
        self.downtime += self.engine.now - failed_at
        self.engine.fluid.set_link_capacity(name, self._nominal[name])
        self.repairs += 1
        self._record_fault("link-repair", link=name)
        if self.reroute:
            self._apply_routing()

    def _apply_routing(self) -> None:
        """Install the recomputed table for the current down-set, converging
        live flows onto the surviving paths (the self-healing step)."""
        self.engine.set_routing(
            self._routing_for(frozenset(self._down)), repin=True
        )

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out.update(
            {
                "links_watched": len(self.links),
                "failures": self.failures,
                "repairs": self.repairs,
                "down_now": len(self._down),
                "downtime": self.downtime,
                "failed_links": list(self.failed_links),
                "rerouted": self.reroute,
            }
        )
        return out


# ---------------------------------------------------------------------- #
# route flaps
# ---------------------------------------------------------------------- #
class RouteFlapActor(LinkWatcher, FaultActor):
    """Routing instability: recompute routing around a flapping link.

    Every ``interval_mean`` (exponential) seconds one watched link starts a
    flap of exponential ``duration_mean``: the engine's routing table is
    swapped for one that avoids every currently-flapping link (newly opened
    flows are steered around it where an alternate path exists; on tree
    topologies the fallback keeps the nominal route), and the link's
    capacity is degraded to ``nominal × severity`` for the window —
    reconverging control planes blackhole traffic briefly, which is what
    makes a flap observable even without path diversity.  By default
    in-flight flows keep the route they were opened with; ``repin=True``
    converges them onto the recomputed paths at each flap/settle instant,
    mirroring the self-healing link-failure mode.
    """

    kind = "route-flap"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        interval_mean: float,
        duration_mean: float,
        links: Optional[Sequence[str]] = None,
        severity: float = 0.25,
        start_time: float = 0.0,
        repin: bool = False,
    ) -> None:
        super().__init__(label, links)
        if interval_mean <= 0 or duration_mean <= 0:
            raise ValueError("interval and duration means must be positive")
        if not 0 < severity <= 1:
            raise ValueError("severity must be in (0, 1]")
        self.rng = rng
        self.interval_mean = interval_mean
        self.duration_mean = duration_mean
        self.severity = severity
        self.start_time = float(start_time)
        self.repin = bool(repin)
        self.flaps = 0
        self.reroutes = 0
        self._active: set = set()

    def start(self) -> None:
        self._schedule_flap(self.start_time)

    def _schedule_flap(self, after: float) -> None:
        delay = float(self.rng.exponential(self.interval_mean))
        self.engine.schedule(self, after + delay, self._on_flap)

    def _on_flap(self) -> None:
        stable = [name for name in self.links if name not in self._active]
        if stable:
            victim = stable[int(self.rng.integers(0, len(stable)))]
            self._active.add(victim)
            self.flaps += 1
            self._record_fault("route-flap", link=victim)
            self._apply_routing()
            if self.severity < 1.0:
                self.engine.fluid.set_link_capacity(
                    victim, self._nominal[victim] * self.severity
                )
            duration = float(self.rng.exponential(self.duration_mean))
            self.engine.schedule(
                self,
                self.engine.now + duration,
                lambda name=victim: self._on_settle(name),
            )
        self._schedule_flap(self.engine.now)

    def _on_settle(self, name: str) -> None:
        if name not in self._active:
            return
        self._active.discard(name)
        self._record_fault("route-settle", link=name)
        self._apply_routing()
        self.engine.fluid.set_link_capacity(name, self._nominal[name])

    def _apply_routing(self) -> None:
        self.engine.set_routing(
            self._routing_for(frozenset(self._active)), repin=self.repin
        )
        self.reroutes += 1

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out.update(
            {
                "links_watched": len(self.links),
                "flaps": self.flaps,
                "reroutes": self.reroutes,
                "flapping_now": len(self._active),
            }
        )
        return out


# ---------------------------------------------------------------------- #
# tracker outages
# ---------------------------------------------------------------------- #
class TrackerOutageActor(FaultActor):
    """The tracker goes dark for exponential outage windows.

    While :attr:`~repro.workloads.engine.WorkloadEngine.tracker_down` is
    set, announce attempts (churn rejoins, rival-tenant arrivals) fail at
    the caller, which retries with bounded exponential backoff drawn
    against its own deterministic schedule — the fault never touches any
    other actor's random stream.
    """

    kind = "tracker-outage"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        interval_mean: float,
        outage_mean: float,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(label)
        if interval_mean <= 0 or outage_mean <= 0:
            raise ValueError("interval and outage means must be positive")
        self.rng = rng
        self.interval_mean = interval_mean
        self.outage_mean = outage_mean
        self.start_time = float(start_time)
        self.outages = 0
        self.outage_time = 0.0

    def start(self) -> None:
        delay = float(self.rng.exponential(self.interval_mean))
        self.engine.schedule(self, self.start_time + delay, self._on_outage)

    def _on_outage(self) -> None:
        self.engine.tracker_down = True
        self.outages += 1
        self._record_fault("tracker-outage")
        duration = float(self.rng.exponential(self.outage_mean))
        self.outage_time += duration
        recover_at = self.engine.now + duration
        self.engine.schedule(self, recover_at, self._on_recover)
        delay = float(self.rng.exponential(self.interval_mean))
        self.engine.schedule(self, recover_at + delay, self._on_outage)

    def _on_recover(self) -> None:
        self.engine.tracker_down = False
        self._record_fault("tracker-recover")

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out.update({"outages": self.outages, "outage_time": self.outage_time})
        return out


# ---------------------------------------------------------------------- #
# tenant arrival / departure
# ---------------------------------------------------------------------- #
class TenantCycleActor(FaultActor):
    """Whole-tenant arrival and departure mid-iteration.

    At ``arrival`` the ``factory`` is called with the current simulation
    time and the returned actor is added to the *live* engine
    (:meth:`~repro.workloads.engine.WorkloadEngine.add_runtime`); at
    ``departure`` (``None`` → never) the tenant is stopped and its
    in-flight flows are cancelled.  Tenants that must announce to the
    tracker (``needs_tracker=True``, e.g. rival broadcasts) respect
    tracker outages: the arrival is retried with bounded exponential
    backoff off ``retry_base`` until the tracker is reachable again.
    """

    kind = "tenant-cycle"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        factory: Callable[[float], WorkloadActor],
        arrival: float,
        retry_base: float,
        departure: Optional[float] = None,
        needs_tracker: bool = False,
    ) -> None:
        super().__init__(label)
        if arrival < 0:
            raise ValueError("arrival must be non-negative")
        if departure is not None and departure <= arrival:
            raise ValueError("departure must come after arrival")
        self.rng = rng
        self.factory = factory
        self.arrival = float(arrival)
        self.departure = departure if departure is None else float(departure)
        self.needs_tracker = needs_tracker
        self.retry_base = retry_base
        self.tenant: Optional[WorkloadActor] = None
        self.arrivals = 0
        self.departures = 0
        self.announce_retries = 0
        self.announce_failures = 0

    def start(self) -> None:
        self.engine.schedule(self, self.arrival, self._on_arrival)

    def _on_arrival(self, attempt: int = 0) -> None:
        if self.needs_tracker and self._tracker_dark(attempt, self._on_arrival):
            return
        self.tenant = self.factory(self.engine.now)
        self.engine.add_runtime(self.tenant)
        self.arrivals += 1
        self._record_fault("tenant-arrival", tenant=self.tenant.label)
        if self.departure is not None:
            self.engine.schedule(
                self, max(self.departure, self.engine.now), self._on_departure
            )

    def _on_departure(self) -> None:
        if self.tenant is None or self.tenant.stopped:
            return
        self.tenant.stop()
        self.departures += 1
        self._record_fault("tenant-departure", tenant=self.tenant.label)

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out.update(
            {
                "arrivals": self.arrivals,
                "departures": self.departures,
                "announce_retries": self.announce_retries,
                "announce_failures": self.announce_failures,
            }
        )
        return out
