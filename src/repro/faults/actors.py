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
* :class:`RouteFlapActor` — routing instability: a link failure the
  control plane always reroutes around, so new flows are steered around
  the flapping link (when an alternate path exists) while its capacity is
  degraded for the flap window.
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

from repro.network.routing import RoutingTable
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
    """Base class for fault injectors (stats rows carry ``fault: True``)."""

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out["fault"] = True
        return out

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
# link failures and route flaps
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

    With ``reroute=True`` the actor is also the control plane: each failure
    and repair installs a routing table avoiding every currently-down link
    (:meth:`_apply_routing`), so new flows take the surviving paths; with
    ``repin`` (the default) live flows converge onto them at the same
    instant — the self-healing step.  ``reroute`` is off by default,
    keeping the classic avoid-nothing behaviour (and its goldens) intact.
    """

    kind = "link-failure"
    #: Fault event names of an outage's start and of its end.
    fail_event, repair_event = "link-failure", "link-repair"

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
        repin: bool = True,
    ) -> None:
        super().__init__(label, links)
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if not persistent and repair_mean <= 0:
            raise ValueError("repair_mean must be positive")
        # A flap may leave the capacity alone and only reroute; a failure may not.
        if not (0 < residual < 1 or residual == 1 and self.kind == "route-flap"):
            raise ValueError("residual must be in (0, 1), or 1 for a route flap")
        self.rng = rng
        self.mtbf = mtbf
        self.repair_mean = repair_mean
        self.residual = residual
        self.persistent = persistent
        self.limit = limit
        self.start_time = float(start_time)
        self.reroute = bool(reroute)
        self.repin = bool(repin)
        self.failures = 0
        self.repairs = 0
        self.downtime = 0.0
        self.failed_links: List[str] = []  # victims, in failure order
        self._down: Dict[str, float] = {}  # link -> failure time
        self._tables: Dict[frozenset, RoutingTable] = {}

    def bind(self, engine) -> None:
        super().bind(engine)
        self._tables = {frozenset(): engine.routing}

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
            if self.residual < 1:
                self.engine.fluid.set_link_capacity(
                    victim, self._nominal[victim] * self.residual
                )
            self.failures += 1
            if victim not in self.failed_links:
                self.failed_links.append(victim)
            self._record_fault(self.fail_event, link=victim)
            if self.reroute:
                self._apply_routing()
            if not self.persistent:
                repair = float(self.rng.exponential(self.repair_mean))
                self.engine.schedule(
                    self, now + repair, lambda name=victim: self._on_repair(name)
                )
        self._schedule_failure(self.engine.now)

    def _on_repair(self, name: str) -> None:
        # Victims are drawn among links that are up, so ``name`` is down.
        self.downtime += self.engine.now - self._down.pop(name)
        self.engine.fluid.set_link_capacity(name, self._nominal[name])
        self.repairs += 1
        self._record_fault(self.repair_event, link=name)
        if self.reroute:
            self._apply_routing()

    def _apply_routing(self) -> None:
        """Install the table for the current down-set (converging live flows
        onto the surviving paths when ``repin`` is set)."""
        self.engine.set_routing(
            self._routing_for(frozenset(self._down)), repin=self.repin
        )

    def _routing_for(self, avoid: frozenset) -> RoutingTable:
        """Control-plane recompute: a table avoiding ``avoid``, cached.

        An empty avoid-set is the nominal table itself; every distinct
        non-empty set is computed once (lazy Dijkstra per source inside the
        table), counted under ``routing.recomputes`` and traced on the
        simulation clock.  The fallback keeps pairs reachable when the
        avoided link is their only path.
        """
        table = self._tables.get(avoid)
        if table is None:
            table = RoutingTable(
                self.engine.topology, avoid=avoid, fallback=self._tables[frozenset()]
            )
            self._tables[avoid] = table
            METRICS.count("routing.recomputes")
            if TRACER.enabled:
                TRACER.event(
                    "routing.recompute",
                    sim_time=self.engine.now,
                    actor=self.label,
                    avoid=sorted(avoid),
                )
        return table

    def stats(self) -> Dict[str, object]:
        # An outage still open when the iteration ends counts up to now.
        still_down = sum(self.engine.now - t for t in self._down.values())
        out = super().stats()
        out.update(
            {
                "links_watched": len(self.links),
                "failures": self.failures,
                "repairs": self.repairs,
                "down_now": len(self._down),
                "downtime": self.downtime + still_down,
                "failed_links": list(self.failed_links),
                "rerouted": self.reroute,
            }
        )
        return out


class RouteFlapActor(LinkFailureActor):
    """Routing instability: a link failure that the control plane reroutes.

    Built from a ``route-flap`` spec with ``reroute=True``: a flap steers
    new flows around the flapping link (on tree topologies the fallback
    keeps the nominal route) and degrades its capacity to ``nominal ×
    residual`` for the flap window — reconverging control planes blackhole
    traffic briefly, which makes a flap observable even without path
    diversity; a residual of 1 only reroutes.  In-flight flows keep their
    route unless ``repin`` is set, as real connections survive a
    reconverging control plane.
    """

    kind = "route-flap"
    fail_event, repair_event = "route-flap", "route-settle"


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
