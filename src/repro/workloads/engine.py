"""The multi-tenant workload engine: one clock, one network, many actors.

The paper measures each BitTorrent broadcast in an otherwise-idle network;
real shared clusters are never idle.  This engine simulates that reality:
every tenant — instrumented broadcasts, rival broadcasts, generative cross
traffic, capacity drift, churn injectors — is a :class:`~repro.workloads
.actors.WorkloadActor` scheduled on **one**
:class:`~repro.simulation.engine.Simulator` agenda and moving bytes through
**one** :class:`~repro.network.fluid.FluidNetwork`, so all flows contend for
the same max-min-fair bandwidth.

The drive loop interleaves two event sources in exact time order:

* *agenda events* — actor callbacks (control points of a broadcast session,
  traffic arrivals, churn timers, capacity drift ticks);
* *fluid transitions* — in-flight transfer completions, processed at their
  exact times so ``on_complete`` callbacks fire with a consistent clock.

After every dispatch the engine compares the fluid network's transition
counter: if the dispatched actor changed the shared rate allocation (opened
or finished a flow, drifted a capacity), every *other* actor gets an
:meth:`~repro.workloads.actors.WorkloadActor.on_network_change` notification.
Event-stepped broadcast sessions use it to cut a planned jump short — their
jump predicates assume piecewise-constant rates, and the notification is
precisely the signal that the constant-rate window ended early.  Landing
early on the control grid is always exact (the fixed-dt oracle visits every
grid point), so a multi-tenant workload replays identically under both
stepping policies — ``tests/test_workloads.py`` pins that equivalence.

With a single broadcast actor and no background tenants nothing ever cuts a
jump short and no foreign flow perturbs the allocation: the engine reduces
to the standalone ``BitTorrentBroadcast.run`` loop bit for bit
(``tests/test_seed_replay.py`` pins the sha256 fingerprints).
"""

from __future__ import annotations

from typing import List, Optional

from repro.network.fluid import FluidNetwork
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.observability.metrics import METRICS
from repro.observability.tracer import TRACER
from repro.simulation.engine import Event, Simulator
from repro.workloads.actors import WorkloadActor

#: Safety valve on dispatched events per :meth:`WorkloadEngine.run` call.
DEFAULT_MAX_EVENTS = 50_000_000


class WorkloadEngine:
    """Shared simulation clock and fluid network for many workload actors.

    Parameters
    ----------
    topology:
        The network substrate every tenant's flows share.
    routing:
        Optional pre-built routing table (shared across iterations).
    """

    def __init__(
        self, topology: Topology, routing: Optional[RoutingTable] = None
    ) -> None:
        self.topology = topology
        self.routing = routing or RoutingTable(topology)
        self.simulator = Simulator()
        self.fluid = FluidNetwork(topology, self.routing)
        self.actors: List[WorkloadActor] = []
        #: Set by :class:`~repro.faults.actors.TrackerOutageActor` while the
        #: rendezvous service is dark; announce-dependent actors check it and
        #: retry with bounded backoff.
        self.tracker_down = False
        self._running = False

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current shared simulation time in seconds."""
        return self.simulator.now

    def add(self, actor: WorkloadActor) -> WorkloadActor:
        """Register an actor; it may schedule events once :meth:`run` starts."""
        if any(existing.label == actor.label for existing in self.actors):
            raise ValueError(f"duplicate actor label {actor.label!r}")
        actor.bind(self)
        self.actors.append(actor)
        return actor

    def add_runtime(self, actor: WorkloadActor) -> WorkloadActor:
        """Add a tenant to a *live* engine (mid-:meth:`run` arrival).

        Like :meth:`add`, but when the drive loop is already running the
        actor is started immediately so it can schedule its first events
        from the current clock.  Late arrivals must not be blocking: the
        drive loop's exit condition was fixed when :meth:`run` started.
        """
        if actor.blocking and self._running:
            raise ValueError(
                f"cannot add blocking actor {actor.label!r} to a running engine"
            )
        self.add(actor)
        if self._running:
            actor.start()
        return actor

    def set_routing(self, routing: RoutingTable, repin: bool = False) -> None:
        """Swap the routing table mid-run (route flaps, failure recovery).

        By default only *new* transfers consult the table; in-flight flows
        keep the pinned link lists they were opened with (connections
        surviving a reconverging control plane).  With ``repin=True`` the
        swap also converges the data path: every live flow whose route
        changed is moved onto its new path at this instant, in one counted
        fluid transition (:meth:`~repro.network.fluid.FluidNetwork
        .repin_routes`), so event-stepped sessions are woken exactly when
        the allocation changes.  The replacement must be built over the same
        topology so its dense link index stays aligned with the fluid
        network's capacity vector.
        """
        if routing.topology is not self.topology:
            raise ValueError("replacement routing table is over a different topology")
        self.routing = routing
        self.fluid.routing = routing
        if repin:
            moved = self.fluid.repin_routes(routing)
            if moved:
                METRICS.count("routing.repins", moved)
                if TRACER.enabled:
                    TRACER.event(
                        "routing.repin",
                        sim_time=self.now,
                        flows=moved,
                        avoid=sorted(routing.avoid),
                    )

    def schedule(self, actor: WorkloadActor, time: float, callback) -> Event:
        """Put an actor callback on the shared agenda (tagged with its owner)."""
        return self.simulator.schedule_at(time, callback, owner=actor)

    # ------------------------------------------------------------------ #
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> float:
        """Drive the shared agenda until the workload's blocking actors finish.

        ``until`` bounds the simulated horizon; it is required when no actor
        is *blocking* (pure background workloads would otherwise generate
        events forever).  Returns the simulation time at exit.
        """
        blocking = [actor for actor in self.actors if actor.blocking]
        if not blocking and until is None:
            raise ValueError(
                "a workload with no blocking actor needs an explicit horizon"
            )
        self._running = True
        for actor in list(self.actors):
            actor.start()

        trace_full = TRACER.full
        engine_started = TRACER.now() if TRACER.enabled else 0.0
        dispatched = processed = 0
        while True:
            if blocking and all(actor.done for actor in blocking):
                break
            t_event = self.simulator.peek_time()
            t_fluid = self.fluid.next_transition()
            if t_event is None and t_fluid is None:
                break
            if processed >= max_events:
                raise RuntimeError(
                    f"workload exceeded its event budget ({max_events})"
                )
            processed += 1

            if t_event is None or (
                t_fluid is not None and t_fluid < t_event - 1e-12
            ):
                # A transfer finishes strictly before the next agenda event:
                # process it at its exact time so completion callbacks see a
                # consistent clock and freed bandwidth is redistributed.
                if until is not None and t_fluid > until + 1e-12:
                    break
                snapshot = self.fluid.transitions
                self.simulator.advance_to(t_fluid)
                self.fluid.advance_to(t_fluid)
                if self.fluid.transitions != snapshot:
                    if trace_full:
                        TRACER.event(
                            "fluid.transition",
                            sim_time=t_fluid,
                            transitions=self.fluid.transitions - snapshot,
                        )
                    self._network_changed(t_fluid, source=None)
                continue

            if until is not None and t_event > until + 1e-12:
                break
            snapshot = self.fluid.transitions
            self.simulator.advance_to(t_event)
            # Completions landing exactly on the event time are settled
            # before the callback runs, as a real event-list sim would.
            self.fluid.advance_to(t_event)
            event = self.simulator.step()
            dispatched += 1
            if trace_full and event is not None:
                owner = getattr(event, "owner", None)
                TRACER.event(
                    "workload.dispatch",
                    sim_time=t_event,
                    actor=getattr(owner, "label", None),
                )
            if event is not None and self.fluid.transitions != snapshot:
                self._network_changed(t_event, source=event.owner)

        self._running = False
        METRICS.count("workload.dispatches", dispatched)
        if TRACER.enabled:
            TRACER.span_record(
                "workload.run",
                engine_started,
                actors=len(self.actors),
                dispatches=dispatched,
                sim_end=self.simulator.now,
            )
        if until is not None:
            self.fluid.advance_to(until)
            self.simulator.advance_to(until)
        return self.simulator.now

    # ------------------------------------------------------------------ #
    def _network_changed(self, time: float, source: Optional[object]) -> None:
        """Tell every other actor the shared rate allocation just changed."""
        METRICS.count("workload.network_changes")
        for actor in self.actors:
            if actor is not source:
                actor.on_network_change(time)

    def stats(self) -> List[dict]:
        """Per-actor summary dictionaries, in registration order."""
        return [actor.stats() for actor in self.actors]
