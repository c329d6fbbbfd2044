"""Workload actors: the tenants of a shared simulated cluster.

Every actor owns a label, draws from its own stateless RNG stream (derived
from the workload seed and the label, exactly like a measurement campaign
derives its per-broadcast streams), and schedules callbacks on the shared
:class:`~repro.workloads.engine.WorkloadEngine` agenda.  The catalogue:

* :class:`BroadcastActor` — runs an instrumented BitTorrent broadcast as a
  scheduled actor: the :class:`~repro.bittorrent.swarm.BroadcastSession`
  generator issues clock requests and this adapter turns them into agenda
  events.  The *measured* broadcast of an interference scenario is a
  blocking actor; rival broadcasts are the same actor marked non-blocking.
* :class:`PoissonTrafficActor` — memoryless cross traffic: flow arrivals
  are a Poisson process, sizes exponential, endpoints uniform host pairs.
* :class:`OnOffTrafficActor` — bursty cross traffic: alternating
  exponential ON (one bulk flow) and OFF (silence) periods.
* :class:`BulkTransferActor` — a long-lived background transfer between
  fixed endpoints, optionally restarted for the whole run.
* :class:`CapacityDriftActor` — slow link-capacity drift: periodically
  rescales chosen links to a random fraction of their nominal capacity.
* :class:`ChurnActor` — peer churn: repeatedly picks a live peer of a
  target broadcast, makes it leave, and schedules its rejoin.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bittorrent.swarm import BitTorrentBroadcast, BroadcastSession, SwarmConfig

#: Bounded announce retries before a caller gives up on a dark tracker.
MAX_ANNOUNCE_RETRIES = 10


def shared_links(topology) -> List[str]:
    """Switch-to-switch link names: the shared resources whose contention
    the tomography metric measures, and which drift and faults target."""
    return [
        link.name
        for link in topology.links
        if not (topology.is_host(link.a) or topology.is_host(link.b))
    ]


class WorkloadActor:
    """Base class for everything scheduled on the shared workload agenda."""

    #: Actor family name recorded in the per-iteration actor stats.
    kind = "abstract"
    #: Engine.run() returns once every *blocking* actor reports ``done``.
    blocking = False

    def __init__(self, label: str) -> None:
        if not label:
            raise ValueError("actor label must be non-empty")
        self.label = label
        self.engine = None
        #: Set by :meth:`stop`; a stopped actor schedules no further work.
        self.stopped = False

    def bind(self, engine) -> None:
        """Attach to an engine (called by ``WorkloadEngine.add``)."""
        self.engine = engine

    def start(self) -> None:
        """Schedule the actor's first event (called once by ``engine.run``)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Retire the actor mid-run (tenant departure).

        Pending agenda callbacks still fire but must no-op once ``stopped``
        is set; subclasses additionally tear down in-flight flows.
        """
        self.stopped = True

    @property
    def done(self) -> bool:
        """Whether a blocking actor has finished its work."""
        return True

    def on_network_change(self, time: float) -> None:
        """The shared rate allocation changed at ``time`` (another tenant)."""

    def stats(self) -> Dict[str, object]:
        """Summary dictionary recorded per iteration (override and extend)."""
        return {"actor": self.label, "kind": self.kind}

    def _tracker_dark(self, attempt: int, retry: Callable[[int], None]) -> bool:
        """Hold back a tracker announce (churn rejoin, tenant arrival).

        Returns ``False`` while the tracker is up.  While the engine's
        ``tracker_down`` flag is set, ``retry(attempt + 1)`` is scheduled
        after bounded exponential backoff off ``self.retry_base`` — a
        deterministic schedule, no random draws — and after
        :data:`MAX_ANNOUNCE_RETRIES` attempts the announce is abandoned.
        Callers keep ``retry_base``, ``announce_retries`` and
        ``announce_failures``.
        """
        if not self.engine.tracker_down:
            return False
        if attempt >= MAX_ANNOUNCE_RETRIES:
            self.announce_failures += 1
            return True
        self.announce_retries += 1
        self.engine.schedule(
            self,
            self.engine.now + self.retry_base * (2.0 ** attempt),
            lambda: retry(attempt + 1),
        )
        return True


class LinkWatcher(WorkloadActor):
    """An actor that rescales a set of watched links (drift, link faults).

    ``links`` defaults to every :func:`shared_links` link — leaving host
    access links untouched.  Binding resolves it and records each watched
    link's nominal capacity in ``_nominal``, the reference every rescale
    multiplies.
    """

    def __init__(self, label: str, links: Optional[Sequence[str]] = None) -> None:
        super().__init__(label)
        self.links = list(links) if links is not None else None
        self._nominal: Dict[str, float] = {}

    def bind(self, engine) -> None:
        super().bind(engine)
        if self.links is None:
            self.links = shared_links(engine.topology)
        if not self.links:
            raise ValueError(f"{self.kind} actor {self.label!r} has no links")
        self._nominal = {
            name: engine.fluid.link_capacity(name) for name in self.links
        }


# ---------------------------------------------------------------------- #
# broadcasts as actors
# ---------------------------------------------------------------------- #
class BroadcastActor(WorkloadActor):
    """Adapter running a swarm broadcast as one tenant of the shared clock.

    The session generator's requests map onto agenda events:

    * ``("advance", step, T)`` → an event at ``T``; the engine brings the
      shared fluid network to ``T`` before the callback resumes the loop.
    * ``("sleep", from, target, T)`` → an event at ``T`` carrying the
      granted landing step.  :meth:`on_network_change` (cross traffic,
      churn, capacity drift) reschedules it to the first grid point after
      the disturbance — the conservative landing that keeps the event-
      stepped loop exact in a changing network.
    """

    kind = "broadcast"

    def __init__(
        self,
        label: str,
        config: SwarmConfig,
        hosts: Optional[Sequence[str]] = None,
        root: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
        start_time: float = 0.0,
        trace: Optional[List[Tuple[float, str, str, int]]] = None,
        blocking: bool = True,
    ) -> None:
        super().__init__(label)
        self.config = config
        self.hosts = list(hosts) if hosts is not None else None
        self.rng = rng
        self.start_time = float(start_time)
        self.trace = trace
        self.blocking = blocking
        self.broadcast: Optional[BitTorrentBroadcast] = None
        self.session: Optional[BroadcastSession] = None
        self.root = root
        self._event = None
        self._pending_sleep: Optional[Tuple] = None
        self._granted: Optional[int] = None

    def bind(self, engine) -> None:
        super().bind(engine)
        self.broadcast = BitTorrentBroadcast(
            engine.topology, self.config, hosts=self.hosts, routing=engine.routing
        )
        if self.root is None:
            self.root = self.broadcast.hosts[0]
        self.session = BroadcastSession(
            self.broadcast,
            root=self.root,
            rng=self.rng,
            trace=self.trace,
            fluid=engine.fluid,
            start_time=self.start_time,
        )

    # -------------------------------------------------------------- #
    def start(self) -> None:
        self._event = self.engine.schedule(self, self.start_time, self._on_start)

    @property
    def done(self) -> bool:
        return self.session is not None and self.session.finished

    @property
    def result(self):
        """The broadcast's :class:`BroadcastResult` once finished."""
        return self.session.result if self.session is not None else None

    def _on_start(self) -> None:
        self._handle(self.session.start())

    def _on_advance(self) -> None:
        # The engine advanced the shared fluid clock to this event's time.
        self._handle(self.session.resume(None))

    def _on_wake(self) -> None:
        self._handle(self.session.resume(self._granted))

    def _handle(self, request: Optional[Tuple]) -> None:
        self._event = None
        self._pending_sleep = None
        self._granted = None
        if self.session.finished:
            return
        if request[0] == "advance":
            self._event = self.engine.schedule(self, request[2], self._on_advance)
        else:  # ("sleep", from_step, target_step, time)
            self._pending_sleep = request
            self._granted = request[2]
            self._event = self.engine.schedule(self, request[3], self._on_wake)

    # -------------------------------------------------------------- #
    def wake_at(self, time: float) -> None:
        """Cut a planned jump short: land at the first grid point >= ``time``.

        No-op unless the session is sleeping past ``time``.  Early landings
        are exact — the session runs the landing point's conversion check
        before its control phase, as the fixed-dt oracle does — so callers
        may wake conservatively (e.g. on every foreign transition).
        """
        pending = self._pending_sleep
        if pending is None:
            return
        _, from_step, target_step, target_time = pending
        if time >= target_time - 1e-12:
            return
        k = self.session.grid_step(time - 1e-12, from_step + 1)
        if k >= target_step:
            return
        wake_time = max(self.start_time + k * self.config.control_dt, time)
        self._event.cancel()
        self._granted = k
        self._pending_sleep = ("sleep", from_step, k, wake_time)
        self._event = self.engine.schedule(self, wake_time, self._on_wake)

    def on_network_change(self, time: float) -> None:
        self.wake_at(time)

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        result = self.result
        out.update(
            {
                "blocking": self.blocking,
                "start_time": self.start_time,
                "finished": self.done,
                "churn_events": self.session.churn_events if self.session else 0,
                "duration": result.duration if result is not None else None,
                "control_steps": result.control_steps if result is not None else None,
            }
        )
        return out


# ---------------------------------------------------------------------- #
# generative background traffic
# ---------------------------------------------------------------------- #
class _TrafficActor(WorkloadActor):
    """Shared bookkeeping for flow-generating background actors."""

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        rate_cap: Optional[float] = None,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(label)
        self.rng = rng
        self.hosts: List[str] = []
        self.rate_cap = rate_cap
        self.start_time = float(start_time)
        self.flows_started = 0
        self.bytes_offered = 0.0
        self.bytes_delivered = 0.0
        # Insertion-ordered (dict-as-set): ``stop()`` sums transferred bytes
        # over the live flows, and float summation order must not depend on
        # id()-based set iteration or runs stop being bit-reproducible.
        self._active: Dict[object, None] = {}

    def bind(self, engine) -> None:
        super().bind(engine)
        self.hosts = list(engine.topology.host_names)
        if len(self.hosts) < 2:
            raise ValueError(f"traffic actor {self.label!r} needs >= 2 hosts")

    def _pick_pair(self) -> Tuple[str, str]:
        """A uniformly random ordered pair of the topology's hosts, drawn
        from this actor's stream."""
        n = len(self.hosts)
        i = int(self.rng.integers(0, n))
        j = int(self.rng.integers(0, n - 1))
        if j >= i:
            j += 1
        return self.hosts[i], self.hosts[j]

    def _launch(self, src: str, dst: str, size: float):
        self.flows_started += 1
        self.bytes_offered += size
        transfer = self.engine.fluid.start_transfer(
            src, dst, size, rate_cap=self.rate_cap, on_complete=self._delivered
        )
        self._active[transfer] = None
        return transfer

    def _delivered(self, transfer) -> None:
        self._active.pop(transfer, None)
        self.bytes_delivered += transfer.transferred

    def stop(self) -> None:
        """Departure: cancel every in-flight flow, keeping delivered bytes."""
        super().stop()
        for transfer in list(self._active):
            if transfer.finish_time is None:
                self.bytes_delivered += transfer.transferred
                self.engine.fluid.cancel_transfer(transfer)
        self._active.clear()

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out.update(
            {
                "flows_started": self.flows_started,
                "bytes_offered": self.bytes_offered,
                "bytes_delivered": self.bytes_delivered,
            }
        )
        return out


class PoissonTrafficActor(_TrafficActor):
    """Memoryless cross traffic: Poisson arrivals of exponential-size flows.

    ``offered_load`` (bytes/second) fixes the mean injected rate:
    arrivals come at ``offered_load / mean_size`` per second.
    """

    kind = "poisson"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        offered_load: float,
        mean_size: float,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(label, rng, start_time=start_time)
        if offered_load <= 0 or mean_size <= 0:
            raise ValueError("offered_load and mean_size must be positive")
        self.offered_load = offered_load
        self.mean_size = mean_size
        self.arrival_rate = offered_load / mean_size

    def start(self) -> None:
        self._schedule_arrival(self.start_time)

    def _schedule_arrival(self, after: float) -> None:
        delay = float(self.rng.exponential(1.0 / self.arrival_rate))
        self.engine.schedule(self, after + delay, self._on_arrival)

    def _on_arrival(self) -> None:
        if self.stopped:
            return
        src, dst = self._pick_pair()
        size = max(float(self.rng.exponential(self.mean_size)), 1.0)
        self._launch(src, dst, size)
        self._schedule_arrival(self.engine.now)


class OnOffTrafficActor(_TrafficActor):
    """Bursty cross traffic: exponential ON periods (one bulk flow) and OFF
    silences.  During ON the flow runs uncapped (beyond ``rate_cap``) and is
    cancelled when the period ends, so its footprint is the period length,
    not a fixed byte budget."""

    kind = "onoff"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        on_mean: float,
        off_mean: float,
        burst_size: float,
        rate_cap: Optional[float] = None,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(label, rng, rate_cap, start_time)
        if on_mean <= 0 or off_mean <= 0 or burst_size <= 0:
            raise ValueError("on/off means and burst_size must be positive")
        self.on_mean = on_mean
        self.off_mean = off_mean
        self.burst_size = burst_size
        self._transfer = None

    def start(self) -> None:
        delay = float(self.rng.exponential(self.off_mean))
        self.engine.schedule(self, self.start_time + delay, self._on_period)

    def _on_period(self) -> None:
        if self.stopped:
            return
        src, dst = self._pick_pair()
        self._transfer = self._launch(src, dst, self.burst_size)
        duration = float(self.rng.exponential(self.on_mean))
        self.engine.schedule(self, self.engine.now + duration, self._off_period)

    def _off_period(self) -> None:
        if self.stopped:
            return
        transfer = self._transfer
        self._transfer = None
        if transfer is not None and transfer.finish_time is None:
            # Count the bytes the burst actually moved before tearing it down.
            self._active.pop(transfer, None)
            self.bytes_delivered += transfer.transferred
            self.engine.fluid.cancel_transfer(transfer)
        delay = float(self.rng.exponential(self.off_mean))
        self.engine.schedule(self, self.engine.now + delay, self._on_period)

    def _delivered(self, transfer) -> None:
        super()._delivered(transfer)
        if transfer is self._transfer:
            self._transfer = None


class BulkTransferActor(_TrafficActor):
    """A long-lived bulk transfer between fixed endpoints.

    With ``repeat=True`` the transfer restarts the moment it completes, so
    the pair's path carries a persistent competing flow for the whole run.
    """

    kind = "bulk"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        src: str,
        dst: str,
        size: float,
        repeat: bool = True,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(label, rng, start_time=start_time)
        if size <= 0:
            raise ValueError("size must be positive")
        self.src = src
        self.dst = dst
        self.size = size
        self.repeat = repeat

    def start(self) -> None:
        self.engine.schedule(self, self.start_time, self._begin)

    def _begin(self) -> None:
        if self.stopped:
            return
        self._launch(self.src, self.dst, self.size)

    def _delivered(self, transfer) -> None:
        super()._delivered(transfer)
        if self.repeat and not self.stopped:
            # Restart at the exact completion time via the shared agenda
            # (clamped: completions can land a float-tolerance behind now).
            restart = max(transfer.finish_time, self.engine.now)
            self.engine.schedule(self, restart, self._begin)


# ---------------------------------------------------------------------- #
# capacity drift
# ---------------------------------------------------------------------- #
class CapacityDriftActor(LinkWatcher):
    """Slow link-capacity drift on shared links.

    Every ``interval_mean`` (exponential) seconds one of the watched links
    is rescaled to ``nominal × U(floor, ceiling)``.
    """

    kind = "drift"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        interval_mean: float,
        links: Optional[Sequence[str]] = None,
        floor: float = 0.4,
        ceiling: float = 1.0,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(label, links)
        if interval_mean <= 0:
            raise ValueError("interval_mean must be positive")
        if not 0 < floor <= ceiling:
            raise ValueError("need 0 < floor <= ceiling")
        self.rng = rng
        self.interval_mean = interval_mean
        self.floor = floor
        self.ceiling = ceiling
        self.start_time = float(start_time)
        self.changes = 0

    def start(self) -> None:
        self._schedule_tick(self.start_time)

    def _schedule_tick(self, after: float) -> None:
        delay = float(self.rng.exponential(self.interval_mean))
        self.engine.schedule(self, after + delay, self._on_tick)

    def _on_tick(self) -> None:
        name = self.links[int(self.rng.integers(0, len(self.links)))]
        factor = float(self.rng.uniform(self.floor, self.ceiling))
        self.engine.fluid.set_link_capacity(name, self._nominal[name] * factor)
        self.changes += 1
        self._schedule_tick(self.engine.now)

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out.update({"links_watched": len(self.links), "changes": self.changes})
        return out


# ---------------------------------------------------------------------- #
# peer churn
# ---------------------------------------------------------------------- #
class ChurnActor(WorkloadActor):
    """Leave/rejoin churn against a target broadcast actor.

    Every ``interval_mean`` (exponential) seconds a uniformly chosen live,
    non-root peer leaves the swarm; it rejoins after an exponential
    ``downtime_mean`` with a fresh tracker announce (drawn from this
    actor's stream, so churn never perturbs the broadcast's own stream).

    A rejoin is an announce, so it respects tracker outages (see
    :class:`~repro.faults.actors.TrackerOutageActor`): while the engine's
    ``tracker_down`` flag is set the rejoin is retried with bounded
    exponential backoff — a deterministic schedule off ``retry_base =
    0.1 × downtime_mean``, no extra random draws, so an empty fault plan
    leaves the churn stream untouched bit for bit.
    """

    kind = "churn"

    def __init__(
        self,
        label: str,
        rng: np.random.Generator,
        target: BroadcastActor,
        interval_mean: float,
        downtime_mean: float,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(label)
        if interval_mean <= 0 or downtime_mean <= 0:
            raise ValueError("interval and downtime means must be positive")
        self.rng = rng
        self.target = target
        self.interval_mean = interval_mean
        self.downtime_mean = downtime_mean
        self.start_time = float(start_time)
        self.retry_base = 0.1 * downtime_mean
        self.leaves = 0
        self.rejoins = 0
        self.announce_retries = 0
        self.announce_failures = 0

    def start(self) -> None:
        self._schedule_leave(self.start_time)

    def _schedule_leave(self, after: float) -> None:
        delay = float(self.rng.exponential(self.interval_mean))
        self.engine.schedule(self, after + delay, self._on_leave)

    def _on_leave(self) -> None:
        target = self.target
        session = target.session
        if not target.done:
            candidates = session.leave_candidates()
            if candidates:
                victim = candidates[int(self.rng.integers(0, len(candidates)))]
                session.request_leave(victim)
                target.wake_at(self.engine.now)
                self.leaves += 1
                downtime = float(self.rng.exponential(self.downtime_mean))
                self.engine.schedule(
                    self,
                    self.engine.now + downtime,
                    lambda name=victim: self._on_rejoin(name),
                )
        self._schedule_leave(self.engine.now)

    def _on_rejoin(self, name: str, attempt: int = 0) -> None:
        target = self.target
        if target.done or self._tracker_dark(
            attempt, lambda retry: self._on_rejoin(name, retry)
        ):
            return
        target.session.request_rejoin(name, self.rng)
        target.wake_at(self.engine.now)
        self.rejoins += 1

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        # Report *applied* churn (the session's counters): a request can
        # still no-op at its control point, e.g. when the broadcast finishes
        # first, so the requested tallies (self.leaves/rejoins) overcount.
        applied = self.target.session.churn_applied
        out.update(
            {
                "leaves": applied["leave"],
                "rejoins": applied["rejoin"],
                "leave_requests": self.leaves,
                "rejoin_requests": self.rejoins,
                "announce_retries": self.announce_retries,
                "announce_failures": self.announce_failures,
            }
        )
        return out
