"""The discrete-event agenda of the multi-tenant workload engine.

Events are ``(time, order, callback)`` triples kept in a binary heap; ties on
the timestamp are broken by insertion order, so a simulation driven by seeded
random streams always replays identically.  Cancellation is lazy: a cancelled
event stays in the heap and is dropped when it reaches the top.  The agenda
has no run loop of its own: :class:`~repro.workloads.engine.WorkloadEngine`
interleaves :meth:`Simulator.step` with the fluid network's transitions.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for an event at a past or non-finite time, or a backwards clock move."""


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulated time (seconds) at which the callback fires.
    order:
        Monotonic tie-breaker assigned by the agenda; two events with equal
        ``time`` fire in scheduling order.
    callback:
        Zero-argument callable invoked when the event fires.  Excluded from
        ordering comparisons.
    cancelled:
        Cancelled events stay in the heap but are skipped when they reach
        its top.
    """

    time: float
    order: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Opaque owner tag (e.g. the workload actor that scheduled the event);
    #: lets a shared-agenda driver attribute each dispatch to its actor.
    owner: Optional[object] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so that it will be skipped when its time comes."""
        self.cancelled = True


class Simulator:
    """A heap of :class:`Event` objects and the clock of the last dispatch.

    The clock starts at zero and only moves forward, by :meth:`step` or
    :meth:`advance_to`.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Event] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        owner: Optional[object] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time``.

        ``owner`` is an opaque tag carried on the event; the workload engine
        uses it to attribute each dispatch to the actor that scheduled it.

        Raises
        ------
        SimulationError
            If ``time`` lies in the simulated past or is not finite.
        """
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event in the past (now={self._now}, requested={time})"
            )
        event = Event(max(time, self._now), next(self._counter), callback, owner=owner)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> Optional[float]:
        """Firing time of the next live event, or ``None`` when idle.

        Lets the workload engine interleave fluid-network transitions between
        events without popping them.
        """
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    def step(self) -> Optional[Event]:
        """Pop and dispatch exactly one live event; return it (``None`` when idle)."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                self._now = max(self._now, event.time)
                event.callback()
                return event
        return None

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without dispatching anything."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot move the clock backwards (now={self._now}, requested={time})"
            )
        self._now = max(self._now, time)
