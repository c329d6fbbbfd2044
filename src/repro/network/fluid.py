"""Fluid (rate-based) transfer engine on top of the max-min allocator.

Two usage styles are supported:

* **event-driven** (:meth:`FluidNetwork.run_until_complete`,
  :meth:`FluidNetwork.next_transition`) — rates are recomputed whenever a
  transfer starts or finishes and the next completion is scheduled exactly;
  this is the classic flow-level simulation used for NetPIPE probes and the
  saturation-tomography baselines, and what the event-stepped BitTorrent
  swarm builds its jump targets from.
* **time-stepped** (:meth:`FluidNetwork.advance_to`) — the caller advances
  the clock and the engine credits ``rate × elapsed`` bytes to every active
  transfer; the BitTorrent swarm uses this mode because its own control
  loop (choking rounds, piece selection) runs on a discretized schedule.

Internally the network keeps a :class:`~repro.network.solver.FlowSet` whose
slots index contiguous ``remaining``/``rate``/``size`` vectors.  The byte
state is **anchored**: ``_remaining`` is only materialized at *transition
points* — flow arrivals/cancellations and in-flight completions — and every
read in between is the analytic ``remaining - rate × (t - anchor)``.  Because
the allocation is piecewise-constant between transitions, the value observed
at any time ``t`` is a pure function of the last transition state: it does
not depend on how many intermediate ``advance_to`` calls the caller made.
That property is what lets the swarm's event-stepped mode skip over inert
control steps while remaining bit-for-bit identical to the fixed-step loop.

:class:`FluidTransfer` objects are thin views: their ``transferred``/``rate``
properties read the vectors, so per-step state is never copied back onto
Python objects.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.network.routing import RoutingTable
from repro.network.solver import FlowSet
from repro.network.topology import Topology

#: Rate assigned to loopback / unconstrained transfers (local-memory speed).
LOOPBACK_RATE = 100e9


class FluidTransfer:
    """A unidirectional bulk transfer between two hosts.

    Attributes
    ----------
    transfer_id:
        Unique integer id assigned by the network.
    src, dst:
        Host names.
    size:
        Total bytes to move.
    transferred:
        Bytes moved so far (live view onto the network's state vectors).
    rate:
        Current allocated rate (bytes/second); updated on every reallocation.
    on_complete:
        Optional callback invoked (with the transfer) when it finishes.
    """

    __slots__ = (
        "transfer_id",
        "src",
        "dst",
        "size",
        "links",
        "rate_cap",
        "start_time",
        "finish_time",
        "on_complete",
        "_net",
        "_slot",
        "_final_transferred",
        "_final_rate",
    )

    def __init__(
        self,
        transfer_id: int,
        src: str,
        dst: str,
        size: float,
        links: Tuple[str, ...],
        rate_cap: Optional[float] = None,
        start_time: float = 0.0,
        on_complete: Optional[Callable[["FluidTransfer"], None]] = None,
    ) -> None:
        self.transfer_id = transfer_id
        self.src = src
        self.dst = dst
        self.size = size
        self.links = links
        self.rate_cap = rate_cap
        self.start_time = start_time
        self.finish_time: Optional[float] = None
        self.on_complete = on_complete
        self._net: Optional["FluidNetwork"] = None
        self._slot = -1
        self._final_transferred = 0.0
        self._final_rate = 0.0

    @property
    def transferred(self) -> float:
        if self._slot >= 0:
            net = self._net
            remaining = float(net._remaining[self._slot])
            elapsed = net.now - net._anchor
            if elapsed > 0.0:
                remaining -= float(net._rate[self._slot]) * elapsed
            return self.size - max(remaining, 0.0)
        return self._final_transferred

    @property
    def rate(self) -> float:
        if self._slot >= 0:
            return float(self._net._rate[self._slot])
        return self._final_rate

    @property
    def remaining(self) -> float:
        return max(self.size - self.transferred, 0.0)

    @property
    def done(self) -> bool:
        return self.remaining <= 1e-9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FluidTransfer(id={self.transfer_id}, {self.src!r}->{self.dst!r}, "
            f"{self.transferred:.0f}/{self.size:.0f}B)"
        )


class FluidNetwork:
    """Tracks active transfers over a topology and shares bandwidth max-min fairly."""

    def __init__(self, topology: Topology, routing: Optional[RoutingTable] = None) -> None:
        self.topology = topology
        self.routing = routing or RoutingTable(topology)
        self._flows = FlowSet(self.routing.capacity_vector())
        self._active: Dict[int, FluidTransfer] = {}
        self._ids = itertools.count(1)
        self._dirty = True
        self.now = 0.0
        #: Absolute time at which ``_remaining`` was last materialized; the
        #: current ``_rate`` vector governs ``[_anchor, next transition)``.
        self._anchor = 0.0
        #: Monotone count of flow-set transitions (arrivals, cancellations,
        #: completions); callers snapshot it to detect rate changes.
        self.transitions = 0
        # Slot-aligned state vectors (grown in lockstep with the FlowSet pool).
        pool = self._flows.pool_size
        self._remaining = np.zeros(pool, dtype=np.float64)
        self._rate = np.zeros(pool, dtype=np.float64)
        self._size = np.zeros(pool, dtype=np.float64)
        self._by_slot: Dict[int, FluidTransfer] = {}
        self._slots_cache: Optional[np.ndarray] = None
        #: Earliest in-flight completion at the current rates and anchor
        #: (None when nothing moves); valid while ``_completion_known``.
        self._completion: Optional[float] = None
        self._completion_known = False

    # ------------------------------------------------------------------ #
    # anchored byte state
    # ------------------------------------------------------------------ #
    def _materialize(self, t: float) -> None:
        """Integrate ``_remaining`` from the anchor up to ``t``.

        Must only be called with ``t`` at or before the next in-flight
        completion; transitions in between are handled by :meth:`advance_to`.
        """
        if t <= self._anchor:
            return
        if self._dirty:
            # A mutation at the anchor left the rates stale; they must be
            # recomputed before integrating past it.
            self._reallocate()
        slots = self._active_slots()
        if slots.size:
            credited = self._remaining[slots] - self._rate[slots] * (t - self._anchor)
            np.maximum(credited, 0.0, out=credited)
            self._remaining[slots] = credited
        self._anchor = t
        self._completion_known = False

    # ------------------------------------------------------------------ #
    # transfer management
    # ------------------------------------------------------------------ #
    def start_transfer(
        self,
        src: str,
        dst: str,
        size: float,
        rate_cap: Optional[float] = None,
        on_complete: Optional[Callable[[FluidTransfer], None]] = None,
    ) -> FluidTransfer:
        """Begin moving ``size`` bytes from ``src`` to ``dst``."""
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        if not self.topology.is_host(src) or not self.topology.is_host(dst):
            raise ValueError(f"transfers must run between hosts ({src!r} -> {dst!r})")
        # The allocation changes now: settle the old rates' bytes first.
        self._materialize(self.now)
        route = self.routing.route_indices(src, dst)
        slot = self._flows.add(route, rate_cap, assume_unique=True)
        if slot >= self._remaining.size:
            grow = self._flows.pool_size - self._remaining.size
            self._remaining = np.concatenate([self._remaining, np.zeros(grow)])
            self._rate = np.concatenate([self._rate, np.zeros(grow)])
            self._size = np.concatenate([self._size, np.zeros(grow)])
        transfer = FluidTransfer(
            transfer_id=next(self._ids),
            src=src,
            dst=dst,
            size=float(size),
            links=self.routing.route_tuple(src, dst),
            rate_cap=rate_cap,
            start_time=self.now,
            on_complete=on_complete,
        )
        transfer._net = self
        transfer._slot = slot
        self._remaining[slot] = transfer.size
        self._size[slot] = transfer.size
        self._rate[slot] = 0.0
        self._active[transfer.transfer_id] = transfer
        self._by_slot[slot] = transfer
        self._slots_cache = None
        self._dirty = True
        self.transitions += 1
        return transfer

    def _detach(self, transfer: FluidTransfer) -> None:
        """Freeze a transfer's state and release its slot.

        The caller must have materialized the byte state at the detach time.
        """
        slot = transfer._slot
        transfer._final_transferred = transfer.size - max(float(self._remaining[slot]), 0.0)
        transfer._final_rate = float(self._rate[slot])
        transfer._slot = -1
        transfer._net = None
        self._flows.remove(slot)
        del self._by_slot[slot]
        self._slots_cache = None
        self._dirty = True
        self.transitions += 1

    def cancel_transfer(self, transfer: FluidTransfer) -> None:
        """Abort a transfer without firing its completion callback."""
        live = self._active.pop(transfer.transfer_id, None)
        if live is None:
            return
        self._materialize(self.now)
        self._detach(transfer)

    def repin_routes(self, routing: RoutingTable) -> int:
        """Re-pin every in-flight transfer onto ``routing``'s current routes.

        A routing swap (:meth:`~repro.workloads.engine.WorkloadEngine
        .set_routing`) normally only steers *new* transfers; this method is
        the control plane's data-path convergence step: each active transfer
        whose route changed under ``routing`` is moved to its new link list,
        keeping its remaining bytes and per-flow rate cap.  The move is a
        single *transition* — byte state is materialized first and
        :attr:`transitions` is bumped once — so fixed and event stepping
        observe the same piecewise-constant rate windows.  Transfers whose
        route is unchanged are untouched.  Returns the number re-pinned.

        Iteration order over the active set is insertion order, which is a
        pure function of the simulation history, so re-pinning is
        deterministic and replays bit-for-bit.
        """
        if routing.topology is not self.topology:
            raise ValueError("re-pin routing table is over a different topology")
        moved = 0
        self._materialize(self.now)
        for transfer in self._active.values():
            new_links = routing.route_tuple(transfer.src, transfer.dst)
            if new_links == transfer.links:
                continue
            slot = transfer._slot
            remaining = float(self._remaining[slot])
            self._flows.remove(slot)
            del self._by_slot[slot]
            new_slot = self._flows.add(
                routing.route_indices(transfer.src, transfer.dst),
                transfer.rate_cap,
                assume_unique=True,
            )
            if new_slot >= self._remaining.size:
                grow = self._flows.pool_size - self._remaining.size
                self._remaining = np.concatenate([self._remaining, np.zeros(grow)])
                self._rate = np.concatenate([self._rate, np.zeros(grow)])
                self._size = np.concatenate([self._size, np.zeros(grow)])
            transfer._slot = new_slot
            transfer.links = new_links
            self._remaining[new_slot] = remaining
            self._size[new_slot] = transfer.size
            self._rate[new_slot] = 0.0
            self._by_slot[new_slot] = transfer
            moved += 1
        if moved:
            self._slots_cache = None
            self._dirty = True
            self.transitions += 1
        return moved

    def set_link_capacity(self, link: str, capacity: float) -> None:
        """Change one link's capacity, settling the byte state first.

        The change is a *transition*: bytes accumulated under the old rates
        are materialized at the current clock, the allocation is marked
        stale, and :attr:`transitions` is bumped so observers (the workload
        engine's interference wakeups, the swarm's jump predicates) know the
        piecewise-constant rate window ended here.  The capacity-drift
        actors of :mod:`repro.workloads` are the primary caller.
        """
        index = self.routing.link_index.get(link)
        if index is None:
            raise KeyError(f"unknown link {link!r}")
        if capacity == self._flows.link_capacity(index):
            return
        self._materialize(self.now)
        self._flows.set_link_capacity(index, capacity)
        self._dirty = True
        self.transitions += 1

    def link_capacity(self, link: str) -> float:
        """Current capacity of a link by name (bytes/second)."""
        index = self.routing.link_index.get(link)
        if index is None:
            raise KeyError(f"unknown link {link!r}")
        return self._flows.link_capacity(index)

    # ------------------------------------------------------------------ #
    # rate allocation
    # ------------------------------------------------------------------ #
    def _active_slots(self) -> np.ndarray:
        if self._slots_cache is None:
            self._slots_cache = np.fromiter(
                self._by_slot.keys(), dtype=np.int64, count=len(self._by_slot)
            )
        return self._slots_cache

    def _reallocate(self) -> None:
        rates = self._flows.solve()
        slots = self._active_slots()
        allocated = rates[slots]
        # Loopback / uncapped transfers: complete at local-memory speed.
        np.copyto(allocated, LOOPBACK_RATE, where=~np.isfinite(allocated))
        self._rate[slots] = allocated
        self._dirty = False
        self._completion_known = False

    def transferred_at(self, slots: np.ndarray, t: float) -> np.ndarray:
        """Bulk analytic read of transferred bytes at absolute time ``t``.

        Valid for ``t`` between the last materialized transition and the next
        one (the window in which rates are constant); the swarm's control
        loop only reads at such times.
        """
        remaining = self._remaining[slots]
        elapsed = t - self._anchor
        if elapsed > 0.0:
            remaining = remaining - self._rate[slots] * elapsed
            np.maximum(remaining, 0.0, out=remaining)
        return self._size[slots] - remaining

    # ------------------------------------------------------------------ #
    # time stepping
    # ------------------------------------------------------------------ #
    def next_transition(self) -> Optional[float]:
        """Earliest in-flight completion time under the current allocation.

        Returns ``None`` when nothing is moving.  Between now and the
        returned time the allocation is constant, so callers may safely
        extrapolate byte counts with :meth:`transferred_at`.
        """
        return self._next_completion() if self._active else None

    def _next_completion(self) -> Optional[float]:
        """:meth:`next_transition`'s answer, computed once per allocation
        and anchor (the engine asks before every dispatch, and
        :meth:`advance_to` asks again)."""
        if self._dirty:
            self._reallocate()
        if not self._completion_known:
            slots = self._active_slots()
            rates = self._rate[slots]
            moving = rates > 1e-12
            self._completion = (
                self._anchor + float((self._remaining[slots][moving] / rates[moving]).min())
                if moving.any() else None
            )
            self._completion_known = True
        return self._completion

    def advance_to(self, target: float) -> List[FluidTransfer]:
        """Advance the fluid state to absolute time ``target``.

        In-flight completions up to ``target`` are processed at their exact
        (interpolated) times, redistributing the freed bandwidth for the rest
        of the interval.  Returns the transfers completed during the call, in
        completion order.
        """
        if target < self.now - 1e-12:
            raise ValueError(
                f"cannot advance backwards (now={self.now}, target={target})"
            )
        finished: List[FluidTransfer] = []
        guard = 0
        while self._active:
            guard += 1
            if guard > 10 * (len(self._active) + len(finished)) + 1000:
                raise RuntimeError("fluid advance failed to converge")
            completion = self._next_completion()
            if completion is None or completion > target:
                break
            self._materialize(completion)
            slots = self._active_slots()
            rates = self._rate[slots]
            credited = self._remaining[slots]
            # A residual that would drain within one representable clock tick
            # is done *now*: the clock cannot advance by less than an ulp, so
            # leaving it active would spin this loop at a frozen time.  (Such
            # residuals arise when another tenant's completion materializes
            # the byte state a hair before this flow's own finish.)
            tick = np.spacing(max(abs(completion), 1.0))
            done = np.flatnonzero(credited <= np.maximum(1e-9, rates * tick))
            for position in done:
                transfer = self._by_slot[int(slots[position])]
                transfer.finish_time = completion
                self._remaining[transfer._slot] = 0.0
                self._detach(transfer)
                del self._active[transfer.transfer_id]
                finished.append(transfer)
        self.now = max(self.now, target)
        for transfer in finished:
            if transfer.on_complete is not None:
                transfer.on_complete(transfer)
        return finished

    # ------------------------------------------------------------------ #
    # event-driven mode
    # ------------------------------------------------------------------ #
    def run_until_complete(self, max_time: float = float("inf")) -> float:
        """Run all active transfers to completion (or ``max_time``).

        Returns the simulated time at which the last transfer finished.
        """
        guard = 0
        while self._active and self.now < max_time - 1e-12:
            guard += 1
            if guard > 1_000_000:
                raise RuntimeError("run_until_complete exceeded event budget")
            transition = self.next_transition()
            if transition is None:
                raise RuntimeError(
                    "active transfers have zero allocated rate; topology is "
                    "disconnected or capacities are malformed"
                )
            self.advance_to(min(transition, max_time))
        return self.now
