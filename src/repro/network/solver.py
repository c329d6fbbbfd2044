"""Vectorized max-min fair allocation over an indexed link set.

This is the batch counterpart of the scalar progressive-filling allocator in
:mod:`repro.network.flows`.  Links are identified by dense integer indices
(see :meth:`repro.network.routing.RoutingTable.link_index`) and the set of
concurrent flows is held in a :class:`FlowSet`: a link×flow incidence
structure stored as flat CSR-style index arrays that is maintained
*incrementally* as flows come and go, so a reallocation never rebuilds the
incidence from Python dicts.

Each progressive-filling round is a handful of NumPy array operations —
``bincount`` for the per-link crossing-flow counts, vector minima for the
common increment, boolean masks for freezing — so the cost per round is
O(entries) in C rather than O(flows × links) in Python.  The arithmetic
mirrors the scalar reference exactly (same increments, same freeze
tolerances), which is what the equivalence property tests in
``tests/test_solver.py`` assert.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Saturation tolerance on residual link capacity (matches the scalar solver).
SATURATION_EPS = 1e-9

#: Tolerance used when deciding that a flow reached its rate cap.
CAP_EPS = 1e-12

class FlowSet:
    """A dynamic set of flows over a fixed, integer-indexed link universe.

    Parameters
    ----------
    link_capacities:
        Capacity (bytes/second) of link ``i`` at index ``i``.  All capacities
        must be positive.

    Notes
    -----
    Slots are recycled: :meth:`add` returns a small integer slot id that
    stays valid until :meth:`remove`.  The link×flow incidence is kept as two
    flat arrays ``(entry_link, entry_flow)``; adding a flow appends its route
    entries, removing one masks its entries out.  Both are single C-level
    array operations, so the structure survives thousands of open/close
    cycles without ever being rebuilt from scratch.
    """

    def __init__(self, link_capacities: Sequence[float]) -> None:
        caps = np.asarray(link_capacities, dtype=np.float64)
        if caps.ndim != 1:
            raise ValueError("link_capacities must be one-dimensional")
        if caps.size and not (caps > 0).all():
            bad = int(np.flatnonzero(caps <= 0)[0])
            raise ValueError(f"link {bad} has non-positive capacity {caps[bad]}")
        self._caps = caps
        self.num_links = int(caps.size)
        # Pool-sized (per-slot) state; grown geometrically.
        pool = 8
        self._active = np.zeros(pool, dtype=bool)
        self._has_links = np.zeros(pool, dtype=bool)
        self._rate_caps = np.full(pool, np.inf, dtype=np.float64)
        self._free: List[int] = list(range(pool - 1, -1, -1))
        # Flat incidence (only entries of active flows are present) stored in
        # oversized buffers; the valid prefix is ``[:_entry_count]``.
        self._entry_link = np.empty(64, dtype=np.int32)
        self._entry_flow = np.empty(64, dtype=np.int32)
        self._entry_count = 0
        self.num_flows = 0

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #
    @property
    def pool_size(self) -> int:
        """Current slot-array length (valid slot ids are ``< pool_size``)."""
        return int(self._active.size)

    def _grow(self) -> None:
        old = self._active.size
        new = old * 2
        self._active = np.concatenate([self._active, np.zeros(old, dtype=bool)])
        self._has_links = np.concatenate([self._has_links, np.zeros(old, dtype=bool)])
        self._rate_caps = np.concatenate([self._rate_caps, np.full(old, np.inf)])
        self._free.extend(range(new - 1, old - 1, -1))

    def add(
        self,
        link_indices: Sequence[int],
        rate_cap: Optional[float] = None,
        assume_unique: bool = False,
    ) -> int:
        """Register a flow crossing ``link_indices`` and return its slot id.

        Duplicate links in the route count once, as in the scalar allocator;
        callers whose routes are simple paths (e.g. the fluid engine's
        shortest-path routes) pass ``assume_unique=True`` to skip the dedup.
        """
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        route = np.asarray(link_indices, dtype=np.int32)
        if route.size:
            if not assume_unique:
                route = np.unique(route)
            if int(route.min()) < 0 or int(route.max()) >= self.num_links:
                raise IndexError("link index out of range")
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._active[slot] = True
        self._has_links[slot] = route.size > 0
        self._rate_caps[slot] = np.inf if rate_cap is None else float(rate_cap)
        if route.size:
            end = self._entry_count + route.size
            if end > self._entry_link.size:
                capacity = max(self._entry_link.size * 2, end)
                grown_link = np.empty(capacity, dtype=np.int32)
                grown_flow = np.empty(capacity, dtype=np.int32)
                grown_link[: self._entry_count] = self._entry_link[: self._entry_count]
                grown_flow[: self._entry_count] = self._entry_flow[: self._entry_count]
                self._entry_link = grown_link
                self._entry_flow = grown_flow
            self._entry_link[self._entry_count : end] = route
            self._entry_flow[self._entry_count : end] = slot
            self._entry_count = end
        self.num_flows += 1
        return slot

    def remove(self, slot: int) -> None:
        """Drop the flow in ``slot``; its entries are masked out of the incidence."""
        if not (0 <= slot < self._active.size) or not self._active[slot]:
            raise KeyError(f"slot {slot} is not an active flow")
        self._active[slot] = False
        self._rate_caps[slot] = np.inf
        if self._has_links[slot]:
            count = self._entry_count
            keep = self._entry_flow[:count] != slot
            kept = int(keep.sum())
            if kept != count:
                self._entry_link[:kept] = self._entry_link[:count][keep]
                self._entry_flow[:kept] = self._entry_flow[:count][keep]
                self._entry_count = kept
            self._has_links[slot] = False
        self._free.append(slot)
        self.num_flows -= 1

    # ------------------------------------------------------------------ #
    # capacity changes
    # ------------------------------------------------------------------ #
    def link_capacity(self, link: int) -> float:
        """Current capacity of link ``link`` (bytes/second)."""
        if not 0 <= link < self.num_links:
            raise IndexError(f"link index {link} out of range")
        return float(self._caps[link])

    def set_link_capacity(self, link: int, capacity: float) -> None:
        """Change one link's capacity; takes effect at the next :meth:`solve`.

        Capacity drift is a first-class transition of the multi-tenant
        workload model: callers (``FluidNetwork.set_link_capacity``) must
        settle any anchored byte state *before* mutating, exactly as for a
        flow arrival.
        """
        if not 0 <= link < self.num_links:
            raise IndexError(f"link index {link} out of range")
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self._caps[link] = float(capacity)

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(self) -> np.ndarray:
        """Max-min fair rates, indexed by slot id.

        Inactive slots read 0.  Flows with no links and no rate cap read
        ``inf`` (loopback transfers are only bounded by the caller).

        The progressive filling works on arrays compacted to the active
        linked flows, and exploits the filling invariant that every unfrozen
        flow carries the same allocation: the common *fill level* is a
        scalar accumulating exactly the increments the scalar reference adds
        per flow, so the two implementations produce identical rates.
        """
        pool = self._active.size
        rates = np.zeros(pool, dtype=np.float64)
        # Link-free flows are bounded only by their cap.
        loop = self._active & ~self._has_links
        if loop.any():
            rates[loop] = self._rate_caps[loop]
        linked = self._active & self._has_links
        if not linked.any():
            return rates

        slots = np.flatnonzero(linked)
        flow_count = slots.size
        caps = self._rate_caps[slots]
        finite_cap = np.isfinite(caps)
        any_finite_cap = bool(finite_cap.any())
        entry_link = self._entry_link[: self._entry_count]
        # Entries reference pool slots; renumber them to the compact ids.
        entry_flow = np.searchsorted(slots, self._entry_flow[: self._entry_count])

        out = np.zeros(flow_count, dtype=np.float64)
        unfrozen = np.ones(flow_count, dtype=bool)
        remaining = self._caps.copy()
        fill = 0.0

        # Every unfrozen flow crosses at least one link, so some link always
        # has a positive crossing count and the common increment is finite.
        # Each round freezes at least one flow (defensively: all of them),
        # so the loop terminates after at most flow_count rounds.
        for _ in range(flow_count + self.num_links + 2):
            entry_live = unfrozen[entry_flow]
            counts = np.bincount(entry_link[entry_live], minlength=self.num_links)
            crossed = counts > 0
            increment = float((remaining[crossed] / counts[crossed]).min())
            frozen = np.zeros(flow_count, dtype=bool)
            if any_finite_cap:
                cap_flows = unfrozen & finite_cap
                if cap_flows.any():
                    residual = caps[cap_flows] - fill
                    res_min = float(residual.min())
                    if res_min < increment:
                        increment = res_min
                    frozen[np.flatnonzero(cap_flows)[residual <= increment + CAP_EPS]] = True
            if increment < 0.0:
                increment = 0.0

            fill += increment
            remaining -= increment * counts
            np.maximum(remaining, 0.0, out=remaining)

            saturated = crossed & (remaining <= SATURATION_EPS)
            if saturated.any():
                frozen[entry_flow[entry_live & saturated[entry_link]]] = True
            frozen &= unfrozen
            if not frozen.any():
                # Numerical corner: freeze everything to guarantee termination.
                frozen = unfrozen.copy()
            out[frozen] = fill
            unfrozen &= ~frozen
            if not unfrozen.any():
                break
        rates[slots] = out
        return rates

    def __len__(self) -> int:
        return self.num_flows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowSet(links={self.num_links}, flows={self.num_flows}, "
            f"entries={self._entry_count})"
        )


def solve_indexed(
    routes: Sequence[Sequence[int]],
    link_capacities: Sequence[float],
    rate_caps: Optional[Sequence[Optional[float]]] = None,
) -> np.ndarray:
    """One-shot vectorized allocation for pre-indexed routes.

    Convenience wrapper used by the functional dispatch path and the
    benchmarks: builds a transient :class:`FlowSet`, adds every route, and
    returns the rate vector aligned with ``routes``.
    """
    flow_set = FlowSet(link_capacities)
    slots = np.empty(len(routes), dtype=np.int64)
    for i, route in enumerate(routes):
        cap = None if rate_caps is None else rate_caps[i]
        slots[i] = flow_set.add(route, cap)
    rates = flow_set.solve()
    return rates[slots]
