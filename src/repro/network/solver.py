"""Max-min fair bandwidth allocation over an indexed link set.

This is the bandwidth-sharing model of flow-level simulators such as SimGrid
(which the baseline tomography papers themselves use): each flow crosses a
fixed set of links, and link capacity is divided among the flows crossing it
by *progressive filling*: all unfrozen flows grow their rate together until
some link saturates, the flows crossing that link are frozen at the fair
share, and the process repeats.  The allocation is what makes the BitTorrent
fragment metric informative: many flows squeezed through a 1 GbE bottleneck
each get a small rate, so few fragments cross it, while intra-cluster flows
keep a large rate.

Links are identified by dense integer indices (see
:meth:`repro.network.routing.RoutingTable.link_index`) and the set of
concurrent flows is held in a :class:`FlowSet` whose state changes only where
a flow changes: each slot keeps its route (a tuple of link indices) and its
rate cap, and each link keeps its count of crossing flows and the set of
slots crossing it.  Adding or removing a flow touches only its route's links.

A solve runs progressive filling over the links that unfrozen flows cross;
links nobody crosses are never read.  Each round takes the common increment
from the crossed links' ``remaining / count`` (NumPy vectors) and from the
smallest unfrozen rate cap (the finite caps are kept sorted as flows come
and go), and freezes flows by set operations on the saturated links'
members.  A link is saturated when its residue is at most
:data:`SATURATION_EPS` of its capacity: the tolerance is relative, since
rounding leaves residues of the order of an ulp of the capacity (2.4e-7 B/s
on a 1.25 GB/s link).

:meth:`FlowSet.certify` is the oracle: it checks an allocation against the
definition of max-min fairness (feasible, and every flow at its cap or
crossing a saturated link on which no flow gets more), which admits exactly
one allocation.  The tests certify every solve of random operation
sequences, of the seeded scale instances and of whole campaigns.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from itertools import chain
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

#: Relative tolerance of saturation: a link whose residue is at most this
#: fraction of its capacity is saturated.  :meth:`FlowSet.certify` compares
#: loads, caps and rates at the same tolerance.
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
    stays valid until :meth:`remove`.  Freed slots are reused last in, first
    out, and the pool doubles when none is free, so callers can keep vectors
    aligned with the slot ids.  Adding or removing a flow updates its slot,
    the crossing count and member set of each link on its route, and the
    sorted cap order; no per-link or per-flow vector is rebuilt.
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
        # Per-slot state: the route (None while the slot is free) and the cap.
        pool = 8
        self._routes: List[Optional[Tuple[int, ...]]] = [None] * pool
        self._rate_caps: List[float] = [math.inf] * pool
        self._free: List[int] = list(range(pool - 1, -1, -1))
        # Per-link state: how many active flows cross it, and which.
        self._counts = np.zeros(self.num_links, dtype=np.int64)
        self._members: List[Set[int]] = [set() for _ in range(self.num_links)]
        # Active slots with links, ``(cap, slot)`` of those with a finite
        # cap in ascending order, and the linkless (loopback) slots.
        self._linked: Set[int] = set()
        self._cap_order: List[Tuple[float, int]] = []
        self._loopback: Set[int] = set()

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #
    @property
    def pool_size(self) -> int:
        """Current slot-array length (valid slot ids are ``< pool_size``)."""
        return len(self._routes)

    def _grow(self) -> None:
        old = len(self._routes)
        self._routes.extend([None] * old)
        self._rate_caps.extend([math.inf] * old)
        self._free.extend(range(2 * old - 1, old - 1, -1))

    def add(
        self,
        link_indices: Sequence[int],
        rate_cap: Optional[float] = None,
        assume_unique: bool = False,
    ) -> int:
        """Register a flow crossing ``link_indices`` and return its slot id.

        Duplicate links in the route count once; callers whose routes are
        simple paths (e.g. the fluid engine's shortest-path routes) pass
        ``assume_unique=True`` to skip the dedup.
        A tuple route is kept as given, so an interned route costs no copy.
        """
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        if type(link_indices) is tuple:
            route = link_indices
        else:
            route = tuple(map(int, link_indices))
        if not assume_unique:
            route = tuple(dict.fromkeys(route))
        if route and (min(route) < 0 or max(route) >= self.num_links):
            raise IndexError("link index out of range")
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._routes[slot] = route
        cap = math.inf if rate_cap is None else float(rate_cap)
        self._rate_caps[slot] = cap
        if route:
            counts = self._counts
            members = self._members
            for link in route:
                counts[link] += 1
                members[link].add(slot)
            self._linked.add(slot)
            if math.isfinite(cap):
                insort(self._cap_order, (cap, slot))
        else:
            self._loopback.add(slot)
        return slot

    def remove(self, slot: int) -> None:
        """Drop the flow in ``slot``; only its route's links are touched."""
        if not 0 <= slot < len(self._routes) or self._routes[slot] is None:
            raise KeyError(f"slot {slot} is not an active flow")
        route = self._routes[slot]
        self._routes[slot] = None
        if route:
            counts = self._counts
            members = self._members
            for link in route:
                counts[link] -= 1
                members[link].remove(slot)
            self._linked.remove(slot)
            cap = self._rate_caps[slot]
            if math.isfinite(cap):
                order = self._cap_order
                del order[bisect_left(order, (cap, slot))]
        else:
            self._loopback.remove(slot)
        self._free.append(slot)

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

        Inactive slots read 0.  Flows with no links read their rate cap, or
        ``inf`` without one (loopback transfers are only bounded by the
        caller).

        The progressive filling exploits the invariant that every unfrozen
        flow carries the same allocation: the common *fill level* is a
        scalar accumulating the increments.  Each round saturates a link or
        brings a flow to its cap; should rounding ever leave a round that
        freezes nothing, every unfrozen flow freezes, so the loop ends.  That
        guard is for termination only: in 3,000 random operation sequences
        with capacities and caps of 1e6–1e10 B/s no round froze nothing.
        """
        rates = np.zeros(len(self._routes))
        if self._loopback:
            loopback = list(self._loopback)
            rates[loopback] = [self._rate_caps[slot] for slot in loopback]
        linked = self._linked
        if not linked:
            return rates
        routes = self._routes
        members = self._members
        crossed = self._counts.nonzero()[0]
        count = self._counts[crossed]
        remaining = self._caps[crossed]
        saturated_at = SATURATION_EPS * remaining
        unfrozen = set(linked)

        cap_order = self._cap_order
        head = 0  # cap_order before ``head`` is frozen
        fill = 0.0
        frozen_slots: List[int] = []
        frozen_rates: List[float] = []

        # Every unfrozen flow crosses at least one link, so ``count`` is
        # positive everywhere and the common increment is finite.  Each
        # round freezes at least one flow, so the loop ends within
        # len(linked) rounds.
        for _ in range(len(linked) + self.num_links + 2):
            increment = float(np.minimum.reduce(remaining / count))
            frozen: Set[int] = set()
            while head < len(cap_order) and cap_order[head][1] not in unfrozen:
                head += 1
            if head < len(cap_order):
                # fl(cap - fill) is monotone in cap: the first unfrozen cap
                # has the smallest residual, and the flows that reach their
                # cap are a prefix of the unfrozen ones.
                residual = cap_order[head][0] - fill
                if residual < increment:
                    increment = residual
                limit = increment + CAP_EPS
                for position in range(head, len(cap_order)):
                    cap, slot = cap_order[position]
                    if slot in unfrozen:
                        if cap - fill > limit:
                            break
                        frozen.add(slot)
            if increment < 0.0:
                increment = 0.0

            fill += increment
            remaining -= increment * count
            np.maximum(remaining, 0.0, out=remaining)
            for link in crossed[remaining <= saturated_at].tolist():
                frozen |= members[link] & unfrozen
            if not frozen:
                # Termination guard (see the docstring).
                frozen = set(unfrozen)
            frozen_slots.extend(frozen)
            frozen_rates.extend([fill] * len(frozen))
            unfrozen -= frozen
            if not unfrozen:
                break
            # The frozen flows leave their links' counts; a link they all
            # left leaves the crossed set.
            links = chain.from_iterable(map(routes.__getitem__, frozen))
            lost = np.bincount(np.fromiter(links, np.intp), minlength=self.num_links)
            count -= lost[crossed]
            kept = count.nonzero()[0]
            if kept.size < count.size:
                crossed = crossed[kept]
                count = count[kept]
                remaining = remaining[kept]
                saturated_at = saturated_at[kept]
        rates[frozen_slots] = frozen_rates
        return rates

    def certify(self, rates: np.ndarray) -> None:
        """Check that ``rates`` is this flow set's max-min fair allocation.

        An allocation is max-min fair exactly when it is feasible (no link
        above its capacity, no flow above its cap) and every linked flow is
        at its cap or crosses a saturated link on which no flow gets more
        (Bertsekas and Gallager, *Data Networks*, ch. 6); that allocation is
        unique.  Loads, caps and rates are compared relative to
        :data:`SATURATION_EPS`.  Linkless flows must read their cap (``inf``
        without one) and free slots 0, as :meth:`solve` returns them.

        Raises ``ValueError`` naming the first slot or link that fails, with
        the two numbers compared.
        """
        for slot, route in enumerate(self._routes):
            expected = 0.0 if route is None else self._rate_caps[slot]
            if not route and rates[slot] != expected:
                raise ValueError(f"slot {slot} reads {rates[slot]}, not {expected}")
        slots = sorted(self._linked)
        if not slots:
            return
        # One entry per (flow, link) crossing: link loads and top rates.
        owner, links = np.array(
            [(i, link) for i, slot in enumerate(slots) for link in self._routes[slot]]
        ).T
        linked = rates[slots]
        entry_rates = linked[owner]
        load = np.bincount(links, weights=entry_rates, minlength=self.num_links)
        top = np.zeros(self.num_links)
        np.maximum.at(top, links, entry_rates)
        caps = self._caps
        over = np.flatnonzero(load > caps * (1 + SATURATION_EPS))
        if over.size:
            link = over[0]
            raise ValueError(f"link {link} load {load[link]} > capacity {caps[link]}")
        rate_caps = np.array([self._rate_caps[slot] for slot in slots])
        above = np.flatnonzero(linked > rate_caps * (1 + SATURATION_EPS))
        if above.size:
            i = above[0]
            raise ValueError(f"slot {slots[i]} gets {linked[i]} > cap {rate_caps[i]}")
        saturated = load >= caps * (1 - SATURATION_EPS)
        tops = saturated[links] & (entry_rates >= top[links] * (1 - SATURATION_EPS))
        bottlenecked = np.bincount(owner[tops], minlength=len(slots)) > 0
        at_cap = linked >= rate_caps * (1 - SATURATION_EPS)
        unfair = np.flatnonzero(~(at_cap | bottlenecked))
        if unfair.size:
            i = unfair[0]
            raise ValueError(
                f"slot {slots[i]} gets {linked[i]} < cap {rate_caps[i]} and "
                "crosses no saturated link on which no flow gets more"
            )

    def __len__(self) -> int:
        return len(self._linked) + len(self._loopback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowSet(links={self.num_links}, flows={len(self)})"
