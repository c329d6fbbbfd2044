"""Shortest-path routing over a :class:`~repro.network.topology.Topology`.

Grid'5000-style networks are trees or near-trees of switches, so plain
latency-weighted shortest paths (Dijkstra) reproduce the real forwarding
behaviour.  Routes are computed once per source and cached; the fluid engine
then only needs the per-flow list of link names.
"""

from __future__ import annotations

import heapq
import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.network.topology import Link, Topology, TopologyError
from repro.observability.metrics import METRICS


class RoutingTable:
    """All-pairs host routes, computed lazily per source element.

    Besides the name-based routes, the table maintains a dense integer index
    over the topology's links (:attr:`link_index`) and interns each route as
    a tuple of link indices (:meth:`route_indices`).  The fluid engine hands
    these interned tuples to its flow set as they are, so opening a transfer
    neither copies a route nor touches link-name strings.

    A table may be built with ``avoid`` — a set of link names excluded from
    path computation — to model routing around failed or flapping links.
    Pairs left unreachable by the exclusion fall back to the ``fallback``
    table's route (real control planes keep forwarding over a flapping link
    when it is the only path), or raise if no fallback is given.
    """

    def __init__(
        self,
        topology: Topology,
        avoid: Optional[frozenset] = None,
        fallback: Optional["RoutingTable"] = None,
    ) -> None:
        self.topology = topology
        self.avoid = frozenset(avoid) if avoid else frozenset()
        self.fallback = fallback
        known = {link.name for link in topology.links}
        unknown = [n for n in self.avoid if n not in known]
        if unknown:
            raise TopologyError(f"cannot avoid unknown links {sorted(unknown)}")
        self._paths: Dict[str, Dict[str, List[str]]] = {}
        links = topology.links
        #: ``link name -> dense index`` in topology declaration order.
        self.link_index: Dict[str, int] = {
            link.name: i for i, link in enumerate(links)
        }
        self._capacity_vector = np.array(
            [link.capacity for link in links], dtype=np.float64
        )
        self._index_routes: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self._name_routes: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._warned_fallback = False

    def capacity_vector(self) -> np.ndarray:
        """Per-link capacities aligned with :attr:`link_index` (a copy)."""
        return self._capacity_vector.copy()

    def route_indices(self, src: str, dst: str) -> Tuple[int, ...]:
        """The route as an interned tuple of dense link indices.

        Repeated calls for the same pair return the same tuple, so route
        storage across thousands of transfers costs one tuple per pair.
        """
        key = (src, dst)
        cached = self._index_routes.get(key)
        if cached is None:
            index = self.link_index
            cached = tuple(index[name] for name in self.route(src, dst))
            self._index_routes[key] = cached
        return cached

    def route_tuple(self, src: str, dst: str) -> Tuple[str, ...]:
        """The route as an interned tuple of link names (no per-call copy)."""
        key = (src, dst)
        cached = self._name_routes.get(key)
        if cached is None:
            cached = self._name_routes[key] = tuple(self.route(src, dst))
        return cached

    def _dijkstra(self, source: str) -> Dict[str, List[str]]:
        """Return, for every reachable element, the list of link names from ``source``."""
        if not self.topology.has_element(source):
            raise TopologyError(f"unknown routing source {source!r}")
        dist: Dict[str, float] = {source: 0.0}
        prev: Dict[str, Tuple[str, Link]] = {}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        visited = set()
        while heap:
            d, element = heapq.heappop(heap)
            if element in visited:
                continue
            visited.add(element)
            for nbr, link in self.topology.neighbors(element):
                # Hosts never forward transit traffic: a path may only pass
                # through a host if that host is the source itself.
                if self.topology.is_host(element) and element != source:
                    continue
                if link.name in self.avoid:
                    continue
                cost = d + max(link.latency, 1e-9)
                if nbr not in dist or cost < dist[nbr] - 1e-15:
                    dist[nbr] = cost
                    prev[nbr] = (element, link)
                    heapq.heappush(heap, (cost, nbr))
        routes: Dict[str, List[str]] = {}
        for target in dist:
            if target == source:
                routes[target] = []
                continue
            path: List[str] = []
            element = target
            while element != source:
                parent, link = prev[element]
                path.append(link.name)
                element = parent
            path.reverse()
            routes[target] = path
        return routes

    def route(self, src: str, dst: str) -> List[str]:
        """Return the list of link names traversed from ``src`` to ``dst``."""
        if src == dst:
            return []
        if src not in self._paths:
            self._paths[src] = self._dijkstra(src)
        try:
            return list(self._paths[src][dst])
        except KeyError as exc:
            if self.fallback is not None:
                # The avoided link is the only path for this pair: real
                # control planes keep forwarding over it.  Silent once,
                # counted always — a study that believes it routed *around*
                # a failure can audit how often it actually could not.
                METRICS.count("routing.fallback_hits")
                if not self._warned_fallback:
                    self._warned_fallback = True
                    warnings.warn(
                        f"routing table avoiding {sorted(self.avoid)} has no "
                        f"path {src!r} -> {dst!r}; serving the fallback route "
                        "(the avoided link is the only path for at least one "
                        "pair)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                return self.fallback.route(src, dst)
            raise TopologyError(f"no route from {src!r} to {dst!r}") from exc

    def route_links(self, src: str, dst: str) -> List[Link]:
        return [self.topology.link(name) for name in self.route(src, dst)]

    def path_latency(self, src: str, dst: str) -> float:
        return sum(link.latency for link in self.route_links(src, dst))

    def bottleneck_capacity(self, src: str, dst: str) -> float:
        """Minimum link capacity on the route (the isolated achievable bandwidth)."""
        links = self.route_links(src, dst)
        if not links:
            return float("inf")
        return min(link.capacity for link in links)
