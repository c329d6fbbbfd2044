"""Physical network topology: hosts, switches and capacity-annotated links.

Units
-----
* capacities are expressed in **bytes per second** (so a "1 GbE" link is
  ``1e9 / 8 = 125e6`` B/s);
* latencies in seconds;
* all helper constants below convert from the conventional Mb/s / Gb/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

MBPS = 1e6 / 8.0
"""Megabit per second, expressed in bytes/second."""

GBPS = 1e9 / 8.0
"""Gigabit per second, expressed in bytes/second."""


class TopologyError(ValueError):
    """Raised on malformed topology construction or lookups."""


@dataclass(frozen=True)
class Host:
    """An end host (compute node) that can source and sink traffic.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"bordeaux.bordeplage-3"``.
    site:
        Grid site this host belongs to (``"bordeaux"``, ``"toulouse"``, ...).
    cluster:
        Physical compute-cluster within the site (``"bordeplage"``, ...).
    """

    name: str
    site: str = ""
    cluster: str = ""


@dataclass(frozen=True)
class Switch:
    """A forwarding element; never sources or sinks application traffic."""

    name: str
    site: str = ""


@dataclass
class Link:
    """An undirected full-duplex link between two topology elements.

    The fluid model treats the link as a single shared resource of
    ``capacity`` bytes/second in each direction, which matches the paper's
    description of 1 GbE bottleneck links saturating under all-to-all load.
    """

    a: str
    b: str
    capacity: float
    latency: float = 1e-4
    name: str = ""

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise TopologyError(f"link {self.a}--{self.b} must have positive capacity")
        if self.latency < 0:
            raise TopologyError(f"link {self.a}--{self.b} must have non-negative latency")
        if not self.name:
            self.name = f"{self.a}--{self.b}"

    def other(self, element: str) -> str:
        if element == self.a:
            return self.b
        if element == self.b:
            return self.a
        raise TopologyError(f"{element!r} is not an endpoint of link {self.name}")


class Topology:
    """A network of hosts, switches and links.

    The class validates element uniqueness and exposes the adjacency needed by
    :class:`repro.network.routing.RoutingTable`.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._hosts: Dict[str, Host] = {}
        self._switches: Dict[str, Switch] = {}
        self._links: Dict[str, Link] = {}
        self._adjacency: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_host(self, host: Host) -> Host:
        self._check_new_name(host.name)
        self._hosts[host.name] = host
        self._adjacency.setdefault(host.name, [])
        return host

    def add_switch(self, switch: Switch) -> Switch:
        self._check_new_name(switch.name)
        self._switches[switch.name] = switch
        self._adjacency.setdefault(switch.name, [])
        return switch

    def add_link(self, a: str, b: str, capacity: float, latency: float = 1e-4,
                 name: str = "") -> Link:
        """Connect two existing elements with a link of ``capacity`` B/s."""
        for end in (a, b):
            if end not in self._adjacency:
                raise TopologyError(f"cannot link unknown element {end!r}")
        if a == b:
            raise TopologyError("self-links are not allowed")
        link = Link(a=a, b=b, capacity=capacity, latency=latency, name=name)
        if link.name in self._links:
            raise TopologyError(f"duplicate link name {link.name!r}")
        self._links[link.name] = link
        self._adjacency[a].append(link.name)
        self._adjacency[b].append(link.name)
        return link

    def _check_new_name(self, name: str) -> None:
        if name in self._hosts or name in self._switches:
            raise TopologyError(f"duplicate element name {name!r}")
        if not name:
            raise TopologyError("element names must be non-empty")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    @property
    def host_names(self) -> List[str]:
        return list(self._hosts.keys())

    @property
    def switches(self) -> List[Switch]:
        return list(self._switches.values())

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError as exc:
            raise TopologyError(f"unknown host {name!r}") from exc

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError as exc:
            raise TopologyError(f"unknown link {name!r}") from exc

    def has_element(self, name: str) -> bool:
        return name in self._adjacency

    def is_host(self, name: str) -> bool:
        return name in self._hosts

    def incident_links(self, element: str) -> List[Link]:
        if element not in self._adjacency:
            raise TopologyError(f"unknown element {element!r}")
        return [self._links[link_name] for link_name in self._adjacency[element]]

    def neighbors(self, element: str) -> List[Tuple[str, Link]]:
        """Return ``(neighbour, link)`` pairs for every link incident to ``element``."""
        return [(link.other(element), link) for link in self.incident_links(element)]

    def hosts_in_cluster(self, site: str, cluster: str) -> List[Host]:
        return [h for h in self._hosts.values() if h.site == site and h.cluster == cluster]

    def sites(self) -> List[str]:
        return sorted({h.site for h in self._hosts.values() if h.site})

    def validate_connected(self) -> None:
        """Raise :class:`TopologyError` unless every host can reach every other."""
        if not self._hosts:
            return
        start = next(iter(self._hosts))
        seen = {start}
        stack = [start]
        while stack:
            element = stack.pop()
            for nbr, _ in self.neighbors(element):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        unreachable = set(self._hosts) - seen
        if unreachable:
            raise TopologyError(
                f"topology {self.name!r} is disconnected; unreachable hosts: "
                f"{sorted(unreachable)[:5]}..."
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, hosts={len(self._hosts)}, "
            f"switches={len(self._switches)}, links={len(self._links)})"
        )
