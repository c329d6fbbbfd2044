"""Classical saturation-tomography baselines (Fig. 2 of the paper).

The paper contrasts its broadcast metric with the traditional measurement
procedure: saturate node pairs with bulk transfers, then add more concurrent
pairs and watch for bandwidth drops that reveal shared bottleneck links.
Two baselines are provided, mirroring the two pieces of related work the
paper discusses:

* :class:`PairwiseSaturationTomography` — measures every unordered host pair
  under concurrent background load, O(N²) probes ([13], the ALNeM-style
  approach, which the paper reports takes about an hour for 20 nodes);
* :class:`TripletSaturationTomography` — additionally runs an interference
  test per node triplet, O(N³) probes ([12]).

Both account the *simulated wall-clock cost* of their measurement phase so
that the efficiency comparison in the paper's Section II-B can be
regenerated, and both feed their measured bandwidth graph to the same
Louvain clustering used by the BitTorrent method so quality is comparable.
Each probe set runs to completion on a fresh, idle
:class:`~repro.network.fluid.FluidNetwork`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.louvain import louvain
from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph
from repro.network.fluid import FluidNetwork
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.simulation.rng import derive_seed


@dataclass
class BaselineResult:
    """Result of a saturation-tomography baseline run.

    Attributes
    ----------
    partition:
        Logical clusters recovered from the measured bandwidth graph.
    bandwidth_graph:
        Graph whose edge weights are the measured under-load bandwidths.
    probes:
        Number of saturation probes issued.
    measurement_time:
        Simulated wall-clock seconds spent measuring (the efficiency metric).
    interference:
        Pairs of host pairs found to interfere (triplet baseline only).
    """

    partition: Partition
    bandwidth_graph: WeightedGraph
    probes: int
    measurement_time: float
    interference: List[Tuple[Tuple[str, str], Tuple[str, str]]]


class _SaturationBase:
    """Shared plumbing: saturation probes and clustering of bandwidth graphs."""

    def __init__(
        self,
        topology: Topology,
        hosts: Optional[Sequence[str]] = None,
        probe_size: float = 64e6,
    ) -> None:
        self.topology = topology
        self.hosts = list(hosts) if hosts is not None else topology.host_names
        if len(self.hosts) < 2:
            raise ValueError("baseline tomography needs at least two hosts")
        if probe_size <= 0:
            raise ValueError("probe_size must be positive")
        self.probe_size = float(probe_size)
        self.routing = RoutingTable(topology)

    def _probe(self, pairs: Sequence[Tuple[str, str]]) -> Tuple[List[float], float]:
        """Saturate ``pairs`` concurrently from a common start.

        Returns each pair's achieved bandwidth (bytes/second, in the order
        of ``pairs``) and the set's makespan: the duration of its slowest
        transfer, which is what the probe set adds to the measurement time.
        """
        network = FluidNetwork(self.topology, self.routing)
        transfers = [
            network.start_transfer(src, dst, self.probe_size) for src, dst in pairs
        ]
        network.run_until_complete()
        durations = [
            max((transfer.finish_time or network.now) - transfer.start_time, 1e-12)
            for transfer in transfers
        ]
        return [self.probe_size / duration for duration in durations], max(durations)

    def _cluster(self, graph: WeightedGraph) -> Partition:
        if graph.total_weight() <= 0:
            return Partition.whole(self.hosts)
        return louvain(graph).partition

    def all_pairs(self) -> List[Tuple[str, str]]:
        return list(itertools.combinations(self.hosts, 2))


class PairwiseSaturationTomography(_SaturationBase):
    """O(N²) baseline: measure every pair while background pairs are active.

    Each unordered pair is probed with a bulk transfer while
    ``concurrent_load`` disjoint random pairs transfer simultaneously.  The
    under-load bandwidth exposes shared bottlenecks (pairs crossing one get a
    reduced share), which an isolated probe cannot see — that is exactly why
    the traditional procedure needs the concurrent step and why it is so
    expensive.
    """

    def __init__(
        self,
        topology: Topology,
        hosts: Optional[Sequence[str]] = None,
        probe_size: float = 64e6,
        concurrent_load: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__(topology, hosts=hosts, probe_size=probe_size)
        if concurrent_load < 0:
            raise ValueError("concurrent_load must be non-negative")
        self.concurrent_load = concurrent_load
        self._rng = np.random.default_rng(derive_seed(seed, "pairwise"))

    def _background_pairs(self, exclude: Tuple[str, str]) -> List[Tuple[str, str]]:
        """Random disjoint host pairs providing load during a probe."""
        available = [h for h in self.hosts if h not in exclude]
        self._rng.shuffle(available)
        background = []
        for i in range(0, len(available) - 1, 2):
            if len(background) >= self.concurrent_load:
                break
            background.append((available[i], available[i + 1]))
        return background

    def run(self) -> BaselineResult:
        """Run the full O(N²) measurement and cluster the result."""
        graph = WeightedGraph()
        for host in self.hosts:
            graph.add_node(host)
        measurement_time = 0.0
        probes = 0
        for a, b in self.all_pairs():
            bandwidths, makespan = self._probe([(a, b)] + self._background_pairs((a, b)))
            measurement_time += makespan
            probes += 1
            graph.add_edge(a, b, bandwidths[0])
        return BaselineResult(
            partition=self._cluster(graph),
            bandwidth_graph=graph,
            probes=probes,
            measurement_time=measurement_time,
            interference=[],
        )


class TripletSaturationTomography(_SaturationBase):
    """O(N³) baseline: per-triplet interference tests ([12]).

    For every triplet ``(a, b, c)`` the method saturates ``a→b`` alone and then
    ``a→b`` together with ``a→c``; a significant drop in the ``a→b`` bandwidth
    indicates the two connections share a link.  The measured under-load
    bandwidths form the graph that is clustered; the detected interferences are
    also reported.
    """

    def __init__(
        self,
        topology: Topology,
        hosts: Optional[Sequence[str]] = None,
        probe_size: float = 64e6,
        interference_threshold: float = 0.85,
        max_triplets: Optional[int] = None,
    ) -> None:
        super().__init__(topology, hosts=hosts, probe_size=probe_size)
        if not 0.0 < interference_threshold <= 1.0:
            raise ValueError("interference_threshold must be in (0, 1]")
        self.interference_threshold = interference_threshold
        self.max_triplets = max_triplets

    def all_triplets(self) -> List[Tuple[str, str, str]]:
        triplets = list(itertools.combinations(self.hosts, 3))
        if self.max_triplets is not None:
            triplets = triplets[: self.max_triplets]
        return triplets

    def run(self) -> BaselineResult:
        """Run the triplet interference procedure and cluster the result."""
        # Track, per pair, the lowest bandwidth observed under interference.
        best_estimate: Dict[Tuple[str, str], float] = {}
        interference: List[Tuple[Tuple[str, str], Tuple[str, str]]] = []
        measurement_time = 0.0
        probes = 0

        def key(u: str, v: str) -> Tuple[str, str]:
            return (u, v) if u <= v else (v, u)

        for a, b, c in self.all_triplets():
            (isolated,), makespan = self._probe([(a, b)])
            measurement_time += makespan
            (loaded_ab, loaded_ac), makespan = self._probe([(a, b), (a, c)])
            measurement_time += makespan
            probes += 2
            if loaded_ab < isolated * self.interference_threshold:
                interference.append((key(a, b), key(a, c)))
            for pair, bandwidth in ((key(a, b), loaded_ab), (key(a, c), loaded_ac)):
                previous = best_estimate.get(pair)
                best_estimate[pair] = bandwidth if previous is None else min(previous, bandwidth)

        graph = WeightedGraph()
        for host in self.hosts:
            graph.add_node(host)
        for (u, v), bandwidth in best_estimate.items():
            graph.add_edge(u, v, bandwidth)
        return BaselineResult(
            partition=self._cluster(graph),
            bandwidth_graph=graph,
            probes=probes,
            measurement_time=measurement_time,
            interference=interference,
        )
