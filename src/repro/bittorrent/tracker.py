"""Tracker: hands each joining peer a bounded random peer set.

The original client limits the number of peers a client knows to 35; the
paper notes this is one source of measurement sparsity — for swarms larger
than ~35 nodes a single broadcast only exercises a subset of all possible
edges, and aggregation over iterations fills in the rest.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

import numpy as np

#: Default maximum peer-set size of the reference client.
DEFAULT_MAX_PEERS = 35


class Tracker:
    """Assigns every peer a random subset of the swarm as its peer set.

    The resulting *connection graph* is the symmetric closure of the
    "knows-about" relation: if either end learned about the other from the
    tracker, the pair may exchange data (as in the real protocol, where the
    discovering side initiates the TCP connection).
    """

    def __init__(self, max_peers: int = DEFAULT_MAX_PEERS) -> None:
        if max_peers < 1:
            raise ValueError(f"max_peers must be at least 1, got {max_peers}")
        self.max_peers = max_peers

    def build_connections(
        self, peer_names: Sequence[str], rng: np.random.Generator
    ) -> Dict[str, Set[str]]:
        """Return the symmetric connection sets for every peer.

        Parameters
        ----------
        peer_names:
            All peers in the swarm (including the seed).
        rng:
            Random generator for this broadcast iteration.
        """
        names = list(peer_names)
        if len(set(names)) != len(names):
            raise ValueError("peer names must be unique")
        if len(names) < 2:
            raise ValueError("a swarm needs at least two peers")
        known: Dict[str, Set[str]] = {name: set() for name in names}
        for name in names:
            others = [p for p in names if p != name]
            count = min(self.max_peers, len(others))
            picks = rng.choice(len(others), size=count, replace=False)
            known[name].update(others[i] for i in picks)
        # Symmetric closure: a connection exists if either side knows the other.
        connections: Dict[str, Set[str]] = {name: set() for name in names}
        for name, peers in known.items():
            for other in peers:
                connections[name].add(other)
                connections[other].add(name)
        return connections

    def announce(
        self, name: str, present: Sequence[str], rng: np.random.Generator
    ) -> Set[str]:
        """Peer set handed to a peer (re)joining a live swarm.

        Mirrors one row of :meth:`build_connections`: the joiner learns a
        bounded random subset of the currently-present peers.  The symmetric
        closure (the discovered side also opening the connection) is the
        caller's job, as it owns the live neighbour state.  Used by the
        churn actors of :mod:`repro.workloads` when a departed peer rejoins
        mid-broadcast.
        """
        others = [p for p in present if p != name]
        if not others:
            return set()
        count = min(self.max_peers, len(others))
        picks = rng.choice(len(others), size=count, replace=False)
        return {others[i] for i in picks}
