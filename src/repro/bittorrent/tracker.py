"""Tracker: hands each joining peer a bounded random peer set.

The original client limits the number of peers a client knows to 35; the
paper notes this is one source of measurement sparsity — for swarms larger
than ~35 nodes a single broadcast only exercises a subset of all possible
edges, and aggregation over iterations fills in the rest.  Peers are host
indices, as everywhere inside a broadcast.
"""

from __future__ import annotations

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

    def build_connections(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The symmetric ``n × n`` neighbour mask of an ``n``-peer swarm.

        Each peer, in index order, learns a random subset of the others (in
        index order); ``rng`` is the broadcast iteration's generator.
        """
        if n < 2:
            raise ValueError("a swarm needs at least two peers")
        known = np.zeros((n, n), dtype=bool)
        count = min(self.max_peers, n - 1)
        for i in range(n):
            picks = rng.choice(n - 1, size=count, replace=False)
            # The others in index order skip peer i itself.
            known[i, picks + (picks >= i)] = True
        # Symmetric closure: a connection exists if either side knows the other.
        return known | known.T

    def announce(self, present: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Peer set handed to a peer (re)joining a live swarm.

        Mirrors one row of :meth:`build_connections`: the joiner learns a
        bounded random subset of ``present``, the indices of the other
        peers in the swarm.  The symmetric closure (the discovered side also
        opening the connection) is the caller's job, as it owns the live
        neighbour state.  Used by the churn actors of :mod:`repro.workloads`
        when a departed peer rejoins mid-broadcast.
        """
        if not len(present):
            return present
        count = min(self.max_peers, len(present))
        return present[rng.choice(len(present), size=count, replace=False)]
