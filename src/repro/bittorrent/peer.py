"""Per-peer protocol state: bitfield, interest, rate bookkeeping.

A :class:`PeerState` corresponds to one instrumented BitTorrent client in the
paper's measurement phase.  It tracks which fragments the peer holds, which
neighbours it is connected to, whom it is currently unchoking, and how much
it downloaded from each neighbour during the current choking round (the
tit-for-tat reciprocation signal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np


@dataclass
class PeerState:
    """State of one BitTorrent client participating in a broadcast.

    Attributes
    ----------
    name:
        Host name of the node running the client.
    index:
        Dense integer index within the swarm (used by numpy bookkeeping).
    num_fragments:
        Number of fragments in the torrent.
    have:
        Boolean bitfield of fragments held.
    neighbors:
        Names of peers this client may exchange data with (tracker-provided).
    unchoked:
        Peers this client is currently uploading to (at most ``upload_slots``),
        sorted by name.
    optimistic:
        The current optimistic-unchoke target, if any (member of ``unchoked``).
    downloaded_this_round:
        Bytes received per neighbour during the current choking round; reset
        at every rechoke.  This is the reciprocation metric of the choker.
    """

    name: str
    index: int
    num_fragments: int
    have: np.ndarray = field(default=None)  # type: ignore[assignment]
    neighbors: Set[str] = field(default_factory=set)
    unchoked: List[str] = field(default_factory=list)
    optimistic: Optional[str] = None
    downloaded_this_round: Dict[str, float] = field(default_factory=dict)
    completion_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_fragments <= 0:
            raise ValueError("num_fragments must be positive")
        if self.have is None:
            self.have = np.zeros(self.num_fragments, dtype=bool)
        else:
            self.have = np.asarray(self.have, dtype=bool)
            if self.have.shape != (self.num_fragments,):
                raise ValueError("have bitfield has wrong shape")
        # Cached so interest/seed checks are O(1) on the swarm hot path; the
        # bitfield must only be mutated through make_seed/receive_fragment —
        # except by the broadcast loop in repro.bittorrent.swarm, which
        # writes the shared bitfield matrix and this cache in lockstep.
        self._fragment_count = int(self.have.sum())

    # ------------------------------------------------------------------ #
    # fragment bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def fragment_count(self) -> int:
        """Number of fragments currently held."""
        return self._fragment_count

    @property
    def is_seed(self) -> bool:
        """True once the peer holds the complete file."""
        return self._fragment_count == self.num_fragments

    def make_seed(self) -> None:
        """Mark the peer as holding the whole file (the broadcast root)."""
        self.have[:] = True
        self._fragment_count = self.num_fragments

    def receive_fragment(self, fragment: int) -> None:
        """Record the arrival of one fragment."""
        if not 0 <= fragment < self.num_fragments:
            raise IndexError(f"fragment index {fragment} out of range")
        if not self.have[fragment]:
            self.have[fragment] = True
            self._fragment_count += 1

    def missing_from(self, other: "PeerState") -> np.ndarray:
        """Boolean mask of fragments ``other`` has and ``self`` lacks."""
        return other.have & ~self.have

    def is_interested_in(self, other: "PeerState") -> bool:
        """Interest as defined by the wire protocol: the other has something we need."""
        if self.is_seed:
            return False
        if other.fragment_count == 0:
            return False
        if other.is_seed:
            return True
        return bool(np.any(other.have & ~self.have))

    # ------------------------------------------------------------------ #
    # rate bookkeeping (tit-for-tat)
    # ------------------------------------------------------------------ #
    def credit_download(self, from_peer: str, nbytes: float) -> None:
        """Record ``nbytes`` received from ``from_peer`` in the current round."""
        if nbytes < 0:
            raise ValueError("cannot credit a negative byte count")
        self.downloaded_this_round[from_peer] = (
            self.downloaded_this_round.get(from_peer, 0.0) + nbytes
        )

    def reset_round(self) -> None:
        """Clear the per-round reciprocation counters (called at each rechoke)."""
        self.downloaded_this_round.clear()

    def reciprocation_ranking(self) -> List[str]:
        """Neighbours ordered by bytes they sent us this round (descending)."""
        return [
            peer
            for peer, _ in sorted(
                self.downloaded_this_round.items(), key=lambda kv: (-kv[1], kv[0])
            )
            if peer in self.neighbors
        ]
