"""Per-peer choking state: optimistic slot and round credits.

A :class:`PeerState` is the choker's memory of one instrumented BitTorrent
client in the paper's measurement phase: its optimistic-unchoke target and
how much it downloaded from each peer during the current choking round
(the tit-for-tat reciprocation signal).  Everything else about a peer is a
swarm-wide fact that the broadcast session
(:class:`repro.bittorrent.swarm.BroadcastSession`) keeps once: the
bitfields, the fragment counts, the finish times, the neighbour mask and
the unchoke relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class PeerState:
    """Choking state of one BitTorrent client participating in a broadcast.

    Attributes
    ----------
    name:
        Host name of the node running the client.
    optimistic:
        The current optimistic-unchoke target, if any (one of the peers the
        client unchokes).
    downloaded_this_round:
        Bytes received per peer during the current choking round; reset
        at every rechoke.  This is the reciprocation metric of the choker.
    """

    name: str
    optimistic: Optional[str] = None
    downloaded_this_round: Dict[str, float] = field(default_factory=dict)

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
        """Peers ordered by bytes they sent us this round (descending)."""
        return [
            peer
            for peer, _ in sorted(
                self.downloaded_this_round.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
