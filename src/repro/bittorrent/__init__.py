"""BitTorrent broadcast substrate.

The paper instruments Bram Cohen's Python BitTorrent client and runs
*synchronized broadcasts*: one seed holds a large file, every other node
downloads it, and every client counts the fragments (16 KiB pieces) it
received from each peer.  This package reproduces that system as a
discrete-event / fluid simulation over the :mod:`repro.network` substrate:

* :mod:`repro.bittorrent.torrent` — file and fragment metadata;
* :mod:`repro.bittorrent.tracker` — bounded random peer sets (max 35 peers);
* :mod:`repro.bittorrent.peer` — per-peer choking state (optimistic slot,
  round credits);
* :mod:`repro.bittorrent.choking` — tit-for-tat choker with 4 upload slots and
  optimistic unchoke;
* :mod:`repro.bittorrent.selection` — rarest-first piece selection;
* :mod:`repro.bittorrent.swarm` — the synchronized broadcast simulation,
  whose session owns the bitfields, fragment counts, finish times, the
  neighbour mask, the unchoke relation and the pipes, each by host index
  or host pair;
* :mod:`repro.bittorrent.instrumentation` — the per-peer fragment counters
  that produce the paper's measurement matrix.
"""

from repro.bittorrent.torrent import PAPER_FILE_SIZE, PAPER_FRAGMENT_COUNT, FRAGMENT_SIZE, TorrentMeta
from repro.bittorrent.tracker import Tracker
from repro.bittorrent.peer import PeerState
from repro.bittorrent.choking import ChokingPolicy
from repro.bittorrent.selection import PieceSelector
from repro.bittorrent.instrumentation import FragmentMatrix
from repro.bittorrent.swarm import BroadcastResult, SwarmConfig, BitTorrentBroadcast

__all__ = [
    "PAPER_FILE_SIZE",
    "PAPER_FRAGMENT_COUNT",
    "FRAGMENT_SIZE",
    "TorrentMeta",
    "Tracker",
    "PeerState",
    "ChokingPolicy",
    "PieceSelector",
    "FragmentMatrix",
    "BroadcastResult",
    "SwarmConfig",
    "BitTorrentBroadcast",
]
