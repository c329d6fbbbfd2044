"""Tit-for-tat choking with a bounded number of upload slots.

The reference client limits parallel uploads to four and rotates one
"optimistic" unchoke slot among the remaining interested peers.  The paper
identifies this bound (together with the 35-peer set) as the reason a single
broadcast only samples a subset of edges — which is precisely the randomness
the clustering phase has to absorb.

The policy implemented here follows the standard description:

* a **leecher** reciprocates: it keeps its ``slots - 1`` fastest *uploaders to
  it* during the previous round unchoked, plus one optimistic slot;
* a **seed** has no download rates to reciprocate, so it rotates its slots
  randomly among interested peers (the reference client rotates by upload
  rate / recency; a random rotation has the same fragment-spreading effect
  and matches the "initially random choices" the paper describes);
* on the very first round nobody has history, so all choices are random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set

import numpy as np

from repro.bittorrent.peer import PeerState

#: Default number of parallel upload slots of the reference client.
DEFAULT_UPLOAD_SLOTS = 4


@dataclass(frozen=True)
class ChokingPolicy:
    """Parameters of the choker.

    Attributes
    ----------
    upload_slots:
        Total simultaneous unchoked peers (including the optimistic slot).
    optimistic_every:
        Rotate the optimistic unchoke every this many choking rounds.
    """

    upload_slots: int = DEFAULT_UPLOAD_SLOTS
    optimistic_every: int = 3

    def __post_init__(self) -> None:
        if self.upload_slots < 1:
            raise ValueError("upload_slots must be at least 1")
        if self.optimistic_every < 1:
            raise ValueError("optimistic_every must be at least 1")

    # ------------------------------------------------------------------ #
    def rechoke(
        self,
        peer: PeerState,
        candidates: Sequence[str],
        seeding: bool,
        round_index: int,
        rng: np.random.Generator,
    ) -> Set[str]:
        """Compute the new unchoke set for ``peer``.

        Parameters
        ----------
        peer:
            The uploading peer whose slots are being assigned.
        candidates:
            Neighbours currently interested in ``peer``, in name order.
        seeding:
            Whether ``peer`` holds the whole file: a seed rotates randomly
            whatever it downloaded this round.
        round_index:
            Zero-based index of the choking round (drives optimistic rotation).
        rng:
            Random stream of this peer for this broadcast iteration.

        Returns
        -------
        set of str
            Peers to unchoke; its size is at most ``upload_slots``.
        """
        if not candidates:
            peer.optimistic = None
            return set()
        slots = min(self.upload_slots, len(candidates))

        if seeding or not peer.downloaded_this_round:
            # No reciprocation signal: random rotation (seed mode / first round).
            picks = rng.choice(len(candidates), size=slots, replace=False)
            chosen = {candidates[i] for i in picks}
            peer.optimistic = None
            return chosen

        # Tit-for-tat: keep the fastest uploaders to us, one slot optimistic.
        ranking = [p for p in peer.reciprocation_ranking() if p in candidates]
        regular_slots = max(slots - 1, 0)
        chosen = set(ranking[:regular_slots])

        rotate = round_index % self.optimistic_every == 0
        optimistic = peer.optimistic
        if (
            rotate
            or optimistic is None
            or optimistic not in candidates
            or optimistic in chosen
        ):
            pool = [p for p in candidates if p not in chosen]
            optimistic = candidates[int(rng.integers(0, len(candidates)))] if not pool else (
                pool[int(rng.integers(0, len(pool)))]
            )
        peer.optimistic = optimistic
        chosen.add(optimistic)

        # Fill any remaining slots (e.g. short ranking) with random candidates.
        while len(chosen) < slots:
            pool = [p for p in candidates if p not in chosen]
            if not pool:
                break
            chosen.add(pool[int(rng.integers(0, len(pool)))])
        return chosen
