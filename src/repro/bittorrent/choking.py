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
from typing import List, Sequence, Tuple

import numpy as np

from repro.bittorrent.selection import draw_below, sample_below

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
        candidates: List[int],
        credits: Sequence[float],
        optimistic: int,
        seeding: bool,
        round_index: int,
        rng: np.random.Generator,
    ) -> Tuple[List[int], int]:
        """Compute one peer's new unchoke set.

        Parameters
        ----------
        candidates:
            Indices of the neighbours currently interested in the peer, in
            name order.
        credits:
            The peer's round credits by host index: the bytes each peer
            uploaded to it since the last rechoke.
        optimistic:
            The peer's optimistic-unchoke target, -1 for none.
        seeding:
            Whether the peer holds the whole file: a seed rotates randomly
            whatever it downloaded this round.
        round_index:
            Zero-based index of the choking round (drives optimistic rotation).
        rng:
            Random stream of this broadcast iteration.

        Returns
        -------
        (list of int, int)
            The peers to unchoke (at most ``upload_slots``) and the new
            optimistic target (-1 for none).

        The draws replay numpy's on the bit generator's ``next_uint32``,
        read once per call from ``rng.bit_generator.ctypes``: the random
        rotation is :func:`~repro.bittorrent.selection.sample_below`,
        ``rng.choice(len(candidates), size=slots, replace=False)``, and an
        optimistic or fill-in pick is
        :func:`~repro.bittorrent.selection.draw_below`,
        ``rng.integers(0, len(pool))``.  Each returns the values and
        consumes the words of numpy's call.  A one-peer pool is taken
        without a draw, because ``rng.integers(0, 1)`` draws nothing, and
        an empty candidate list unchokes nobody and draws nothing.
        """
        if not candidates:
            return [], -1
        interface = rng.bit_generator.ctypes
        next_uint32, state = interface.next_uint32, interface.state
        slots = min(self.upload_slots, len(candidates))

        if seeding or not any(credits):
            # No reciprocation signal: random rotation (seed mode / first round).
            picks = sample_below(next_uint32, state, len(candidates), slots)
            return [candidates[i] for i in picks], -1

        # Tit-for-tat: keep the fastest uploaders to us, one slot optimistic.
        # The sort is stable, so equal credits keep name order.
        ranking = sorted(
            (p for p in candidates if credits[p] > 0), key=lambda p: -credits[p]
        )
        chosen = ranking[: slots - 1]

        # At most slots - 1 candidates are chosen, so each pool is non-empty.
        if (
            round_index % self.optimistic_every == 0
            or optimistic not in candidates
            or optimistic in chosen
        ):
            pool = [p for p in candidates if p not in chosen]
            k = len(pool)
            optimistic = pool[draw_below(next_uint32, state, k) if k > 1 else 0]
        chosen.append(optimistic)

        # Fill any remaining slots (e.g. short ranking) with random candidates.
        while len(chosen) < slots:
            pool = [p for p in candidates if p not in chosen]
            k = len(pool)
            chosen.append(pool[draw_below(next_uint32, state, k) if k > 1 else 0])
        return chosen, optimistic
