"""Piece (fragment) selection: random-first then rarest-first.

As in the reference client, a peer that holds only a handful of fragments
picks random ones (to get something to trade quickly); after that it requests
the rarest fragment among those the uploader can provide, breaking ties
randomly.  Availability is tracked swarm-wide as a fragment-indexed counter.

NOTE: the broadcast loop in ``repro.bittorrent.swarm`` does not call
:class:`PieceSelector`; it calls :func:`take_fragments`, the same rule on
Python-int bitsets (one per host and one per availability level), once per
pipe that accumulated whole fragments.  It breaks ties with
:func:`draw_below`, numpy's bounded-integer rule applied to the bit
generator's own ``next_uint32``, so it consumes the same words as
``rng.integers(0, k)`` without numpy's per-call dispatch.
:class:`PieceSelector` is the reference and keeps ``rng.integers``:
``tests/test_selection.py`` asserts that both pick the same fragments in
the same order and leave the random stream in the same state, so any change
to the policy — thresholds, tie-breaking, random-stream consumption — must
be made to both.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.bittorrent.peer import PeerState

#: Below this many held fragments, a peer uses random-first selection.
RANDOM_FIRST_THRESHOLD = 4


class PieceSelector:
    """Swarm-wide fragment availability plus the selection rule."""

    def __init__(self, num_fragments: int,
                 random_first_threshold: int = RANDOM_FIRST_THRESHOLD) -> None:
        if num_fragments <= 0:
            raise ValueError("num_fragments must be positive")
        self.num_fragments = num_fragments
        self.random_first_threshold = random_first_threshold
        self.availability = np.zeros(num_fragments, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # availability maintenance
    # ------------------------------------------------------------------ #
    def register_bitfield(self, have: np.ndarray) -> None:
        """Add a joining peer's initial bitfield to the availability counts."""
        have = np.asarray(have, dtype=bool)
        if have.shape != (self.num_fragments,):
            raise ValueError("bitfield has wrong shape")
        self.availability += have.astype(np.int64)

    def record_receipt(self, fragment: int) -> None:
        """A peer completed ``fragment``: one more replica exists in the swarm."""
        if not 0 <= fragment < self.num_fragments:
            raise IndexError(f"fragment index {fragment} out of range")
        self.availability[fragment] += 1

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def select(
        self,
        downloader: PeerState,
        uploader: PeerState,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Pick the fragment ``downloader`` should take from ``uploader``.

        Returns ``None`` when the uploader has nothing the downloader needs.
        """
        return self.select_from(
            uploader.have, ~downloader.have, downloader.fragment_count, rng
        )

    def select_from(
        self,
        uploader_have: np.ndarray,
        downloader_lack: np.ndarray,
        downloader_count: int,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Selection on raw bitfields, the reference for :func:`take_fragments`.

        ``downloader_lack`` is the complement of the downloader's bitfield.
        Consumes the random stream exactly like :meth:`select`.
        """
        wanted = uploader_have & downloader_lack
        candidates = wanted.nonzero()[0]
        if candidates.size == 0:
            return None
        if downloader_count < self.random_first_threshold:
            return int(candidates[int(rng.integers(0, candidates.size))])
        availability = self.availability[candidates]
        rarest = availability.min()
        rarest_candidates = candidates[availability == rarest]
        return int(rarest_candidates[int(rng.integers(0, rarest_candidates.size))])


# ---------------------------------------------------------------------- #
# bitset form (the broadcast loop's conversion step)
# ---------------------------------------------------------------------- #
def draw_below(next_uint32: Callable[[object], int], state: object, k: int) -> int:
    """What ``rng.integers(0, k)`` returns, for ``1 < k <= 2**32``.

    ``next_uint32`` and ``state`` come from ``rng.bit_generator.ctypes``.
    numpy draws a bounded int64 whose range fits in 32 bits by Lemire's
    multiply-shift rule over the bit generator's ``next_uint32``: the high
    word of ``next_uint32() * k``, redrawn while the low word is below
    ``(2**32 - k) % k``.  Doing the same here consumes the stream word for
    word.  :func:`take_fragments` draws only over a tie, at most
    ``num_fragments`` wide.  ``rng.integers`` holds the bit generator's lock
    while it draws and this call does not: nothing in this package starts a
    thread, and no generator is shared across threads.
    """
    m = next_uint32(state) * k
    # The threshold is below k, so as in numpy it is computed only when
    # the low word is too.
    if (m & 0xFFFFFFFF) < k:
        threshold = (0x100000000 - k) % k
        while (m & 0xFFFFFFFF) < threshold:
            m = next_uint32(state) * k
    return m >> 32


def bitset(mask: np.ndarray) -> int:
    """The Python int whose bit ``f`` is set iff ``mask[f]``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def unpack_threshold(num_fragments: int) -> int:
    """Set-bit count above which :func:`set_bits` unpacks with numpy.

    A low-bit step costs three big-int operations over the bitset's width;
    one unpack costs a few numpy calls plus a pass over ``num_fragments``
    bits, whatever the count.  Measured (CPython 3.11, NumPy 2.4, x86-64):
    about ``0.27 + 1.3e-4 * F`` µs per step and ``5 + 7e-4 * F`` µs per
    unpack, so the crossover falls from 17 bits at 120 fragments to 13 at
    1,200 and 6 at 15,259.
    """
    return int((5.0 + 7e-4 * num_fragments) / (0.27 + 1.3e-4 * num_fragments))


def set_bits(bits: int, unpack_above: int) -> List[int]:
    """Positions of the set bits of ``bits``, ascending."""
    if bits.bit_count() > unpack_above:
        data = np.frombuffer(
            bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8
        )
        return np.unpackbits(data, bitorder="little").view(bool).nonzero()[0].tolist()
    positions = []
    while bits:
        low = bits & -bits
        positions.append(low.bit_length() - 1)
        bits ^= low
    return positions


def take_fragments(
    host_bits: List[int],
    levels: List[int],
    availability: List[int],
    lowest: int,
    uploader: int,
    downloader: int,
    held: int,
    surplus: float,
    fragment_size: float,
    random_first_threshold: int,
    num_fragments: int,
    unpack_above: int,
    rng: np.random.Generator,
) -> Tuple[List[int], float]:
    """Turn ``surplus`` bytes on one pipe into fragments, selecting each as
    :meth:`PieceSelector.select_from` would.

    ``host_bits[i]`` is host ``i``'s bitfield, ``availability[f]`` the number
    of hosts holding ``f`` and ``levels[c]`` the bitset of fragments held by
    exactly ``c`` hosts; ``lowest`` is at most the lowest non-empty level.
    All three include every receipt when the call returns; inside it, a
    rarest-first receipt moves up a level only when its tier is drained or
    the call ends, since it has left the pool and no scan can see it.
    ``held`` is the downloader's fragment count.  Each pick draws its index
    among ``k`` choices with :func:`draw_below`, the value and the stream
    words of ``rng.integers(0, k)``, and only for ``k > 1``: numpy consumes
    nothing for a one-wide range, so neither does this.

    Returns the received fragments in order and the surplus left: kept
    below one fragment and on completion, zero once the uploader has nothing
    the downloader lacks.
    """
    bit_generator = rng.bit_generator.ctypes
    next_uint32, state = bit_generator.next_uint32, bit_generator.state
    have = host_bits[downloader]
    pool = start = host_bits[uploader] & ~have
    received: List[int] = []
    tie: List[int] = []
    tier = 0
    level = lowest
    while surplus >= fragment_size:
        if not pool:
            surplus = 0.0
            break
        random_first = held < random_first_threshold
        if random_first:
            choices = set_bits(pool, unpack_above)
        else:
            if not tie:
                if tier:
                    # The tier is drained: its members move up one level.
                    levels[level] ^= tier
                    levels[level + 1] |= tier
                # Only received fragments change availability, and they
                # leave the pool: the rarest tier of what remains is at or
                # above the last one.
                tier = pool & levels[level]
                while not tier:
                    level += 1
                    tier = pool & levels[level]
                tie = set_bits(tier, unpack_above)
            choices = tie
        k = len(choices)
        if k > 1:
            fragment = choices.pop(draw_below(next_uint32, state, k))
        else:
            fragment = choices.pop()
        bit = 1 << fragment
        pool ^= bit
        count = availability[fragment]
        availability[fragment] = count + 1
        if random_first:
            levels[count] ^= bit
            levels[count + 1] |= bit
        received.append(fragment)
        surplus -= fragment_size
        held += 1
        if held == num_fragments:
            break
    if tier:
        drawn = tier & ~pool
        levels[level] ^= drawn
        levels[level + 1] |= drawn
    host_bits[downloader] = have | (start ^ pool)
    return received, surplus
