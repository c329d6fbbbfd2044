"""Piece (fragment) selection: random-first then rarest-first.

As in the reference client, a peer that holds only a handful of fragments
picks random ones (to get something to trade quickly); after that it requests
the rarest fragment among those the uploader can provide, breaking ties
randomly.  Availability is tracked swarm-wide as a fragment-indexed counter.

NOTE: the broadcast loop in ``repro.bittorrent.swarm`` does not call
:class:`PieceSelector`; it calls :func:`convert_pass`, the same rule on
Python-int bitsets (one per host, and one per availability bound: the
fragments held by at most ``c`` hosts), once per conversion pass over every
pipe that accumulated whole fragments.  It breaks ties with
:func:`draw_below`, numpy's bounded-integer rule applied to the bit
generator's own ``next_uint32``, so it consumes the same words as
``rng.integers(0, k)`` without numpy's per-call dispatch.
:class:`PieceSelector` is the reference and keeps ``rng.integers``:
``tests/test_selection.py`` asserts that both pick the same fragments in
the same order and leave the random stream in the same state, so any change
to the policy — thresholds, tie-breaking, random-stream consumption — must
be made to both.

The choker's picks of a few peers replay numpy the same way:
:func:`sample_below` is ``rng.choice(k, size=m, replace=False)`` on the
bit generator's ``next_uint32``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

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
    def record_receipt(self, fragment: int) -> None:
        """A peer completed ``fragment``: one more replica exists in the swarm."""
        if not 0 <= fragment < self.num_fragments:
            raise IndexError(f"fragment index {fragment} out of range")
        self.availability[fragment] += 1

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def select_from(
        self,
        uploader_have: np.ndarray,
        downloader_lack: np.ndarray,
        downloader_count: int,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """The fragment a downloader holding ``downloader_count`` fragments
        takes from an uploader, on raw bitfields; the reference for
        :func:`convert_pass`.

        ``downloader_lack`` is the complement of the downloader's bitfield.
        Returns ``None`` when the uploader has nothing the downloader needs,
        and draws one ``rng.integers`` tie index otherwise.
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
    word.  :func:`convert_pass` draws only over a tie, at most
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


def sample_below(
    next_uint32: Callable[[object], int], state: object, k: int, m: int
) -> List[int]:
    """What ``rng.choice(k, size=m, replace=False)`` returns, as a list, for
    ``1 <= m <= k <= 10,000``.

    Below numpy's tail-shuffle cutoff (``k > 10,000``) ``choice`` runs
    Floyd's sampling and then a Fisher–Yates shuffle of the sample, each
    draw numpy's bounded rule over ``[0, j]``: :func:`draw_below` of
    ``j + 1``, and no draw for ``j = 0``.  Floyd's step takes ``j`` when
    the value drawn for it was already picked; the shuffle swaps slot
    ``i`` with a draw over ``[0, i]``, from the last slot down to slot 1.
    Replaying both consumes the stream word for word.  The choker picks
    at most ``upload_slots`` peers, where this costs less than numpy's
    per-call dispatch.
    """
    picks: List[int] = []
    for j in range(k - m, k):
        value = draw_below(next_uint32, state, j + 1) if j else 0
        picks.append(j if value in picks else value)
    for i in range(m - 1, 0, -1):
        j = draw_below(next_uint32, state, i + 1)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def bitset(mask: np.ndarray) -> int:
    """The Python int whose bit ``f`` is set iff ``mask[f]``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


#: Set-bit count above which a bitset is unpacked with numpy rather than
#: bit by bit.  A step of the highest-bit-first loop costs about
#: ``0.12 + 2e-5 * F`` µs on an ``F``-fragment bitset (the ints it works on
#: shrink as it goes) and one numpy unpack about ``3.2 + 5e-4 * F`` µs,
#: whatever the count (CPython 3.11, NumPy 2.4, x86-64): the crossover sits
#: near 26 bits at 120, 1,200 and 15,259 fragments alike.
UNPACK_ABOVE = 26


def set_bits(bits: int, unpack_above: int = UNPACK_ABOVE) -> List[int]:
    """Positions of the set bits of ``bits``, ascending; numpy unpacks them
    when there are more than ``unpack_above``."""
    if bits.bit_count() > unpack_above:
        data = np.frombuffer(
            bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8
        )
        return np.unpackbits(data, bitorder="little").view(bool).nonzero()[0].tolist()
    # Highest bit first: each step works on a shorter int.
    positions = []
    while bits:
        top = bits.bit_length() - 1
        positions.append(top)
        bits ^= 1 << top
    positions.reverse()
    return positions


def rarest_level(pool: int, below: List[int], level: int) -> int:
    """The least ``c >= level`` with ``pool & below[c]`` non-empty.

    ``below`` only grows with ``c`` and its last set holds every fragment,
    so for a non-empty ``pool`` a bisection finds it in O(log hosts)
    big-int ANDs.
    """
    top = len(below) - 1
    while level < top:
        middle = (level + top) >> 1
        if pool & below[middle]:
            top = middle
        else:
            level = middle + 1
    return level


def convert_pass(
    host_bits: List[int],
    below: List[int],
    lowest: int,
    uploaders: List[int],
    downloaders: List[int],
    held: List[int],
    surpluses: List[float],
    fragment_size: float,
    random_first_threshold: int,
    num_fragments: int,
    rng: np.random.Generator,
) -> List[List[int]]:
    """Turn one pass's surplus bytes into fragments, pipe by pipe in the
    given order, picking each as :meth:`PieceSelector.select_from` would.

    Pipe ``i`` carries ``surpluses[i]`` bytes from host ``uploaders[i]`` to
    host ``downloaders[i]``.  ``host_bits[h]`` is host ``h``'s bitfield,
    ``held[h]`` its fragment count and ``below[c]`` the fragments held by
    at most ``c`` hosts; ``lowest`` is at most the least ``c`` with
    ``below[c]`` non-empty.  All three are updated after each pipe, so a
    fragment received earlier in the pass can be forwarded later in it.
    Each surplus is rewritten with what its pipe keeps: it is counted down
    by the selector's own ``surplus -= fragment_size``, kept on completion
    and zeroed once the uploader has nothing the downloader lacks.  Below
    ``random_first_threshold`` held fragments a pick draws over the whole
    pool; after that a pipe takes the rarest tier, ``pool & below[c]`` at
    the least such ``c``, and what it takes of a tier leaves the pool and
    moves up a level in one update each.  Tie indices are
    :func:`draw_below`'s, made only for ``k > 1`` as numpy draws nothing
    for a one-wide range.

    Returns each pipe's received fragments in order.
    """
    interface = rng.bit_generator.ctypes
    next_uint32, state = interface.next_uint32, interface.state
    passed: List[List[int]] = []
    for event, (uploader, downloader) in enumerate(zip(uploaders, downloaders)):
        received: List[int] = []
        passed.append(received)
        count, have = held[downloader], host_bits[downloader]
        pool = start = host_bits[uploader] & ~have
        size, surplus, takes = pool.bit_count(), surpluses[event], 0
        while surplus >= fragment_size:
            if takes == size:
                surplus = 0.0
                break
            takes += 1
            surplus -= fragment_size
            if count + takes == num_fragments:
                break
        surpluses[event] = surplus
        held[downloader] = count + takes
        level = lowest
        while takes:
            random_first = count < random_first_threshold
            if random_first:
                tier = pool
            else:
                tier = pool & below[level]
                if not tier:
                    level = rarest_level(pool, below, level + 1)
                    tier = pool & below[level]
            width = tier.bit_count()
            if width == 1:
                received.append(tier.bit_length() - 1)
                drawn, picks = tier, 1
            else:
                members = set_bits(tier)
                if takes >= width and not random_first:
                    for k in range(width, 1, -1):
                        received.append(members.pop(draw_below(next_uint32, state, k)))
                    received.append(members[0])
                    drawn, picks = tier, width
                else:
                    picks = 1 if random_first else takes
                    drawn = 0
                    for k in range(width, width - picks, -1):
                        fragment = members.pop(draw_below(next_uint32, state, k))
                        received.append(fragment)
                        drawn |= 1 << fragment
            pool ^= drawn
            takes -= picks
            if random_first:
                below[rarest_level(drawn, below, lowest)] ^= drawn
                count += 1
            else:
                below[level] ^= drawn
                level += 1
        host_bits[downloader] = have | (start ^ pool)
    return passed
