"""Unit tests for rarest-first piece selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bittorrent.selection import (
    UNPACK_ABOVE,
    PieceSelector,
    bitset,
    convert_pass,
    draw_below,
    rarest_level,
    sample_below,
    set_bits,
)


def select(selector, uploader_have, downloader_have, rng):
    """The reference selector's pick for one downloader/uploader pair."""
    return selector.select_from(
        uploader_have, ~downloader_have, int(downloader_have.sum()), rng
    )


class TestPieceSelector:
    def test_record_receipt_bounds(self):
        selector = PieceSelector(4)
        selector.record_receipt(2)
        assert selector.availability[2] == 1
        with pytest.raises(IndexError):
            selector.record_receipt(4)

    def test_select_returns_none_when_nothing_useful(self, rng):
        selector = PieceSelector(8)
        nothing = np.zeros(8, dtype=bool)
        assert select(selector, nothing, nothing, rng) is None

    def test_select_only_offers_fragments_uploader_has(self, rng):
        selector = PieceSelector(8)
        uploader = np.zeros(8, dtype=bool)
        uploader[3] = True
        for _ in range(20):
            choice = select(selector, uploader, np.zeros(8, dtype=bool), rng)
            assert choice == 3

    def test_random_first_phase_uses_any_candidate(self, rng):
        selector = PieceSelector(8, random_first_threshold=4)
        seed, empty = np.ones(8, dtype=bool), np.zeros(8, dtype=bool)
        choices = {select(selector, seed, empty, rng) for _ in range(50)}
        assert len(choices) > 1  # random-first really is random

    def test_rarest_first_prefers_least_available(self, rng):
        selector = PieceSelector(6, random_first_threshold=0)
        # Make fragments 0..4 common, fragment 5 rare.
        for fragment in range(5):
            selector.availability[fragment] = 10
        selector.availability[5] = 1
        choice = select(selector, np.ones(6, dtype=bool), np.zeros(6, dtype=bool), rng)
        assert choice == 5

    def test_rarest_first_breaks_ties_randomly(self, rng):
        selector = PieceSelector(6, random_first_threshold=0)
        seed, empty = np.ones(6, dtype=bool), np.zeros(6, dtype=bool)
        selector.availability[:] = 3
        choices = {select(selector, seed, empty, rng) for _ in range(60)}
        assert len(choices) > 1

    def test_already_held_fragments_never_selected(self, rng):
        selector = PieceSelector(6, random_first_threshold=0)
        downloader = np.zeros(6, dtype=bool)
        downloader[:4] = True
        for _ in range(20):
            assert select(selector, np.ones(6, dtype=bool), downloader, rng) in (4, 5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PieceSelector(0)


# ---------------------------------------------------------------------- #
# the broadcast loop's pass kernel against the reference selector
# ---------------------------------------------------------------------- #
def convert_both(hosts, availability, pipes, threshold, seed, fragment_size=16384.0):
    """Run one conversion pass over ``pipes``, ``(uploader, downloader,
    surplus)`` in order, with :func:`convert_pass` and with a
    :meth:`PieceSelector.select_from` loop on a cloned generator; assert
    they agree on every pipe's receipts and surplus, the host bitsets and
    counts, the availability sets and the final generator state, which is
    returned with the receipts and the surpluses."""
    hosts = [np.asarray(bits, dtype=bool) for bits in hosts]
    availability = np.asarray(availability, dtype=np.int64)
    num_fragments = availability.size
    # A fragment moves up one level per receipt, at most once per pipe.
    top = int(availability.max()) + len(pipes) + 1

    host_bits = [bitset(bits) for bits in hosts]
    below = [bitset(availability <= c) for c in range(top + 1)]
    held = [int(bits.sum()) for bits in hosts]
    surpluses = [surplus for _, _, surplus in pipes]
    rng = np.random.default_rng(seed)
    received = convert_pass(
        host_bits, below, int(availability.min()),
        [uploader for uploader, _, _ in pipes],
        [downloader for _, downloader, _ in pipes],
        held, surpluses, fragment_size, threshold, num_fragments, rng,
    )

    selector = PieceSelector(num_fragments, random_first_threshold=threshold)
    selector.availability[:] = availability
    reference_rng = np.random.default_rng(seed)
    have = [bits.copy() for bits in hosts]
    expected, left = [], []
    for uploader, downloader, remaining in pipes:
        count = int(have[downloader].sum())
        picks = []
        while remaining >= fragment_size:
            fragment = selector.select_from(
                have[uploader], ~have[downloader], count, reference_rng
            )
            if fragment is None:
                remaining = 0.0
                break
            picks.append(fragment)
            have[downloader][fragment] = True
            selector.record_receipt(fragment)
            count += 1
            remaining -= fragment_size
            if count == num_fragments:
                break
        expected.append(picks)
        left.append(remaining)

    assert received == expected
    assert surpluses == left
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert host_bits == [bitset(bits) for bits in have]
    assert held == [int(bits.sum()) for bits in have]
    assert below == [bitset(selector.availability <= c) for c in range(top + 1)]
    return received, surpluses, rng.bit_generator.state


def convert_one(uploader, downloader, availability, threshold, draws, seed,
                fragment_size=16384.0, extra=0.0):
    """One pipe converting ``draws`` fragments' worth of bytes plus
    ``extra``; its receipts, surplus and the final generator state."""
    received, surpluses, state = convert_both(
        [uploader, downloader], availability,
        [(0, 1, draws * fragment_size + extra)], threshold, seed, fragment_size,
    )
    return received[0], surpluses[0], state


@st.composite
def conversion_passes(draw):
    num_fragments = draw(st.integers(1, 160))
    num_hosts = draw(st.integers(2, 5))
    # Seeds and empty hosts make pools, and so ties, wide enough for numpy.
    bits = st.one_of(
        st.lists(st.booleans(), min_size=num_fragments, max_size=num_fragments),
        st.just([True] * num_fragments),
        st.just([False] * num_fragments),
    )
    top = draw(st.integers(1, 6))
    fragment_size = draw(st.sampled_from([16384.0, 1500.7]))
    pairs = st.tuples(
        st.integers(0, num_hosts - 1), st.integers(0, num_hosts - 1)
    ).filter(lambda pair: pair[0] != pair[1])
    order = draw(st.lists(pairs, min_size=1, max_size=8, unique=True))
    pipes = [
        (uploader, downloader,
         draw(st.integers(1, 40)) * fragment_size + draw(st.floats(0.0, 1000.0)))
        for uploader, downloader in order
    ]
    return dict(
        hosts=[draw(bits) for _ in range(num_hosts)],
        availability=draw(st.lists(st.integers(0, top), min_size=num_fragments,
                                   max_size=num_fragments)),
        pipes=pipes,
        threshold=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        fragment_size=fragment_size,
    )


@given(conversion_passes())
@settings(max_examples=300, deadline=None)
def test_conversion_pass_matches_the_reference_selector(case):
    convert_both(**case)


def test_pipes_sharing_a_downloader():
    received, _, _ = convert_both(
        [[True] * 24, [f % 2 == 0 for f in range(24)], [False] * 24],
        [1 + f % 4 for f in range(24)],
        [(1, 2, 6 * 16384.0), (0, 2, 9 * 16384.0)], threshold=4, seed=5,
    )
    assert [len(picks) for picks in received] == [6, 9]


def test_a_fragment_received_earlier_in_the_pass_is_forwarded():
    """The relay holds nothing when the pass starts: everything it uploads
    it received from the seed's pipe, ahead of its own in pipe order."""
    received, _, _ = convert_both(
        [[True] * 40, [False] * 40, [False] * 40], [1] * 40,
        [(0, 1, 12 * 16384.0), (1, 2, 20 * 16384.0)], threshold=4, seed=9,
    )
    assert len(received[1]) == 12
    assert set(received[1]) == set(received[0])


def test_a_downloader_completed_earlier_in_the_pass_drops_the_surplus():
    received, surpluses, _ = convert_both(
        [[True] * 16, [True] * 16, [f not in (2, 5, 11) for f in range(16)]],
        [2] * 16, [(0, 2, 5 * 16384.0 + 10.0), (1, 2, 4 * 16384.0)],
        threshold=4, seed=4,
    )
    assert sorted(received[0]) == [2, 5, 11]
    assert surpluses[0] == 2 * 16384.0 + 10.0
    assert received[1] == []
    assert surpluses[1] == 0.0


def test_random_first_then_rarest_first():
    """The switch happens inside one pipe, at the fourth receipt; with a
    non-power-of-two fragment size the surplus keeps its rounding."""
    for fragment_size in (16384.0, 1500.7):
        received, _, _ = convert_one(
            [True] * 64, [False] * 64, [1 + f % 3 for f in range(64)],
            threshold=4, draws=10, seed=1, fragment_size=fragment_size, extra=0.3,
        )
        assert len(received) == 10
        assert all(f % 3 == 0 for f in received[4:])


def test_tie_of_one_draws_nothing():
    availability = [5] * 32
    availability[7] = 1
    received, _, state = convert_one(
        [True] * 32, [f < 4 for f in range(32)], availability,
        threshold=4, draws=1, seed=3,
    )
    assert received == [7]
    assert state == np.random.default_rng(3).bit_generator.state


@pytest.mark.parametrize("num_fragments,tier", [(15259, 15259), (600, 5)])
def test_ties_on_each_side_of_the_unpack_crossover(num_fragments, tier):
    """A wide tie at the paper's fragment count is unpacked with numpy; a
    narrow one is walked bit by bit.  Both draw the same fragments."""
    availability = [1 + f // tier for f in range(num_fragments)]
    downloader = [f % tier == 0 for f in range(num_fragments)]
    received, _, _ = convert_one(
        [True] * num_fragments, downloader, availability,
        threshold=0, draws=12, seed=2012,
    )
    wide = tier - 1 > UNPACK_ABOVE
    assert wide == (num_fragments == 15259)
    assert len(received) == 12


def test_pool_emptied_by_random_first_draws_drops_the_surplus():
    uploader = [f in (3, 9) for f in range(16)]
    received, left, _ = convert_one(
        uploader, [False] * 16, [1] * 16, threshold=4, draws=5, seed=7,
    )
    assert sorted(received) == [3, 9]
    assert left == 0.0


def test_completion_keeps_the_surplus():
    downloader = [f not in (2, 5, 11) for f in range(12)]
    received, left, _ = convert_one(
        [True] * 12, downloader, [2] * 12, threshold=4, draws=5, seed=11,
        extra=100.0,
    )
    assert sorted(received) == [2, 5, 11]
    assert left == 2 * 16384.0 + 100.0


@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=200),
       st.integers(0, 2**40), st.data())
@settings(max_examples=200, deadline=None)
def test_rarest_level_matches_a_scan(grains, pool, data):
    """Cumulative sets up to the paper's 128 hosts: the bisection finds
    the first level a linear scan finds."""
    below = []
    for grain in grains:
        below.append((below[-1] if below else 0) | grain)
    below[-1] = (1 << 41) - 1
    pool = pool or 1
    level = data.draw(st.integers(0, len(below) - 1))
    expected = next(c for c in range(level, len(below)) if pool & below[c])
    assert rarest_level(pool, below, level) == expected


# ---------------------------------------------------------------------- #
# the tie draw against numpy's own bounded integers
# ---------------------------------------------------------------------- #
#: Fixed bounds: the two smallest, the paper-scale and the paper's fragment
#: counts, a bound whose draws are rejected about half the time, and the
#: two widest 32-bit ranges.  A draw takes one of these or a uniform bound.
DRAW_BOUNDS = (2, 3, 1200, 15259, 2**31 + 1, 2**32 - 1, 2**32)


def other_draws(rng):
    """Draws that share the generator with the tie draws: a double, a
    no-replacement choice, a shuffle and a 64-bit bounded integer."""
    return (
        rng.random(),
        rng.choice(7, size=4, replace=False).tolist(),
        rng.permutation(9).tolist(),
        int(rng.integers(0, 2**40)),
    )


def plain(state):
    """``bit_generator.state`` with its arrays as lists, so states compare."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
    np.random.SFC64,
])
def test_draw_below_matches_numpys_integers(bit_generator):
    """2 * 10^5 draws per bit generator, 10^6 over the five: each equals a
    twin generator's ``integers(0, k)``, with other draws interleaved on
    both, and the two end in the same state."""
    draws = 200_000
    plan = np.random.default_rng(19)
    picks = plan.integers(0, len(DRAW_BOUNDS) + 1, size=draws).tolist()
    uniform = plan.integers(2, 2**32, size=draws, endpoint=True).tolist()
    bounds = [
        DRAW_BOUNDS[pick] if pick < len(DRAW_BOUNDS) else bound
        for pick, bound in zip(picks, uniform)
    ]
    interleaved = (plan.random(draws) < 0.05).tolist()
    rng = np.random.Generator(bit_generator(2012))
    twin = np.random.Generator(bit_generator(2012))
    interface = rng.bit_generator.ctypes
    next_uint32, state = interface.next_uint32, interface.state
    drawn, expected = [], []
    for k, interleave in zip(bounds, interleaved):
        drawn.append(draw_below(next_uint32, state, k))
        expected.append(int(twin.integers(0, k)))
        if interleave:
            assert other_draws(rng) == other_draws(twin)
    assert set(bounds) >= set(DRAW_BOUNDS)
    differ = np.flatnonzero(np.asarray(drawn) != np.asarray(expected))
    assert not differ.size, f"draw {differ[0]} of {draws} differs (k = {bounds[differ[0]]})"
    assert plain(rng.bit_generator.state) == plain(twin.bit_generator.state)


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
    np.random.SFC64,
])
def test_sample_below_matches_numpys_choice(bit_generator):
    """25,000 samples per bit generator: each equals a twin generator's
    ``choice(k, size=m, replace=False)`` for ``k`` in [1, 130] and ``m`` in
    [1, min(k, 8)], ``k = 1`` and ``m = k`` among them, with other draws
    interleaved on both, and the two end in the same state."""
    samples = 25_000
    plan = np.random.default_rng(23)
    sizes = plan.integers(1, 131, size=samples).tolist()
    fractions = plan.random(samples).tolist()
    cases = [(k, 1 + int(fraction * min(k, 8))) for k, fraction in zip(sizes, fractions)]
    # The corners: one peer, and a sample of the whole population.
    cases[:10] = [(1, 1), (2, 2), (3, 3), (5, 5), (8, 8), (2, 1), (9, 8), (130, 8),
                  (130, 1), (4, 4)]
    interleaved = (plan.random(samples) < 0.05).tolist()
    rng = np.random.Generator(bit_generator(2012))
    twin = np.random.Generator(bit_generator(2012))
    interface = rng.bit_generator.ctypes
    next_uint32, state = interface.next_uint32, interface.state
    for (k, m), interleave in zip(cases, interleaved):
        expected = twin.choice(k, size=m, replace=False).tolist()
        assert sample_below(next_uint32, state, k, m) == expected, (k, m)
        if interleave:
            assert other_draws(rng) == other_draws(twin)
    assert {k for k, _ in cases} == set(range(1, 131))
    assert sum(m == k for k, m in cases) > 100
    assert plain(rng.bit_generator.state) == plain(twin.bit_generator.state)


@given(st.integers(0, 2**700))
@settings(max_examples=200, deadline=None)
def test_set_bits_paths_agree(bits):
    expected = [f for f in range(bits.bit_length()) if bits >> f & 1]
    assert set_bits(bits, 0) == expected
    assert set_bits(bits, bits.bit_count()) == expected
