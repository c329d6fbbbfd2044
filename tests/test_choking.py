"""Unit tests for the tit-for-tat choker.

A peer is its host index: the choker reads the interested candidates in
name order, the peer's credit row by host index and its optimistic target
(-1 for none), and returns the chosen indices with the new target.

:func:`reference_rechoke` is the choker with numpy's own draws
(``rng.choice`` and ``rng.integers``), kept as the reference the way
``PieceSelector`` is kept for ``convert_pass``: the property test below
asserts that :meth:`ChokingPolicy.rechoke`, which replays those draws on
the bit generator, returns the same answer and leaves the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bittorrent.choking import DEFAULT_UPLOAD_SLOTS, ChokingPolicy

NO_CREDITS = [0.0] * 12


def reference_rechoke(policy, candidates, credits, optimistic, seeding, round_index, rng):
    """``ChokingPolicy.rechoke`` drawing through ``rng.choice`` and
    ``rng.integers``."""
    if not candidates:
        return [], -1
    slots = min(policy.upload_slots, len(candidates))

    if seeding or not any(credits):
        picks = rng.choice(len(candidates), size=slots, replace=False)
        return [candidates[i] for i in picks.tolist()], -1

    ranking = sorted(
        (p for p in candidates if credits[p] > 0), key=lambda p: -credits[p]
    )
    chosen = ranking[: slots - 1]

    if (
        round_index % policy.optimistic_every == 0
        or optimistic not in candidates
        or optimistic in chosen
    ):
        pool = [p for p in candidates if p not in chosen]
        optimistic = pool[int(rng.integers(0, len(pool)))]
    chosen.append(optimistic)

    while len(chosen) < slots:
        pool = [p for p in candidates if p not in chosen]
        chosen.append(pool[int(rng.integers(0, len(pool)))])
    return chosen, optimistic


#: Hosts of the property test's swarm.
HOSTS = 64


@st.composite
def rechoke_inputs(draw):
    """One peer's rechoke: 0-40 of 64 hosts as name-ordered candidates, a
    credit row that is all zero, tied, sparse or credits only peers that
    are not candidates, and an optimistic target of -1, a candidate or a
    non-candidate."""
    name_order = draw(st.permutations(range(HOSTS)))
    members = set(draw(st.lists(st.integers(0, HOSTS - 1), max_size=40, unique=True)))
    candidates = [host for host in name_order if host in members]
    outsiders = [host for host in range(HOSTS) if host not in members]
    credits = [0.0] * HOSTS
    kind = draw(st.sampled_from(("zero", "tied", "sparse", "outsiders")))
    if kind == "tied":
        for host in draw(st.lists(st.integers(0, HOSTS - 1), max_size=12, unique=True)):
            credits[host] = draw(st.sampled_from((16384.0, 32768.0)))
    elif kind == "sparse":
        for host in draw(st.lists(st.integers(0, HOSTS - 1), max_size=6, unique=True)):
            credits[host] = draw(st.floats(1e-3, 1e9))
    elif kind == "outsiders" and outsiders:
        for host in draw(st.lists(st.sampled_from(outsiders), min_size=1, max_size=5,
                                  unique=True)):
            credits[host] = draw(st.floats(1.0, 1e6))
    targets = [-1]
    if candidates:
        targets.append(draw(st.sampled_from(candidates)))
    if outsiders:
        targets.append(draw(st.sampled_from(outsiders)))
    return candidates, credits, draw(st.sampled_from(targets))


@given(
    inputs=rechoke_inputs(),
    seeding=st.booleans(),
    round_index=st.integers(0, 12),
    slots=st.integers(1, 5),
    optimistic_every=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=400, deadline=None)
def test_rechoke_matches_the_reference_choker(
    inputs, seeding, round_index, slots, optimistic_every, seed
):
    candidates, credits, optimistic = inputs
    policy = ChokingPolicy(upload_slots=slots, optimistic_every=optimistic_every)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    answer = policy.rechoke(list(candidates), credits, optimistic, seeding, round_index, rng)
    expected = reference_rechoke(
        policy, list(candidates), credits, optimistic, seeding, round_index, twin
    )
    assert answer == expected
    assert rng.bit_generator.state == twin.bit_generator.state


def credit_row(credits):
    """A 12-host credit row from ``{host index: bytes}``."""
    row = list(NO_CREDITS)
    for host, amount in credits.items():
        row[host] = amount
    return row


class TestChokingPolicy:
    def test_defaults_match_reference_client(self):
        policy = ChokingPolicy()
        assert policy.upload_slots == DEFAULT_UPLOAD_SLOTS == 4
        assert policy.optimistic_every == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ChokingPolicy(upload_slots=0)
        with pytest.raises(ValueError):
            ChokingPolicy(optimistic_every=0)

    def test_no_interested_peers_means_no_unchokes(self):
        policy = ChokingPolicy()
        chosen, optimistic = policy.rechoke(
            [], credit_row({1: 5.0}), 1, False, 0, np.random.default_rng(0)
        )
        assert chosen == [] and optimistic == -1

    def test_slots_limit_is_respected(self):
        policy = ChokingPolicy(upload_slots=4)
        interested = list(range(10))
        chosen, _ = policy.rechoke(
            interested, NO_CREDITS, -1, True, 0, np.random.default_rng(0)
        )
        assert len(set(chosen)) == len(chosen) == 4
        assert set(chosen) <= set(interested)

    def test_fewer_candidates_than_slots(self):
        policy = ChokingPolicy(upload_slots=4)
        chosen, _ = policy.rechoke([3, 7], NO_CREDITS, -1, True, 0, np.random.default_rng(0))
        assert sorted(chosen) == [3, 7]

    def test_leecher_reciprocates_fastest_uploaders(self):
        policy = ChokingPolicy(upload_slots=3, optimistic_every=100)
        interested = [0, 1, 2, 3]
        credits = credit_row({0: 1000.0, 1: 500.0, 2: 10.0})
        chosen, optimistic = policy.rechoke(
            interested, credits, 3, False, 1, np.random.default_rng(0)
        )
        # Two regular slots go to the fastest uploaders, and the optimistic
        # target is kept between rotations.
        assert chosen == [0, 1, 3]
        assert optimistic == 3

    def test_equal_credits_rank_in_candidate_order(self):
        # Candidates come in name order, which need not be index order: the
        # regular slots go to the first of the tied candidates in that order.
        policy = ChokingPolicy(upload_slots=3, optimistic_every=100)
        candidates = [9, 4, 7, 2]
        credits = credit_row({9: 50.0, 4: 50.0, 7: 50.0, 2: 50.0})
        chosen, _ = policy.rechoke(candidates, credits, 2, False, 1, np.random.default_rng(0))
        assert chosen == [9, 4, 2]
        # A higher credit still outranks candidate order.
        credits[7] = 60.0
        chosen, _ = policy.rechoke(candidates, credits, 2, False, 1, np.random.default_rng(0))
        assert chosen == [7, 9, 2]

    def test_seed_rotates_randomly(self):
        policy = ChokingPolicy(upload_slots=2)
        interested = list(range(12))
        rng = np.random.default_rng(7)
        picks = [
            frozenset(policy.rechoke(interested, NO_CREDITS, -1, True, r, rng)[0])
            for r in range(8)
        ]
        assert len(set(picks)) > 1  # rotation: not always the same pair

    def test_first_round_without_history_is_random_but_valid(self):
        policy = ChokingPolicy(upload_slots=4)
        chosen, optimistic = policy.rechoke(
            list(range(8)), NO_CREDITS, -1, False, 0, np.random.default_rng(3)
        )
        assert len(set(chosen)) == 4
        assert optimistic == -1

    def test_optimistic_slot_rotation_changes_target(self):
        policy = ChokingPolicy(upload_slots=2, optimistic_every=1)
        interested = list(range(10))
        credits = credit_row({0: 100.0})
        rng = np.random.default_rng(11)
        optimistic, targets = -1, set()
        for round_index in range(12):
            chosen, optimistic = policy.rechoke(
                interested, credits, optimistic, False, round_index, rng
            )
            assert chosen[0] == 0 and chosen[1] == optimistic != 0
            targets.add(optimistic)
        assert len(targets) > 1

    def test_a_target_that_lost_interest_is_replaced(self):
        policy = ChokingPolicy(upload_slots=2, optimistic_every=100)
        credits = credit_row({0: 100.0})
        chosen, optimistic = policy.rechoke(
            [0, 2, 3], credits, 5, False, 1, np.random.default_rng(4)
        )
        assert optimistic in (2, 3)
        assert chosen == [0, optimistic]

    def test_determinism_given_same_rng_state(self):
        policy = ChokingPolicy()
        interested = list(range(9))
        answers = [
            policy.rechoke(interested, NO_CREDITS, -1, True, 0, np.random.default_rng(42))
            for _ in range(2)
        ]
        assert answers[0] == answers[1]

    def test_a_finished_peer_rotates_randomly_despite_its_credits(self):
        # A leecher that completes mid-round still holds the round's
        # credits at the next rechoke: it seeds, so they must not steer it.
        policy = ChokingPolicy(upload_slots=3)
        interested = list(range(8))
        credits = credit_row({6: 1000.0, 7: 500.0})
        chosen, optimistic = policy.rechoke(
            interested, credits, 5, True, 1, np.random.default_rng(3)
        )
        assert (chosen, optimistic) == policy.rechoke(
            interested, NO_CREDITS, -1, True, 1, np.random.default_rng(3)
        )
        assert not {6, 7} <= set(chosen)
        assert optimistic == -1

    def test_credits_from_peers_that_are_not_candidates_still_end_the_first_round(self):
        # Any credit in the row is a reciprocation signal, even from a peer
        # that is no longer interested: the choker then draws the optimistic
        # slot and fills the rest at random instead of rotating all slots.
        policy = ChokingPolicy(upload_slots=2, optimistic_every=100)
        credits = credit_row({11: 10.0})
        chosen, optimistic = policy.rechoke(
            [1, 2, 3], credits, -1, False, 1, np.random.default_rng(5)
        )
        assert optimistic == chosen[0] and len(set(chosen)) == 2
