"""Unit tests for the tit-for-tat choker."""

import numpy as np
import pytest

from repro.bittorrent.choking import DEFAULT_UPLOAD_SLOTS, ChokingPolicy
from repro.bittorrent.peer import PeerState


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
        chosen = policy.rechoke(PeerState("up"), [], True, 0, np.random.default_rng(0))
        assert chosen == set()

    def test_slots_limit_is_respected(self):
        policy = ChokingPolicy(upload_slots=4)
        interested = [f"p{i}" for i in range(10)]
        chosen = policy.rechoke(
            PeerState("up"), interested, True, 0, np.random.default_rng(0)
        )
        assert len(chosen) == 4
        assert chosen <= set(interested)

    def test_fewer_candidates_than_slots(self):
        policy = ChokingPolicy(upload_slots=4)
        chosen = policy.rechoke(
            PeerState("up"), ["a", "b"], True, 0, np.random.default_rng(0)
        )
        assert chosen == {"a", "b"}

    def test_leecher_reciprocates_fastest_uploaders(self):
        policy = ChokingPolicy(upload_slots=3, optimistic_every=100)
        interested = ["fast", "medium", "slow", "other"]
        peer = PeerState("up")
        peer.credit_download("fast", 1000.0)
        peer.credit_download("medium", 500.0)
        peer.credit_download("slow", 10.0)
        peer.optimistic = "other"
        chosen = policy.rechoke(peer, interested, False, 1, np.random.default_rng(0))
        # Two regular slots go to the fastest uploaders, one optimistic slot.
        assert {"fast", "medium"} <= chosen
        assert len(chosen) == 3

    def test_seed_rotates_randomly(self):
        policy = ChokingPolicy(upload_slots=2)
        interested = [f"p{i}" for i in range(12)]
        peer = PeerState("up")
        rng = np.random.default_rng(7)
        picks = [
            frozenset(policy.rechoke(peer, interested, True, r, rng)) for r in range(8)
        ]
        assert len(set(picks)) > 1  # rotation: not always the same pair

    def test_first_round_without_history_is_random_but_valid(self):
        policy = ChokingPolicy(upload_slots=4)
        interested = [f"p{i}" for i in range(8)]
        chosen = policy.rechoke(
            PeerState("up"), interested, False, 0, np.random.default_rng(3)
        )
        assert len(chosen) == 4

    def test_optimistic_slot_rotation_changes_target(self):
        policy = ChokingPolicy(upload_slots=2, optimistic_every=1)
        interested = [f"p{i}" for i in range(10)]
        peer = PeerState("up")
        peer.credit_download("p0", 100.0)
        rng = np.random.default_rng(11)
        optimistic_targets = set()
        for round_index in range(12):
            policy.rechoke(peer, interested, False, round_index, rng)
            optimistic_targets.add(peer.optimistic)
        assert len(optimistic_targets) > 1

    def test_determinism_given_same_rng_state(self):
        policy = ChokingPolicy()
        interested = [f"p{i}" for i in range(9)]
        chosen_a = policy.rechoke(
            PeerState("a"), interested, True, 0, np.random.default_rng(42)
        )
        chosen_b = policy.rechoke(
            PeerState("b"), interested, True, 0, np.random.default_rng(42)
        )
        assert chosen_a == chosen_b

    def test_a_finished_peer_rotates_randomly_despite_its_credits(self):
        # A leecher that completes mid-round still holds the round's
        # credits at the next rechoke: it seeds, so they must not steer it.
        policy = ChokingPolicy(upload_slots=3)
        interested = [f"p{i}" for i in range(8)]
        finished = PeerState("up")
        finished.credit_download("p6", 1000.0)
        finished.credit_download("p7", 500.0)
        finished.optimistic = "p5"
        chosen = policy.rechoke(finished, interested, True, 1, np.random.default_rng(3))
        assert chosen == policy.rechoke(
            PeerState("up"), interested, True, 1, np.random.default_rng(3)
        )
        assert not {"p6", "p7"} <= chosen
        assert finished.optimistic is None
