"""Unit tests for the tracker's bounded random peer sets (by host index)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bittorrent.tracker import DEFAULT_MAX_PEERS, Tracker


class TestTracker:
    def test_small_swarm_is_fully_connected(self, rng):
        mask = Tracker().build_connections(10, rng)
        assert np.array_equal(mask, ~np.eye(10, dtype=bool))

    def test_peer_set_limit_bounds_knowledge_but_symmetry_holds(self, rng):
        mask = Tracker(max_peers=5).build_connections(30, rng)
        assert np.array_equal(mask, mask.T)
        assert not mask.diagonal().any()
        degrees = mask.sum(axis=1)
        # With max_peers=5 in a 30-node swarm, nobody is connected to everyone,
        # but everyone has at least their own 5 picks.
        assert (degrees < 29).all()
        assert (degrees >= 5).all()

    def test_default_limit_is_35_like_the_reference_client(self):
        assert DEFAULT_MAX_PEERS == 35
        assert Tracker().max_peers == 35

    def test_large_swarm_is_not_complete_graph(self, rng):
        n = 80
        mask = Tracker().build_connections(n, rng)
        density = mask.sum() / (n * (n - 1))
        assert 0.3 < density < 1.0

    def test_too_small_swarm_rejected(self, rng):
        with pytest.raises(ValueError):
            Tracker().build_connections(1, rng)

    def test_invalid_max_peers_rejected(self):
        with pytest.raises(ValueError):
            Tracker(max_peers=0)

    def test_determinism_with_same_seed(self):
        tracker = Tracker(max_peers=10)
        a = tracker.build_connections(40, np.random.default_rng(9))
        b = tracker.build_connections(40, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_each_peer_draws_from_the_others_in_index_order(self):
        # Peer i's draw picks positions among the other n - 1 peers in index
        # order, one rng.choice per peer in index order.
        n, max_peers = 7, 2
        mask = Tracker(max_peers=max_peers).build_connections(n, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        known = np.zeros((n, n), dtype=bool)
        for i in range(n):
            others = [j for j in range(n) if j != i]
            for pick in rng.choice(n - 1, size=max_peers, replace=False):
                known[i, others[pick]] = True
        assert np.array_equal(mask, known | known.T)

    def test_announce_draws_from_the_present_peers(self):
        tracker = Tracker(max_peers=3)
        present = np.array([0, 2, 5, 6, 8])
        picks = tracker.announce(present, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        assert picks.tolist() == present[rng.choice(5, size=3, replace=False)].tolist()
        assert len(set(picks.tolist())) == 3

    def test_announce_to_an_empty_swarm_draws_nothing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        picks = Tracker().announce(np.array([], dtype=np.int64), rng)
        assert picks.size == 0
        assert rng.bit_generator.state == state


@given(
    n=st.integers(min_value=2, max_value=60),
    max_peers=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_connection_graph_is_connected_enough_for_broadcast(n, max_peers, seed):
    """Every peer must have at least one connection (otherwise it could never download)."""
    mask = Tracker(max_peers=max_peers).build_connections(n, np.random.default_rng(seed))
    assert mask.shape == (n, n)
    assert (mask.sum(axis=1) >= 1).all()
    assert not mask.diagonal().any()
