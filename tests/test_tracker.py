"""Unit tests for the tracker's bounded random peer sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bittorrent.tracker import DEFAULT_MAX_PEERS, Tracker


class TestTracker:
    def test_small_swarm_is_fully_connected(self, rng):
        tracker = Tracker()
        names = [f"n{i}" for i in range(10)]
        connections = tracker.build_connections(names, rng)
        for name, peers in connections.items():
            assert peers == set(names) - {name}

    def test_peer_set_limit_bounds_knowledge_but_symmetry_holds(self, rng):
        tracker = Tracker(max_peers=5)
        names = [f"n{i}" for i in range(30)]
        connections = tracker.build_connections(names, rng)
        # Connections are symmetric.
        for name, peers in connections.items():
            assert name not in peers
            for other in peers:
                assert name in connections[other]
        # With max_peers=5 in a 30-node swarm, nobody is connected to everyone.
        assert all(len(peers) < len(names) - 1 for peers in connections.values())
        # But everyone has at least their own 5 picks.
        assert all(len(peers) >= 5 for peers in connections.values())

    def test_default_limit_is_35_like_the_reference_client(self):
        assert DEFAULT_MAX_PEERS == 35
        assert Tracker().max_peers == 35

    def test_large_swarm_is_not_complete_graph(self, rng):
        tracker = Tracker()
        names = [f"n{i}" for i in range(80)]
        connections = tracker.build_connections(names, rng)
        edges = sum(len(peers) for peers in connections.values()) / 2
        density = edges / (len(names) * (len(names) - 1) / 2)
        assert density < 1.0
        assert density > 0.3

    def test_duplicate_names_rejected(self, rng):
        tracker = Tracker()
        with pytest.raises(ValueError):
            tracker.build_connections(["a", "a", "b"], rng)

    def test_too_small_swarm_rejected(self, rng):
        tracker = Tracker()
        with pytest.raises(ValueError):
            tracker.build_connections(["only"], rng)

    def test_invalid_max_peers_rejected(self):
        with pytest.raises(ValueError):
            Tracker(max_peers=0)

    def test_determinism_with_same_seed(self):
        tracker = Tracker(max_peers=10)
        names = [f"n{i}" for i in range(40)]
        a = tracker.build_connections(names, np.random.default_rng(9))
        b = tracker.build_connections(names, np.random.default_rng(9))
        assert a == b


@given(
    n=st.integers(min_value=2, max_value=60),
    max_peers=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_connection_graph_is_connected_enough_for_broadcast(n, max_peers, seed):
    """Every peer must have at least one connection (otherwise it could never download)."""
    tracker = Tracker(max_peers=max_peers)
    names = [f"n{i}" for i in range(n)]
    connections = tracker.build_connections(names, np.random.default_rng(seed))
    assert set(connections) == set(names)
    for name, peers in connections.items():
        assert len(peers) >= 1
        assert name not in peers
