"""Unit tests for per-peer choking state."""

import pytest

from repro.bittorrent.peer import PeerState


class TestReciprocation:
    def test_credit_and_ranking(self):
        peer = PeerState("p")
        peer.credit_download("x", 100.0)
        peer.credit_download("y", 300.0)
        peer.credit_download("x", 50.0)
        assert peer.reciprocation_ranking() == ["y", "x"]

    def test_reset_round_clears_counters(self):
        peer = PeerState("p")
        peer.credit_download("x", 10.0)
        peer.reset_round()
        assert peer.reciprocation_ranking() == []
        assert peer.downloaded_this_round == {}

    def test_negative_credit_rejected(self):
        peer = PeerState("p")
        with pytest.raises(ValueError):
            peer.credit_download("x", -1.0)

    def test_ties_break_deterministically(self):
        peer = PeerState("p")
        peer.credit_download("b", 10.0)
        peer.credit_download("a", 10.0)
        assert peer.reciprocation_ranking() == ["a", "b"]
