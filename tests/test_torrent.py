"""Unit tests for torrent metadata."""

import pytest

from repro.bittorrent.torrent import (
    FRAGMENT_SIZE,
    PAPER_FILE_SIZE,
    PAPER_FRAGMENT_COUNT,
    TorrentMeta,
)


class TestTorrentMeta:
    def test_paper_default_matches_reported_fragment_count(self):
        torrent = TorrentMeta(num_fragments=PAPER_FRAGMENT_COUNT)
        assert torrent.num_fragments == 15_259
        assert torrent.fragment_size == 16_384
        # 15 259 fragments of 16 KiB is the paper's "239 MB" file.
        assert torrent.size == PAPER_FILE_SIZE

    def test_scaled_keeps_fragment_size(self):
        torrent = TorrentMeta.scaled(500)
        assert torrent.num_fragments == 500
        assert torrent.fragment_size == FRAGMENT_SIZE

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TorrentMeta(num_fragments=0)
        with pytest.raises(ValueError):
            TorrentMeta(num_fragments=10, fragment_size=0)

    def test_paper_constants_consistent(self):
        assert PAPER_FILE_SIZE == PAPER_FRAGMENT_COUNT * FRAGMENT_SIZE
