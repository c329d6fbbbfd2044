"""Torrent (file) metadata: size, fragment granularity, fragment count.

The paper broadcasts a 239 MB file split into 15 259 fragments of 16 384
bytes.  The reproduction keeps the 16 KiB fragment size but lets experiments
scale the fragment count down so that many measurement iterations stay cheap
on a laptop-scale simulator; the metric only depends on the *relative*
per-edge fragment counts, which are invariant under that scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fragment (piece) size used by the instrumented client, in bytes.
FRAGMENT_SIZE = 16_384

#: Number of fragments reported by the paper for its 239 MB broadcast file.
PAPER_FRAGMENT_COUNT = 15_259

#: Total broadcast file size implied by the paper's fragment count (bytes).
PAPER_FILE_SIZE = PAPER_FRAGMENT_COUNT * FRAGMENT_SIZE


@dataclass(frozen=True)
class TorrentMeta:
    """Metadata of the file being broadcast.

    Attributes
    ----------
    num_fragments:
        Number of 16 KiB fragments (pieces).
    fragment_size:
        Fragment size in bytes.
    name:
        Human-readable label used in experiment records.
    """

    num_fragments: int
    fragment_size: int = FRAGMENT_SIZE
    name: str = "broadcast-file"

    def __post_init__(self) -> None:
        if self.num_fragments <= 0:
            raise ValueError(f"num_fragments must be positive, got {self.num_fragments}")
        if self.fragment_size <= 0:
            raise ValueError(f"fragment_size must be positive, got {self.fragment_size}")

    @property
    def size(self) -> int:
        """Total file size in bytes."""
        return self.num_fragments * self.fragment_size

    @classmethod
    def scaled(cls, num_fragments: int, name: str = "scaled-broadcast") -> "TorrentMeta":
        """A scaled-down file keeping the 16 KiB fragment size (for fast experiments)."""
        return cls(num_fragments=num_fragments, name=name)
