"""Fragment counters: the paper's measurement instrumentation.

The instrumented client increments, at the reception of each fragment, a
counter associated with the sending peer.  Aggregated over all peers this is
a directed matrix ``counts[receiver, sender]``; the paper's per-edge metric
``w(e)`` is its symmetrisation (Eq. 1), averaged over iterations (Eq. 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np


class FragmentMatrix:
    """Directed fragment-exchange counts for one (or several) broadcasts.

    ``counts[i, j]`` is the number of fragments host ``labels[i]`` *received
    directly from* host ``labels[j]``.
    """

    def __init__(self, labels: Sequence[str], counts: Optional[np.ndarray] = None) -> None:
        labels = list(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if len(labels) < 2:
            raise ValueError("at least two hosts are required")
        self.labels: List[str] = labels
        self.index: Dict[str, int] = {name: i for i, name in enumerate(labels)}
        n = len(labels)
        if counts is None:
            self.counts = np.zeros((n, n), dtype=float)
        else:
            counts = np.asarray(counts, dtype=float)
            if counts.shape != (n, n):
                raise ValueError(f"counts must be {n}x{n}, got {counts.shape}")
            if (counts < 0).any():
                raise ValueError("fragment counts must be non-negative")
            self.counts = counts.copy()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, receiver: str, sender: str, fragments: float = 1.0) -> None:
        """Record ``fragments`` fragments received by ``receiver`` from ``sender``."""
        if fragments < 0:
            raise ValueError("fragment count must be non-negative")
        if receiver == sender:
            raise ValueError("a peer cannot receive fragments from itself")
        self.counts[self.index[receiver], self.index[sender]] += fragments

    def received_by(self, receiver: str) -> Dict[str, float]:
        """Fragments ``receiver`` got, keyed by sending peer (non-zero only)."""
        row = self.counts[self.index[receiver]]
        return {
            self.labels[j]: float(row[j]) for j in np.flatnonzero(row) if j != self.index[receiver]
        }

    def total_fragments(self) -> float:
        """Total fragments received across all peers (the paper's 15 259 × peers)."""
        return float(self.counts.sum())

    # ------------------------------------------------------------------ #
    # symmetrisation (Eq. 1)
    # ------------------------------------------------------------------ #
    def symmetric_weights(self) -> np.ndarray:
        """Per-edge weights ``w(e) = v1→v2 + v2→v1`` as a symmetric matrix."""
        return self.counts + self.counts.T

    def edge_weight(self, u: str, v: str) -> float:
        """``w((u, v))`` for a single edge of this broadcast."""
        i, j = self.index[u], self.index[v]
        return float(self.counts[i, j] + self.counts[j, i])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FragmentMatrix(hosts={len(self.labels)}, fragments={self.total_fragments():.0f})"
