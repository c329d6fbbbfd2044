"""Seed derivation: one experiment seed, one generator per labelled stream.

A seed is a plain ``int``.  Every stochastic component in the reproduction
(BitTorrent peer selection, choking and piece selection, background tenants,
fault injectors, generated topologies, the pairwise baseline's background
pairs) draws from its own NumPy generator, built where it is needed as
``numpy.random.default_rng(derive_seed(seed, *labels))`` — broadcast ``i``
of a campaign, for instance, draws from ``(seed, "broadcast", i)``.  This
gives two properties the paper's methodology needs:

* *independent iterations* — each BitTorrent broadcast iteration uses a fresh
  sub-stream, so single-run variance (Fig. 5) is meaningful;
* *reproducibility* — the whole experiment replays bit-for-bit from one seed,
  which is what lets the test-suite assert on clustering outcomes.
"""

from __future__ import annotations

import hashlib


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a 63-bit child seed from ``base_seed`` and a label path.

    The derivation hashes the textual representation of the labels with
    SHA-256, so streams are stable across Python versions and insensitive to
    dictionary ordering.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(repr(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") & ((1 << 63) - 1)
