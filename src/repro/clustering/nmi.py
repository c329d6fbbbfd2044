"""Normalized Mutual Information between clusterings.

Two variants are provided:

* :func:`normalized_mutual_information` — the classical partition NMI based on
  the confusion matrix, normalised by the arithmetic mean of the entropies;
* :func:`overlapping_nmi` — the normalised-variation-of-information measure of
  Lancichinetti, Fortunato & Kertész (2009), which the paper uses for its
  Fig. 13 scores because it also extends to overlapping covers.

Both return values in ``[0, 1]`` with 1 meaning identical clusterings; for
partitions of the same node set they agree on the extremes, and the
test-suite checks their mutual consistency.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Sequence, Set

import numpy as np

from repro.clustering.partition import Partition

Node = Hashable


def _check_same_nodes(found: Partition, truth: Partition) -> List[Node]:
    nodes_a = found.nodes()
    nodes_b = truth.nodes()
    if nodes_a != nodes_b:
        only_a = sorted(map(repr, nodes_a - nodes_b))[:3]
        only_b = sorted(map(repr, nodes_b - nodes_a))[:3]
        raise ValueError(
            "partitions cover different node sets "
            f"(only in first: {only_a}, only in second: {only_b})"
        )
    return sorted(nodes_a, key=repr)


# ---------------------------------------------------------------------- #
# classical partition NMI
# ---------------------------------------------------------------------- #
def normalized_mutual_information(found: Partition, truth: Partition) -> float:
    """Classical NMI between two partitions of the same node set.

    Normalisation is by the arithmetic mean of the two entropies.  When both
    partitions are the trivial single cluster (zero entropy), they are
    identical and the NMI is defined as 1; if exactly one has zero entropy the
    NMI is 0.
    """
    nodes = _check_same_nodes(found, truth)
    n = len(nodes)
    labels_a = np.array([found.cluster_index(node) for node in nodes])
    labels_b = np.array([truth.cluster_index(node) for node in nodes])

    contingency = np.zeros((found.num_clusters, truth.num_clusters), dtype=float)
    for a, b in zip(labels_a, labels_b):
        contingency[a, b] += 1.0
    joint = contingency / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)

    h_a = -sum(_plogp(p) for p in pa)
    h_b = -sum(_plogp(p) for p in pb)

    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0

    mutual = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                mutual += joint[i, j] * math.log2(joint[i, j] / (pa[i] * pb[j]))
    value = 2.0 * mutual / (h_a + h_b)
    return float(min(max(value, 0.0), 1.0))


def _plogp(p: float) -> float:
    if p <= 0.0:
        return 0.0
    return p * math.log2(p)


# ---------------------------------------------------------------------- #
# overlapping NMI (Lancichinetti / Fortunato / Kertész 2009)
# ---------------------------------------------------------------------- #
def _h(p: float) -> float:
    """Entropy contribution ``-p log2 p`` (0 when ``p`` is 0)."""
    if p <= 0.0:
        return 0.0
    return -p * math.log2(p)


def _cluster_entropy(size: int, n: int) -> float:
    p1 = size / n
    return _h(p1) + _h(1.0 - p1)


def _conditional_entropy(x: Set[Node], y: Set[Node], universe_size: int) -> float:
    """H(X_k | Y_l) for two binary membership indicators, or ``inf`` if inadmissible."""
    n = universe_size
    a = len(x & y)
    b = len(x - y)
    c = len(y - x)
    d = n - a - b - c
    p11, p10, p01, p00 = a / n, b / n, c / n, d / n
    # Admissibility condition of Lancichinetti et al. (appendix B): the joint
    # distribution must look more like "equal" than "complementary" clusters.
    if _h(p11) + _h(p00) < _h(p10) + _h(p01):
        return float("inf")
    joint = _h(p11) + _h(p10) + _h(p01) + _h(p00)
    h_y = _h((a + c) / n) + _h((b + d) / n)
    return joint - h_y


def _normalized_conditional(xs: Sequence[Set[Node]], ys: Sequence[Set[Node]], n: int) -> float:
    """Average over clusters of X of ``H(X_k | Y) / H(X_k)``."""
    terms: List[float] = []
    for x in xs:
        h_x = _cluster_entropy(len(x), n)
        best = min(
            (_conditional_entropy(x, y, n) for y in ys),
            default=float("inf"),
        )
        if not math.isfinite(best):
            best = h_x
        if h_x <= 0.0:
            # A cluster covering every node (or none) carries no information.
            terms.append(0.0)
        else:
            terms.append(min(max(best / h_x, 0.0), 1.0))
    if not terms:
        return 0.0
    return sum(terms) / len(terms)


def overlapping_nmi(found: Partition, truth: Partition) -> float:
    """Overlapping NMI of Lancichinetti et al. between two clusterings.

    Implemented for :class:`Partition` inputs (the paper restricts itself to
    non-overlapping ground truths) but the formulation itself is the cover
    version, so extending to overlapping covers only requires accepting raw
    cluster lists.
    """
    nodes = _check_same_nodes(found, truth)
    n = len(nodes)
    xs = [set(c) for c in found.clusters]
    ys = [set(c) for c in truth.clusters]
    h_x_given_y = _normalized_conditional(xs, ys, n)
    h_y_given_x = _normalized_conditional(ys, xs, n)
    value = 1.0 - 0.5 * (h_x_given_y + h_y_given_x)
    return float(min(max(value, 0.0), 1.0))
