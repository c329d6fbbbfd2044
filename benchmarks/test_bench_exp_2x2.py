"""§IV-B1 — the 2×2-node experiment.

Paper: with only 2 Bordeplage + 2 Borderline nodes the 1 GbE inter-switch link
is not a bottleneck, the measured metrics are similar for all links, and the
method correctly identifies a single logical cluster containing all four
nodes.
"""

import numpy as np

from benchmarks.conftest import SEED, report
from repro.experiments.datasets import dataset_2x2
from repro.experiments.runners import run_dataset_clustering


def test_2x2_nodes_form_a_single_logical_cluster():
    ds = dataset_2x2()
    summary = run_dataset_clustering(
        ds,
        iterations=12,
        num_fragments=500,
        seed=SEED,
        track_convergence=True,
    )
    metric = summary["result"].metric
    weights = metric.weights[np.triu_indices(len(metric.labels), k=1)]

    report(
        "§IV-B1 — 2x2 experiment",
        {
            "paper": "similar metrics on all links; one logical cluster",
            "measured clusters": summary["found_clusters"],
            "measured NMI": f"{summary['measured_nmi']:.2f}",
            "edge weight spread (max/min)": f"{weights.max() / max(weights.min(), 1e-9):.2f}",
        },
    )

    assert summary["found_clusters"] == 1
    assert summary["measured_nmi"] >= 0.99
    # All six edges carried traffic and none is an order of magnitude heavier.
    assert np.all(weights > 0)
    assert weights.max() / weights.min() < 10.0
