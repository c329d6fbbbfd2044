"""Ablation (§III-C) — force-directed layout separates the ground truth.

The paper argues, citing Noack (2009), that the success of a Kamada-Kawai
layout in visually separating the ground-truth clusters indicates a
modularity-style clustering will succeed.  This ablation quantifies the visual
separation for both implemented layouts on a measured dataset.
"""

from benchmarks.conftest import ITERATIONS, NUM_FRAGMENTS, SEED, report
from repro.analysis.layout import (
    fruchterman_reingold_layout,
    kamada_kawai_layout,
    layout_cluster_separation,
)
from repro.experiments.datasets import dataset_gt
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.metric import metric_graph
from repro.tomography.pipeline import default_swarm_config


def test_ablation_layout_separation():
    ds = dataset_gt(per_site=8)

    def measure():
        campaign = MeasurementCampaign(
            ds.topology,
            default_swarm_config(NUM_FRAGMENTS),
            hosts=ds.hosts,
            seed=SEED,
        )
        return campaign.run(ITERATIONS)

    record = measure()
    graph = metric_graph(record.aggregate())

    kk = kamada_kawai_layout(graph, seed=1)
    fr = fruchterman_reingold_layout(graph, seed=1)
    kk_sep = layout_cluster_separation(kk, ds.ground_truth)
    fr_sep = layout_cluster_separation(fr, ds.ground_truth)

    report(
        "Ablation — layout cluster separation (G-T)",
        {
            "paper": "KK layout visually separates ground-truth clusters (Figs. 8-12)",
            "Kamada-Kawai inter/intra distance ratio": f"{kk_sep:.2f}",
            "Fruchterman-Reingold inter/intra distance ratio": f"{fr_sep:.2f}",
        },
    )

    # Both layouts place ground-truth clusters clearly apart.
    assert kk_sep > 1.3
    assert fr_sep > 1.1
