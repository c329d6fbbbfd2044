"""Ablation (§II-D) — single-run metric vs aggregation over iterations.

The paper's key reliability argument: a single broadcast is too noisy for
stable clustering, but averaging over a few iterations converges to a stable,
correct clustering.  This ablation compares clustering accuracy from a single
run against the aggregate, over several independent repetitions.
"""

import numpy as np

from benchmarks.conftest import NUM_FRAGMENTS, report
from repro.clustering.louvain import louvain
from repro.clustering.nmi import overlapping_nmi
from repro.clustering.partition import Partition
from repro.experiments.datasets import dataset_bgtl
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.metric import aggregate_mean, metric_graph
from repro.tomography.pipeline import default_swarm_config


def _cluster_nmi(matrices, ground_truth, hosts):
    metric = aggregate_mean(matrices)
    graph = metric_graph(metric)
    if graph.total_weight() <= 0:
        return overlapping_nmi(Partition.whole(hosts), ground_truth)
    return overlapping_nmi(louvain(graph).partition, ground_truth)


def run_comparison(repetitions=3, iterations=8):
    ds = dataset_bgtl(per_site=6)
    single_scores, aggregated_scores = [], []
    for rep in range(repetitions):
        campaign = MeasurementCampaign(
            ds.topology,
            default_swarm_config(NUM_FRAGMENTS),
            hosts=ds.hosts,
            seed=100 + rep,
        )
        record = campaign.run(iterations)
        single_scores.append(
            _cluster_nmi(record.matrices[:1], ds.ground_truth, ds.hosts)
        )
        aggregated_scores.append(
            _cluster_nmi(record.matrices, ds.ground_truth, ds.hosts)
        )
    return np.array(single_scores), np.array(aggregated_scores)


def test_ablation_aggregation_beats_single_run():
    single, aggregated = run_comparison()

    report(
        "Ablation — single run vs aggregated metric (B-G-T-L)",
        {
            "paper": "single runs are noisy; aggregation converges to NMI=1",
            "single-run NMI (mean over reps)": f"{single.mean():.3f}",
            "aggregated NMI (mean over reps)": f"{aggregated.mean():.3f}",
            "single-run NMI values": [round(v, 2) for v in single],
            "aggregated NMI values": [round(v, 2) for v in aggregated],
        },
    )

    # Aggregation never hurts and the aggregated clustering is (near) perfect.
    assert aggregated.mean() >= single.mean() - 1e-9
    assert aggregated.mean() >= 0.95
    assert aggregated.min() >= 0.9
