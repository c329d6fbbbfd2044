"""Ablation (§III-D) — modularity (Louvain) vs map equation (Infomap).

Paper: the authors also tried Infomap and found it did not perform as well as
modularity clustering for this problem.  This ablation runs both clusterers on
the same aggregated measurements.
"""

from benchmarks.conftest import ITERATIONS, NUM_FRAGMENTS, SEED, report
from repro.clustering.infomap import infomap
from repro.clustering.louvain import louvain
from repro.clustering.nmi import overlapping_nmi
from repro.experiments.datasets import dataset_bgt
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.metric import metric_graph
from repro.tomography.pipeline import default_swarm_config


def test_ablation_louvain_vs_infomap():
    ds = dataset_bgt(per_site=8)

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

    louvain_partition = louvain(graph).partition
    infomap_partition = infomap(graph)
    louvain_nmi = overlapping_nmi(louvain_partition, ds.ground_truth)
    infomap_nmi = overlapping_nmi(infomap_partition, ds.ground_truth)

    report(
        "Ablation — clustering objective",
        {
            "paper": "modularity preferred; Infomap 'does not perform as well'",
            "Louvain clusters / NMI": f"{louvain_partition.num_clusters} / {louvain_nmi:.3f}",
            "Infomap clusters / NMI": f"{infomap_partition.num_clusters} / {infomap_nmi:.3f}",
        },
    )

    # Modularity clustering recovers the ground truth on this dataset; Infomap
    # must not do better (the paper found it does worse or at best equal).
    assert louvain_nmi >= 0.99
    assert infomap_nmi <= louvain_nmi + 1e-9
