"""Extension (§IV-C discussion, §V future work) — hierarchical clustering.

The paper's B-T dataset shows the limit of a single-level clustering: when the
ground truth is hierarchical (sites containing bottleneck-separated clusters),
one partition cannot express both levels, so the NMI saturates below 1; the
paper proposes multi-level clustering as future work.

At the reproduction's reduced scale the B-T measurements do not retain the
weak intra-Bordeaux second level (see EXPERIMENTS.md), so this benchmark uses
the purpose-built ``NESTED`` dataset: a two-level network where a single-level
clustering recovers only the coarse split while the recursive-Louvain
extension recovers both levels of the ground truth from the same measurements.
"""

from benchmarks.conftest import ITERATIONS, NUM_FRAGMENTS, SEED, report
from repro.clustering.hierarchical import recursive_louvain
from repro.clustering.louvain import louvain
from repro.clustering.nmi import overlapping_nmi
from repro.experiments.datasets import dataset_nested, nested_coarse_ground_truth
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.metric import metric_graph
from repro.tomography.pipeline import default_swarm_config


def test_hierarchical_clustering_recovers_both_levels():
    ds = dataset_nested()
    fine_truth = ds.ground_truth
    coarse_truth = nested_coarse_ground_truth(ds)

    def measure():
        campaign = MeasurementCampaign(
            ds.topology,
            default_swarm_config(NUM_FRAGMENTS),
            hosts=ds.hosts,
            seed=SEED,
            rotate_root=True,
        )
        return campaign.run(ITERATIONS)

    record = measure()
    graph = metric_graph(record.aggregate())

    single_level = louvain(graph).partition
    single_vs_fine = overlapping_nmi(single_level, fine_truth)
    single_vs_coarse = overlapping_nmi(single_level, coarse_truth)

    hierarchy = recursive_louvain(graph, min_cluster_size=3, min_split_modularity=0.02)
    leaves = hierarchy.flatten()
    _, best_vs_fine = hierarchy.best_match(fine_truth)
    _, best_vs_coarse = hierarchy.best_match(coarse_truth)

    report(
        "Extension — hierarchical clustering on a two-level network",
        {
            "paper": "single-level clustering caps at NMI≈0.7 on hierarchical ground "
                     "truth (B-T); multi-level clustering named as future work (§V)",
            "single-level clusters": single_level.num_clusters,
            "single-level NMI vs coarse / fine truth": f"{single_vs_coarse:.2f} / {single_vs_fine:.2f}",
            "hierarchy leaf clusters": leaves.num_clusters,
            "hierarchy best-level NMI vs coarse / fine truth": f"{best_vs_coarse:.2f} / {best_vs_fine:.2f}",
            "hierarchy outline": "\n" + hierarchy.describe(),
        },
    )

    # The single level reproduces the B-T failure mode: it matches the coarse
    # split but cannot express the fine one.
    assert single_level.num_clusters == 2
    assert single_vs_coarse >= 0.99
    assert single_vs_fine < 0.9
    # The hierarchical extension recovers both levels from the same data.
    assert best_vs_coarse >= 0.99
    assert best_vs_fine >= 0.99
    assert leaves.num_clusters == 3
