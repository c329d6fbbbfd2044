"""Fig. 9 and §IV-C — dataset 'BT': Bordeaux + Toulouse.

Paper: 32+32 nodes.  The ground truth has three clusters (Toulouse, and the
two logical clusters inside Bordeaux); the single-level modularity clustering
finds only the two sites, so the NMI saturates at ≈0.7 instead of 1.
"""

from benchmarks.conftest import ITERATIONS, NUM_FRAGMENTS, SEED, report
from repro.experiments.datasets import dataset_bt
from repro.experiments.runners import run_dataset_clustering


def test_fig9_bt_hierarchical_ground_truth_limits_nmi():
    ds = dataset_bt(per_site=8)
    summary = run_dataset_clustering(
        ds,
        iterations=ITERATIONS,
        num_fragments=NUM_FRAGMENTS,
        seed=SEED,
        track_convergence=True,
    )

    report(
        "Fig. 9 / dataset B-T — two sites, three-way ground truth",
        {
            "hosts": summary["hosts"],
            "ground truth clusters": ds.ground_truth.num_clusters,
            "paper found clusters / NMI": "2 / ~0.7",
            "measured clusters / NMI": f"{summary['found_clusters']} / {summary['measured_nmi']:.3f}",
            "measured NMI per iteration": [round(x, 2) for x in summary["nmi_per_iteration"]],
        },
    )

    # Shape: the method recovers the two sites (or at most adds the Bordeaux
    # split), and because the ground truth is three-way the NMI is clearly
    # below 1 when only two clusters are found, yet far above chance.
    assert ds.ground_truth.num_clusters == 3
    assert summary["found_clusters"] in (2, 3)
    if summary["found_clusters"] == 2:
        assert 0.4 <= summary["measured_nmi"] <= 0.9
    # The recovered clustering never splits a Toulouse node away from its site.
    toulouse = [h for h in ds.hosts if ds.site_of[h] == "toulouse"]
    partition = summary["result"].partition
    assert all(partition.same_cluster(toulouse[0], other) for other in toulouse[1:])
