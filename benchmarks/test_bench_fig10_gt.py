"""Fig. 10 and §IV-C — dataset 'GT': Grenoble + Toulouse.

Paper: 32+32 nodes across two sites with flat internal Ethernet; the method
identifies the two sites with 100% accuracy within the first 2 iterations.
"""

from benchmarks.conftest import ITERATIONS, NUM_FRAGMENTS, SEED, report
from repro.experiments.datasets import dataset_gt
from repro.experiments.runners import run_dataset_clustering


def test_fig10_gt_two_flat_sites():
    ds = dataset_gt(per_site=8)
    summary = run_dataset_clustering(
        ds,
        iterations=ITERATIONS,
        num_fragments=NUM_FRAGMENTS,
        seed=SEED,
        track_convergence=True,
    )

    report(
        "Fig. 10 / dataset G-T — Grenoble + Toulouse",
        {
            "hosts": summary["hosts"],
            "paper clusters / NMI / iterations": "2 / 1.0 / 2",
            "measured clusters / NMI": f"{summary['found_clusters']} / {summary['measured_nmi']:.3f}",
            "measured NMI per iteration": [round(x, 2) for x in summary["nmi_per_iteration"]],
        },
    )

    assert summary["found_clusters"] == 2
    assert summary["measured_nmi"] >= 0.99
    first_perfect = next(
        i + 1 for i, v in enumerate(summary["nmi_per_iteration"]) if v >= 0.99
    )
    assert first_perfect <= 6
