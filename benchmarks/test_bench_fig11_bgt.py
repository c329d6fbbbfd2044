"""Fig. 11 and §IV-D — dataset 'BGT': Bordeaux + Grenoble + Toulouse.

Paper: 3 × 32 nodes (only well-connected Bordeaux clusters), 30 iterations
run but 2 suffice for perfect accuracy; three clusters identified.
"""

from benchmarks.conftest import ITERATIONS, NUM_FRAGMENTS, SEED, report
from repro.experiments.datasets import dataset_bgt
from repro.experiments.runners import run_dataset_clustering


def test_fig11_bgt_three_sites():
    ds = dataset_bgt(per_site=8)
    summary = run_dataset_clustering(
        ds,
        iterations=ITERATIONS,
        num_fragments=NUM_FRAGMENTS,
        seed=SEED,
        track_convergence=True,
    )

    report(
        "Fig. 11 / dataset B-G-T — three sites",
        {
            "hosts": summary["hosts"],
            "paper clusters / NMI / iterations": "3 / 1.0 / 2",
            "measured clusters / NMI": f"{summary['found_clusters']} / {summary['measured_nmi']:.3f}",
            "measured NMI per iteration": [round(x, 2) for x in summary["nmi_per_iteration"]],
            "measurement time (simulated s)": f"{summary['measurement_time_s']:.1f}",
        },
    )

    assert summary["found_clusters"] == 3
    assert summary["measured_nmi"] >= 0.99
    first_perfect = next(
        i + 1 for i, v in enumerate(summary["nmi_per_iteration"]) if v >= 0.99
    )
    assert first_perfect <= 6
