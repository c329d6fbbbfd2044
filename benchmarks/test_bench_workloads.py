"""Multi-tenant workload benchmarks: interference campaigns end to end.

Runs the interference scenario families (concurrent-broadcast contention,
cross-traffic, churn) through the workload engine and asserts the headline
property of docs/workloads.md: at the families' default intensities the
clustering still recovers the planted two-site structure.  Each test prints
the workload metadata (actor counts, interference intensity, injected
events) beside its NMI.
"""

from benchmarks.conftest import ITERATIONS, SEED, report
from repro.experiments.datasets import dataset
from repro.experiments.runners import run_dataset_clustering
from repro.workloads import (
    churn_workload,
    cross_traffic_workload,
    rival_broadcast_workload,
)

#: Laptop-scale substrate shared by the workload benchmarks: the interference
#: families' default two-site setting.
PER_SITE = 4
FRAGMENTS = 300


def _study(workload, noise_threshold):
    return run_dataset_clustering(
        dataset("G-T", per_site=PER_SITE),
        workload=workload,
        iterations=max(ITERATIONS // 2, 4),
        num_fragments=FRAGMENTS,
        seed=SEED,
        noise_threshold=noise_threshold,
    )


def _report(summary):
    report(
        f"workload {summary['workload']} on {summary['dataset']}",
        {
            "tenants per broadcast": summary["workload_actors"],
            "interference intensity": summary["interference_intensity"],
            "background flows": summary["background_flows"],
            "churn leaves/rejoins": (
                f"{summary['churn_leaves']}/{summary['churn_rejoins']}"
            ),
            "overlapping NMI": f"{summary['measured_nmi']:.3f} "
            f"(threshold {summary['noise_threshold']})",
        },
    )


def test_bench_workload_rival_broadcasts():
    summary = _study(rival_broadcast_workload(rivals=1, stagger=0.3), 0.85)
    _report(summary)
    assert summary["recovered"], summary["measured_nmi"]
    assert summary["rival_broadcasts"] >= summary["iterations"]


def test_bench_workload_cross_traffic():
    summary = _study(
        cross_traffic_workload(intensity=1.0, sources=2, bulk=True), 0.8
    )
    _report(summary)
    assert summary["recovered"], summary["measured_nmi"]
    assert summary["background_flows"] > 0


def test_bench_workload_churn():
    summary = _study(churn_workload(churn_rate=1.0), 0.8)
    _report(summary)
    assert summary["recovered"], summary["measured_nmi"]
    assert summary["churn_leaves"] > 0
