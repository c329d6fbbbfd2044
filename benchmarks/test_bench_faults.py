"""Fault-injection benchmarks: tomography campaigns under injected failure.

Runs the fault-injection scenario families end to end and prints the
fault metadata (injector counts, failure intensity, detection verdict)
beside each verdict.  Three properties are asserted:

* the headline metric exists — a persistent bottleneck blackout is
  *detected* via its duration spike, and ``time_to_detect_s`` is charged;
* the chaos plan (link failures + route flaps + tracker outages + tenant
  cycling) still lets the clustering recover the planted structure;
* the empty plan is free — ``faults="none"`` resolves to the single-tenant
  fast path and reproduces the plain campaign bit for bit (≈0 overhead).
"""

import numpy as np

from benchmarks.conftest import ITERATIONS, SEED, report
from repro.experiments.datasets import dataset
from repro.experiments.runners import run_dataset_clustering
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.pipeline import default_swarm_config

#: Laptop-scale substrate shared by the fault benchmarks (same two-site
#: setting as the interference rows).
PER_SITE = 4
FRAGMENTS = 300


def _study(faults, noise_threshold, **kwargs):
    return run_dataset_clustering(
        dataset("G-T", per_site=PER_SITE),
        faults=faults,
        iterations=max(ITERATIONS // 2, 5),
        num_fragments=FRAGMENTS,
        seed=SEED,
        noise_threshold=noise_threshold,
        **kwargs,
    )


def _report(summary):
    report(
        f"faults {summary['faults']} on {summary['dataset']}",
        {
            "fault injectors": summary["fault_injectors"],
            "failure intensity": summary["fault_intensity"],
            "link failures": summary["link_failures"],
            "detected": (
                f"iteration {summary['detected_iteration']} "
                f"(time to detect {summary['time_to_detect_s']:.3f} s)"
                if summary["detected"] else "no"
            ),
            "overlapping NMI": f"{summary['measured_nmi']:.3f} "
            f"(threshold {summary['noise_threshold']})",
        },
    )


def test_bench_fault_blackout_detection():
    """The headline metric: time to detect a failed bottleneck link."""
    summary = _study("blackout", 0.6)
    _report(summary)
    assert summary["detected"], summary
    assert summary["time_to_detect_s"] > 0
    assert summary["iterations_to_detect"] >= 1


def test_bench_fault_chaos_recovery():
    summary = _study("chaos", 0.75)
    _report(summary)
    assert summary["recovered"], summary["measured_nmi"]
    assert summary["fault_injectors"] == 4


def test_bench_fault_empty_plan_overhead():
    """faults="none" must cost nothing: it resolves to the plain
    single-tenant campaign and reproduces it bit for bit."""

    def _paired_campaigns():
        ds = dataset("G-T", per_site=PER_SITE)
        config = default_swarm_config(FRAGMENTS)
        iterations = max(ITERATIONS // 2, 5)
        plain = MeasurementCampaign(
            ds.topology, config, hosts=ds.hosts, seed=SEED
        ).run(iterations)
        empty = MeasurementCampaign(
            ds.topology, config, hosts=ds.hosts, seed=SEED, faults="none"
        ).run(iterations)
        return plain, empty

    plain, empty = _paired_campaigns()
    identical = all(
        np.array_equal(a.fragments.counts, b.fragments.counts)
        and a.duration == b.duration
        for a, b in zip(plain.results, empty.results)
    )
    report(
        "faults none (empty-plan overhead)",
        {
            "campaigns": "plain + faults='none' back to back",
            "bit-identical": identical,
        },
    )
    assert identical
    assert not empty.workload_stats


def test_bench_fault_localization():
    """The second headline metric: time to *localize* the failed link.

    Runs the LINK-BLACKOUT scenario (Bordeaux substrate with per-cluster
    uplinks, persistent bottleneck blackout) and records the boolean-
    tomography verdict next to the detection one.
    """
    from repro.scenarios import get_scenario

    summary = get_scenario("LINK-BLACKOUT").run(
        iterations=max(ITERATIONS // 2, 5),
        num_fragments=FRAGMENTS,
        seed=SEED,
        per_site=PER_SITE,
    )
    _report(summary)
    report(
        "fault localization (LINK-BLACKOUT)",
        {
            "verdict": f"{summary['localization_status']}: "
                       f"{summary['localized_link']}",
            "true link rank": summary["localization_rank"],
            "time to localize": f"{summary['time_to_localize_s']:.3f} s",
        },
    )
    assert summary["localization_status"] == "named"
    assert summary["localized_link"] == summary["true_link"]
    assert summary["localization_rank"] == 1
    assert summary["time_to_localize_s"] > 0


def test_bench_fault_migrating_selfhealing():
    """Self-healing under a relocating failure: reroute + re-pin per
    epoch, re-detect and re-localize each victim."""
    from repro.scenarios import get_scenario

    # Pinned at the scenario's own scale (240 fragments): the healed
    # epoch's residual slowdown rides the backup-link penalty, and at
    # higher fragment counts it dips under the divergence ratio — the
    # failure becomes *invisible* because the healing worked.
    summary = get_scenario("MIGRATING-BOTTLENECK").run(
        iterations=6,
        num_fragments=240,
        seed=SEED,
        per_site=PER_SITE,
    )
    _report(summary)
    epochs = summary["epochs"]
    report(
        "self-healing migrating bottleneck",
        {
            "epochs": len(epochs),
            "per-epoch verdicts": "; ".join(
                f"e{e['epoch']}: {e.get('localized_link') or e['localization_status']}"
                f" (rank {e.get('localization_rank')})"
                for e in epochs
            ),
            "worst rank": summary["localization_rank"],
        },
    )
    assert len(epochs) == 2
    for epoch in epochs:
        assert epoch["detected"], epoch
        assert epoch["localization_rank"] is not None
        assert epoch["localization_rank"] <= 3, epoch
