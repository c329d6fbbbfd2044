"""Fault-injection benchmarks: tomography campaigns under injected failure.

Times the fault-injection scenario families end to end and records the
fault metadata (injector counts, failure intensity, detection verdict) in
``benchmark.extra_info`` so BENCH rows describe the failures each number
was measured under.  Three properties are asserted:

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


def _record(benchmark, summary):
    benchmark.extra_info["faults"] = summary["faults"]
    benchmark.extra_info["fault_injectors"] = summary["fault_injectors"]
    benchmark.extra_info["fault_intensity"] = summary["fault_intensity"]
    benchmark.extra_info["detected"] = summary["detected"]
    if summary["time_to_detect_s"] is not None:
        benchmark.extra_info["time_to_detect_s"] = summary["time_to_detect_s"]
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


def test_bench_fault_blackout_detection(bench_once, benchmark):
    """The headline metric: time to detect a failed bottleneck link."""
    summary = bench_once(_study, "blackout", 0.6)
    _record(benchmark, summary)
    assert summary["detected"], summary
    assert summary["time_to_detect_s"] > 0
    assert summary["iterations_to_detect"] >= 1


def test_bench_fault_chaos_recovery(bench_once, benchmark):
    summary = bench_once(_study, "chaos", 0.75)
    _record(benchmark, summary)
    assert summary["recovered"], summary["measured_nmi"]
    assert summary["fault_injectors"] == 4


def test_bench_fault_empty_plan_overhead(bench_once, benchmark):
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

    plain, empty = bench_once(_paired_campaigns)
    benchmark.extra_info["faults"] = "none"
    benchmark.extra_info["fault_injectors"] = 0
    identical = all(
        np.array_equal(a.fragments.counts, b.fragments.counts)
        and a.duration == b.duration
        for a, b in zip(plain.results, empty.results)
    )
    report(
        "faults none (empty-plan overhead)",
        {
            "campaigns timed": "plain + faults='none' back to back",
            "bit-identical": identical,
        },
    )
    assert identical
    assert not empty.workload_stats


def _record_localization(benchmark, summary):
    benchmark.extra_info["localization_status"] = summary["localization_status"]
    benchmark.extra_info["localized_link"] = summary["localized_link"]
    if summary["localization_rank"] is not None:
        benchmark.extra_info["localization_rank"] = summary["localization_rank"]
    if summary["time_to_localize_s"] is not None:
        benchmark.extra_info["time_to_localize_s"] = summary["time_to_localize_s"]


def test_bench_fault_localization(bench_once, benchmark):
    """The second headline metric: time to *localize* the failed link.

    Runs the LINK-BLACKOUT scenario (Bordeaux substrate with per-cluster
    uplinks, persistent bottleneck blackout) and records the boolean-
    tomography verdict next to the detection one.
    """
    from repro.scenarios import get_scenario

    summary = bench_once(
        lambda: get_scenario("LINK-BLACKOUT").run(
            iterations=max(ITERATIONS // 2, 5),
            num_fragments=FRAGMENTS,
            seed=SEED,
            per_site=PER_SITE,
        )
    )
    _record(benchmark, summary)
    _record_localization(benchmark, summary)
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


def test_bench_fault_migrating_selfhealing(bench_once, benchmark):
    """Self-healing under a relocating failure: reroute + re-pin per
    epoch, re-detect and re-localize each victim."""
    from repro.scenarios import get_scenario

    # Pinned at the scenario's own scale (240 fragments): the healed
    # epoch's residual slowdown rides the backup-link penalty, and at
    # higher fragment counts it dips under the divergence ratio — the
    # failure becomes *invisible* because the healing worked.
    summary = bench_once(
        lambda: get_scenario("MIGRATING-BOTTLENECK").run(
            iterations=6,
            num_fragments=240,
            seed=SEED,
            per_site=PER_SITE,
        )
    )
    _record(benchmark, summary)
    _record_localization(benchmark, summary)
    epochs = summary["epochs"]
    benchmark.extra_info["epochs"] = len(epochs)
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
