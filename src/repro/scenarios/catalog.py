"""The built-in scenario catalogue.

Everything the old hand-written CLI could run is registered here as a
declarative spec — the paper's named datasets (family ``paper``), the
per-figure experiment runners (family ``figure``) — plus the generated
families that go beyond the paper's menu (``fat-tree``,
``random-bottleneck``, ``hetero-uplink``, and the hierarchical ``extension``
setting).  Import side effects populate :mod:`repro.scenarios.registry`,
which imports this module on its first lookup, so any entry point that
touches the registry sees the full catalogue.

A scenario's run settings are the defaults in its functions' signatures:
campaign scenarios take ``run_dataset_clustering``'s (8 iterations of 600
fragments at seed 2012) and their factory's (8 nodes per site, the
laptop-scale value), runner scenarios their runner's.  The paper-scale
settings (32 per site, 15 259 fragments) remain reachable through
overrides.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.visualize import ascii_cluster_table, render_fig4_bars
from repro.experiments.datasets import (
    Dataset,
    bordeaux_split,
    dataset,
    dataset_2x2,
    dataset_b,
    dataset_nested,
)
from repro.experiments.runners import (
    run_baseline_cost,
    run_broadcast_efficiency,
    run_dataset_clustering,
    run_fig4,
    run_fig5,
    run_fig13,
    run_netpipe_reference,
)
from repro.scenarios.registry import runner_scenario, scenario
from repro.scenarios.topologies import (
    fat_tree_dataset,
    hetero_uplink_dataset,
    random_bottleneck_dataset,
)

#: Laptop-scale default for paper datasets (the paper itself runs 32).
DEFAULT_PER_SITE = 8


# ---------------------------------------------------------------------- #
# formatters (terminal rendering of summary dicts)
# ---------------------------------------------------------------------- #
def format_campaign(summary: Dict[str, object]) -> str:
    """Human rendering of a measure→cluster→evaluate campaign summary.

    Workload, noise-threshold and fault lines (detection, localization,
    injected events) appear when the summary carries them.
    """
    iterations = f"{summary['iterations']} iterations"
    if summary.get("degraded"):
        iterations = f"{summary['achieved_iterations']}/{iterations} (DEGRADED)"
    lines = [
        f"scenario {summary['scenario']} (family {summary['family']}, "
        f"executor {summary['executor']})",
        f"dataset {summary['dataset']}: {summary['hosts']} hosts, {iterations}",
    ]
    if "workload" in summary:
        lines.append(
            f"workload {summary['workload']}: "
            f"{summary['workload_actors']} tenants per broadcast"
        )
    if "faults" in summary:
        lines.append(
            f"faults {summary['faults']}: "
            f"{summary['fault_injectors']} injector(s)"
        )
    lines.append(
        f"clusters found: {summary['found_clusters']} "
        f"(expected: {summary['expected_clusters']})"
    )
    if summary.get("measured_nmi") is not None:
        lines.append(
            f"overlapping NMI vs ground truth: {summary['measured_nmi']:.3f} "
            f"(paper/model: {summary['paper_nmi']})"
        )
    if "noise_threshold" in summary:
        lines.append(
            f"noise threshold {summary['noise_threshold']:.2f} -> "
            f"{'recovered' if summary['recovered'] else 'DEGRADED'}"
        )
    lines.append(f"modularity: {summary['modularity']:.3f}")
    curve = summary.get("nmi_per_iteration") or []
    if curve:
        lines.append(f"NMI per iteration: {[round(v, 2) for v in curve]}")
    lines.append(
        f"simulated measurement time: {summary['measurement_time_s']:.1f} s"
    )
    if summary.get("detected"):
        lines.append(
            f"failure detected at iteration {summary['detected_iteration']} "
            f"({summary['iterations_to_detect']} post-onset measurements, "
            f"time to detect {summary['time_to_detect_s']:.3f} s)"
        )
    elif "detected" in summary:
        lines.append(
            "failure not detected "
            f"(no duration spike over {summary['detect_factor']:.2f}x baseline)"
        )
    if summary.get("localized_link"):
        rank = summary.get("localization_rank")
        ttl = summary.get("time_to_localize_s")
        lines.append(
            f"failure localized: {summary['localized_link']}"
            f"{f' (true link at rank {rank})' if rank is not None else ''}"
            + (f", time to localize {ttl:.3f} s" if ttl is not None else "")
        )
    elif "localization_status" in summary:
        candidates = summary.get("localization_candidates") or []
        suffix = (
            f"; candidates: {', '.join(c['link'] for c in candidates[:3])}"
            if candidates else ""
        )
        lines.append(
            f"failure not localized ({summary['localization_status']}{suffix})"
        )
    epochs = summary.get("epochs") or []
    if len(epochs) > 1:
        for e in epochs:
            verdict = e.get("localized_link") or e.get("localization_status")
            lines.append(
                f"  epoch {e['epoch']} (iterations {e['onset_iteration']}.."
                f"{e['end_iteration'] - 1}): "
                f"{'detected' if e.get('detected') else 'not detected'}, "
                f"localized -> {verdict}"
                + (
                    f" (rank {e['localization_rank']})"
                    if e.get("localization_rank") is not None else ""
                )
            )
    if summary.get("background_flows"):
        lines.append(
            f"cross traffic: {summary['background_flows']} flows, "
            f"{summary['background_bytes_offered'] / 1e6:.1f} MB offered"
        )
    if summary.get("churn_leaves"):
        lines.append(
            f"churn: {summary['churn_leaves']} departures, "
            f"{summary['churn_rejoins']} rejoins"
        )
    if summary.get("capacity_changes"):
        lines.append(f"capacity drift events: {summary['capacity_changes']}")
    if summary.get("rival_broadcasts"):
        lines.append(f"rival broadcasts: {summary['rival_broadcasts']}")
    if summary.get("link_failures"):
        lines.append(
            f"link failures: {summary['link_failures']} "
            f"({summary['link_repairs']} repaired, "
            f"{summary['link_downtime_s']:.3f} s downtime)"
        )
    if summary.get("route_flaps"):
        lines.append(f"route flaps: {summary['route_flaps']}")
    if summary.get("tracker_outages"):
        lines.append(
            f"tracker outages: {summary['tracker_outages']} "
            f"({summary['announce_retries']} announce retries, "
            f"{summary['announce_failures']} gave up)"
        )
    if summary.get("tenant_arrivals"):
        lines.append(
            f"tenant cycling: {summary['tenant_arrivals']} arrivals, "
            f"{summary['tenant_departures']} departures"
        )
    result = summary.get("result")
    truth = summary.get("ground_truth")
    if result is not None:
        lines.append("")
        lines.append(ascii_cluster_table(result.partition, ground_truth=truth))
    return "\n".join(lines)


def _format_fig4(summary: Dict[str, object]) -> str:
    lines = [
        f"focus host: {summary['focus_host']} ({summary['iterations']} iterations)",
        render_fig4_bars(summary["local_edges"], summary["remote_edges"]),
        "paper totals: local 22533 / remote 6337",
    ]
    return "\n".join(lines)


def _format_fig5(summary: Dict[str, object]) -> str:
    u, v = summary["edge"]
    return "\n".join(
        [
            f"edge {u} -- {v} over {summary['iterations']} independent runs:",
            f"  zero-fragment runs: {summary['zero_runs']}",
            f"  nonzero range: {summary['nonzero_min']:.0f}..{summary['nonzero_max']:.0f}",
            f"  mean {summary['mean']:.1f}, std {summary['std']:.1f} "
            f"(coefficient of variation {summary['coefficient_of_variation']:.2f})",
            "paper: 23/36 runs zero, nonzero range 3..6304",
        ]
    )


def _format_fig13(summary: Dict[str, object]) -> str:
    lines = []
    for name, study in summary.items():
        if not hasattr(study, "curve"):
            continue
        reached = study.iterations_to_reach(0.99)
        lines.append(
            f"{name:8s} final NMI {study.final_nmi:.2f} "
            f"(>=0.99 after {reached if reached else '-'} iterations) "
            f"curve {[round(v, 2) for v in study.curve]}"
        )
    return "\n".join(lines)


def _format_efficiency(summary: Dict[str, object]) -> str:
    lines = ["broadcast duration by swarm size (s):"]
    for nodes, duration in sorted(summary["durations_by_nodes"].items()):
        lines.append(f"  {nodes:4d} nodes  {duration:.2f}")
    lines.append("broadcast duration by file size (fragments -> s):")
    for fragments, duration in sorted(summary["durations_by_fragments"].items()):
        lines.append(f"  {fragments:5d} fragments  {duration:.2f}")
    return "\n".join(lines)


def _format_baseline(summary: Dict[str, object]) -> str:
    lines = ["measurement cost comparison (simulated seconds):"]
    for row in summary["rows"]:
        lines.append(
            f"  N={row['nodes']:3d}  BitTorrent {row['bittorrent_time_s']:7.1f}   "
            f"pairwise {row['pairwise_time_s']:7.1f} ({row['pairwise_probes']} probes)   "
            f"triplet {row['triplet_time_s']:8.1f} ({row['triplet_probes']} probes)"
        )
    return "\n".join(lines)


def _format_netpipe(summary: Dict[str, object]) -> str:
    return "\n".join(
        [
            f"intra-cluster peak bandwidth: {summary['intra_cluster_mbps']:.0f} Mb/s "
            f"(paper: {summary['paper_intra_cluster_mbps']:.0f})",
            f"inter-site peak bandwidth:    {summary['inter_site_mbps']:.0f} Mb/s "
            f"(paper: {summary['paper_inter_site_mbps']:.0f})",
        ]
    )


# ---------------------------------------------------------------------- #
# the paper's named datasets (Fig. 8-13 and the 2x2 experiment)
# ---------------------------------------------------------------------- #
@scenario("2x2", family="paper", formatter=format_campaign,
          description="2 Bordeplage + 2 Borderline nodes, one logical cluster")
def _scenario_2x2() -> Dataset:
    return dataset_2x2()


@scenario("B", family="paper", formatter=format_campaign,
          description="Bordeaux only; Bordeplage split off by the 1 GbE bottleneck")
def _scenario_b(per_site: int = DEFAULT_PER_SITE) -> Dataset:
    return dataset_b(**bordeaux_split(per_site))


@scenario("B-T", family="paper", formatter=format_campaign,
          description="Bordeaux + Toulouse; single-level clustering caps at NMI ≈ 0.7")
def _scenario_bt(per_site: int = DEFAULT_PER_SITE) -> Dataset:
    return dataset("B-T", per_site=per_site)


@scenario("G-T", family="paper", formatter=format_campaign,
          description="Grenoble + Toulouse, two flat sites")
def _scenario_gt(per_site: int = DEFAULT_PER_SITE) -> Dataset:
    return dataset("G-T", per_site=per_site)


@scenario("B-G-T", family="paper", formatter=format_campaign,
          description="Bordeaux (well-connected part) + Grenoble + Toulouse")
def _scenario_bgt(per_site: int = DEFAULT_PER_SITE) -> Dataset:
    return dataset("B-G-T", per_site=per_site)


@scenario("B-G-T-L", family="paper", formatter=format_campaign,
          description="four sites, slowest to converge (~15 iterations in the paper)")
def _scenario_bgtl(per_site: int = DEFAULT_PER_SITE) -> Dataset:
    return dataset("B-G-T-L", per_site=per_site)


@scenario("NESTED", family="extension", formatter=format_campaign,
          description="two-level hierarchy (future-work extension of the paper)")
def _scenario_nested(alpha: int = 6, beta: int = 6, gamma: int = 12) -> Dataset:
    return dataset_nested(alpha=alpha, beta=beta, gamma=gamma)


# ---------------------------------------------------------------------- #
# per-figure experiment runners, registered as they are
# ---------------------------------------------------------------------- #
runner_scenario(
    "fig4", family="figure", formatter=_format_fig4,
    description="per-edge metric of a fixed node, local vs remote (Fig. 4)",
)(run_fig4)
runner_scenario(
    "fig5", family="figure", formatter=_format_fig5,
    description="single-edge variance across independent runs (Fig. 5)",
)(run_fig5)
runner_scenario(
    "fig13", family="figure", formatter=_format_fig13,
    description="NMI convergence for all paper datasets (Fig. 13)",
)(run_fig13)
runner_scenario(
    "broadcast-efficiency", family="figure", formatter=_format_efficiency,
    description="broadcast completion vs swarm and file size (Sec. II-B)",
)(run_broadcast_efficiency)
runner_scenario(
    "baseline-cost", family="figure", formatter=_format_baseline,
    description="measurement cost vs saturation baselines (Sec. II-B)",
)(run_baseline_cost)
runner_scenario(
    "netpipe", family="figure", formatter=_format_netpipe,
    description="NetPIPE reference bandwidths (Sec. II-C / IV-A)",
)(run_netpipe_reference)


# ---------------------------------------------------------------------- #
# generated families beyond the paper
# ---------------------------------------------------------------------- #
@scenario("FATTREE-4x4", family="fat-tree", formatter=format_campaign,
          tags=("beyond-paper", "sweepable"),
          description="4 racks x 4 hosts, 4:1 oversubscribed edge uplinks")
def _scenario_fattree(
    racks: int = 4, hosts_per_rack: int = 4, oversubscription: float = 4.0
) -> Dataset:
    return fat_tree_dataset(
        racks=racks, hosts_per_rack=hosts_per_rack, oversubscription=oversubscription
    )


@scenario("FATTREE-NB", family="fat-tree", formatter=format_campaign,
          tags=("beyond-paper",),
          description="non-blocking fat-tree control: no contrast, one cluster")
def _scenario_fattree_nb(racks: int = 4, hosts_per_rack: int = 4) -> Dataset:
    return fat_tree_dataset(
        racks=racks, hosts_per_rack=hosts_per_rack, oversubscription=1.0
    )


@scenario("RANDBOT-1", family="random-bottleneck", formatter=format_campaign,
          tags=("beyond-paper", "sweepable"),
          description="random bottleneck placement, layout seed 1")
def _scenario_randbot1(
    clusters: int = 5,
    hosts_per_cluster: int = 4,
    num_bottlenecks: int = 2,
    layout_seed: int = 1,
) -> Dataset:
    return random_bottleneck_dataset(
        clusters=clusters,
        hosts_per_cluster=hosts_per_cluster,
        num_bottlenecks=num_bottlenecks,
        layout_seed=layout_seed,
    )


@scenario("RANDBOT-2", family="random-bottleneck", formatter=format_campaign,
          tags=("beyond-paper",),
          description="random bottleneck placement, layout seed 2")
def _scenario_randbot2(
    clusters: int = 5,
    hosts_per_cluster: int = 4,
    num_bottlenecks: int = 2,
) -> Dataset:
    return random_bottleneck_dataset(
        clusters=clusters,
        hosts_per_cluster=hosts_per_cluster,
        num_bottlenecks=num_bottlenecks,
        layout_seed=2,
    )


@scenario("HETERO-UPLINK", family="hetero-uplink", formatter=format_campaign,
          tags=("beyond-paper", "sweepable"),
          description="three sites with heterogeneously provisioned Renater uplinks")
def _scenario_hetero(
    per_site: int = 6, squeeze: float = 1.0
) -> Dataset:
    return hetero_uplink_dataset(per_site=per_site, squeeze=squeeze)


# ---------------------------------------------------------------------- #
# interference families: tomography under multi-tenant workloads
# (repro.workloads + repro.tomography.interference; docs/workloads.md)
#
# Each of these scenarios *is* its workload, built from its parameters, so
# its body takes no ``workload``: an explicit --workload would shadow the
# sweepable parameters, and the knob rule rejects it instead.
# ---------------------------------------------------------------------- #
def _interference_dataset(per_site: int) -> Dataset:
    """The interference families' default substrate: two flat sites whose
    planted structure the recovery must keep finding under load."""
    return dataset("G-T", per_site=per_site)


def _localization_dataset(per_site: int, backup: bool = False) -> Dataset:
    """The fault-localization substrate: Bordeaux's three-cluster site.

    Dataset "B" puts each cluster behind its *own* uplink (Bordeplage
    behind the 1 GbE bottleneck, Bordereau and Borderline behind
    distinct router links), so every shared link is crossed by a
    distinct set of host pairs and boolean tomography can name a failed
    link outright — unlike G-T, whose serial backbone links are crossed
    by exactly the same pairs and are indistinguishable by design.

    ``backup=True`` adds a standby inter-switch link between the
    Bordeplage and Bordereau switches at half the (scaled) bottleneck
    capacity.  Its latency is set *above* any nominal two-hop detour, so
    shortest-path routing ignores it while the topology is healthy —
    baselines, ground truth and goldens are unchanged — but a control
    plane recomputing around a failed uplink finds it and actually has
    somewhere to reroute: the self-healing substrate.
    """
    from repro.network.grid5000 import BORDEAUX_BOTTLENECK_CAPACITY

    ds = dataset(
        "B",
        bordeplage=per_site,
        bordereau=max(2, per_site - 1),
        borderline=2,
    )
    if backup:
        scale = min(per_site / 32.0, 1.0)
        ds.topology.add_link(
            "bordeaux.bordeplage.switch",
            "bordeaux.bordereau.switch",
            capacity=0.5 * BORDEAUX_BOTTLENECK_CAPACITY * scale,
            latency=2.5e-4,
            name="bordeaux.backup",
        )
    return ds


@runner_scenario("RIVAL-BROADCAST", family="rival-broadcast",
                 formatter=format_campaign,
                 tags=("beyond-paper", "interference", "sweepable"),
                 description="concurrent-broadcast contention: rival swarms "
                             "share clock and links with the measured one")
def _scenario_rival(
    iterations: int = 4,
    num_fragments: int = 240,
    seed: int = 2012,
    executor=None,
    per_site: int = 4,
    rivals: int = 1,
    stagger: float = 0.3,
    noise_threshold: float = 0.85,
    stepping: Optional[str] = None,
    faults=None,
    quorum: Optional[int] = None,
    detect_factor: Optional[float] = None,
):
    from repro.workloads import rival_broadcast_workload

    wl = rival_broadcast_workload(rivals=rivals, stagger=stagger)
    return run_dataset_clustering(
        _interference_dataset(per_site), workload=wl,
        iterations=iterations, num_fragments=num_fragments, seed=seed,
        noise_threshold=noise_threshold, stepping=stepping,
        executor=executor, faults=faults, quorum=quorum,
        detect_factor=detect_factor,
    )


@runner_scenario("CROSS-TRAFFIC", family="cross-traffic",
                 formatter=format_campaign,
                 tags=("beyond-paper", "interference", "sweepable"),
                 description="generative Poisson/on-off cross traffic; sweep "
                             "`intensity` to chart where recovery degrades")
def _scenario_cross_traffic(
    iterations: int = 4,
    num_fragments: int = 240,
    seed: int = 2012,
    executor=None,
    per_site: int = 4,
    intensity: float = 0.5,
    sources: int = 2,
    bulk: bool = False,
    noise_threshold: float = 0.8,
    stepping: Optional[str] = None,
    faults=None,
    quorum: Optional[int] = None,
    detect_factor: Optional[float] = None,
):
    from repro.workloads import cross_traffic_workload

    wl = cross_traffic_workload(intensity=intensity, sources=sources, bulk=bulk)
    return run_dataset_clustering(
        _interference_dataset(per_site), workload=wl,
        iterations=iterations, num_fragments=num_fragments, seed=seed,
        noise_threshold=noise_threshold, stepping=stepping,
        executor=executor, faults=faults, quorum=quorum,
        detect_factor=detect_factor,
    )


@runner_scenario("CHURN", family="churn",
                 formatter=format_campaign,
                 tags=("beyond-paper", "interference", "sweepable"),
                 description="peer churn: leave/rejoin mid-broadcast; sweep "
                             "`churn_rate` for the degradation curve")
def _scenario_churn(
    iterations: int = 4,
    num_fragments: int = 240,
    seed: int = 2012,
    executor=None,
    per_site: int = 4,
    churn_rate: float = 1.0,
    downtime_frac: float = 0.15,
    noise_threshold: float = 0.8,
    stepping: Optional[str] = None,
    faults=None,
    quorum: Optional[int] = None,
    detect_factor: Optional[float] = None,
):
    from repro.workloads import churn_workload

    wl = churn_workload(churn_rate=churn_rate, downtime_frac=downtime_frac)
    return run_dataset_clustering(
        _interference_dataset(per_site), workload=wl,
        iterations=iterations, num_fragments=num_fragments, seed=seed,
        noise_threshold=noise_threshold, stepping=stepping,
        executor=executor, faults=faults, quorum=quorum,
        detect_factor=detect_factor,
    )


@runner_scenario("MIXED-TENANCY", family="cross-traffic",
                 formatter=format_campaign,
                 tags=("beyond-paper", "interference"),
                 description="everything at once: rival broadcast, cross "
                             "traffic, capacity drift and churn")
def _scenario_mixed_tenancy(
    iterations: int = 4,
    num_fragments: int = 240,
    seed: int = 2012,
    executor=None,
    per_site: int = 4,
    intensity: float = 0.5,
    noise_threshold: float = 0.75,
    stepping: Optional[str] = None,
    faults=None,
    quorum: Optional[int] = None,
    detect_factor: Optional[float] = None,
):
    from repro.workloads import mixed_workload

    wl = mixed_workload(intensity=intensity)
    return run_dataset_clustering(
        _interference_dataset(per_site), workload=wl,
        iterations=iterations, num_fragments=num_fragments, seed=seed,
        noise_threshold=noise_threshold, stepping=stepping,
        executor=executor, faults=faults, quorum=quorum,
        detect_factor=detect_factor,
    )


# ---------------------------------------------------------------------- #
# fault-injection family: tomography under injected failure
# (repro.faults + repro.tomography.faults; docs/faults.md)
#
# Each of these scenarios *is* its fault plan, so its body takes no
# ``faults`` and --faults is rejected by the same rule.
# ---------------------------------------------------------------------- #
@runner_scenario("FAULT-INJECTION", family="fault-injection",
                 formatter=format_campaign,
                 tags=("beyond-paper", "faults", "sweepable"),
                 description="tomography under injected failures; sweep "
                             "`intensity` to map NMI vs failure intensity")
def _scenario_fault_injection(
    iterations: int = 4,
    num_fragments: int = 240,
    seed: int = 2012,
    executor=None,
    per_site: int = 4,
    preset: str = "link-failure",
    intensity: float = 1.0,
    noise_threshold: float = 0.75,
    quorum: Optional[int] = None,
    stepping: Optional[str] = None,
    workload=None,
):
    from repro.faults import FAULT_BUILDERS

    try:
        plan = FAULT_BUILDERS[preset](intensity=intensity)
    except KeyError:
        raise ValueError(
            f"unknown fault preset {preset!r}; "
            f"available: {', '.join(sorted(FAULT_BUILDERS))}"
        ) from None
    return run_dataset_clustering(
        _interference_dataset(per_site), faults=plan, workload=workload,
        iterations=iterations, num_fragments=num_fragments, seed=seed,
        noise_threshold=noise_threshold, stepping=stepping,
        executor=executor, quorum=quorum,
    )


@runner_scenario("LINK-BLACKOUT", family="fault-injection",
                 formatter=format_campaign,
                 tags=("beyond-paper", "faults", "sweepable"),
                 description="persistent bottleneck failure mid-campaign; "
                             "headline metrics: time to detect and time to "
                             "localize the dead link")
def _scenario_link_blackout(
    iterations: int = 6,
    num_fragments: int = 240,
    seed: int = 2012,
    executor=None,
    per_site: int = 4,
    from_iteration: int = 2,
    residual: float = 0.02,
    detect_factor: Optional[float] = None,
    noise_threshold: float = 0.6,
    quorum: Optional[int] = None,
    stepping: Optional[str] = None,
    workload=None,
):
    from repro.faults import blackout_plan

    plan = blackout_plan(
        from_iteration=from_iteration,
        residual=residual,
        link="bordeaux.bordeplage.bottleneck",
    )
    return run_dataset_clustering(
        _localization_dataset(per_site), faults=plan, workload=workload,
        iterations=iterations, num_fragments=num_fragments, seed=seed,
        noise_threshold=noise_threshold, stepping=stepping,
        detect_factor=detect_factor, executor=executor, quorum=quorum,
    )


@runner_scenario("MIGRATING-BOTTLENECK", family="fault-injection",
                 formatter=format_campaign,
                 tags=("beyond-paper", "faults", "sweepable"),
                 description="self-healing routing under a relocating "
                             "failure: the control plane reroutes around "
                             "each epoch's victim, the tomography must "
                             "re-detect and re-localize it")
def _scenario_migrating_bottleneck(
    iterations: int = 8,
    num_fragments: int = 240,
    seed: int = 2012,
    executor=None,
    per_site: int = 4,
    residual: float = 0.02,
    detect_factor: Optional[float] = None,
    noise_threshold: float = 0.6,
    quorum: Optional[int] = None,
    stepping: Optional[str] = None,
    workload=None,
):
    """The failure moves mid-campaign: first the Bordeplage bottleneck
    collapses, then (after it recovers) the Bordereau uplink does.  Both
    epochs run with ``reroute=True`` — the control plane recomputes a
    routing table avoiding the victim and live flows re-pin onto the
    standby ``bordeaux.backup`` link — so broadcasts *survive* each
    failure at degraded speed, and the study scores whether detection
    and localization keep up with the moving target (per-epoch verdicts
    under ``epochs``)."""
    from repro.faults import migrating_plan

    if iterations < 3:
        raise ValueError(
            "MIGRATING-BOTTLENECK needs at least 3 iterations "
            "(a healthy baseline plus one measurement per epoch)"
        )
    onset_1 = max(1, iterations // 3)
    onset_2 = max(onset_1 + 1, (2 * iterations) // 3)
    plan = migrating_plan(
        links=(
            "bordeaux.bordeplage.bottleneck",
            "bordeaux.bordereau.switch--bordeaux.router",
        ),
        onsets=(onset_1, onset_2),
        residual=residual,
    )
    return run_dataset_clustering(
        _localization_dataset(per_site, backup=True), faults=plan,
        workload=workload,
        iterations=iterations, num_fragments=num_fragments, seed=seed,
        noise_threshold=noise_threshold, stepping=stepping,
        detect_factor=detect_factor, executor=executor, quorum=quorum,
    )
