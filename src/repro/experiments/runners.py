"""Per-figure experiment runners.

Each function regenerates the data behind one of the paper's tables/figures
and returns a plain dictionary of the numbers (so benchmarks can both assert
on the shape and print paper-vs-measured rows).  All runners take explicit
scale parameters — node counts, fragment counts, iteration counts — because
the simulated campaigns are run at laptop scale by default; the *shape* of
the results (who wins, which edges are heavy, where the NMI converges) is
what reproduces the paper, not the absolute magnitudes.

The figure runners are registered as scenarios as they are (see
:mod:`repro.scenarios.catalog`), so their parameter names are the CLI's
``--per-site``/``--set`` tunables and their defaults are what ``repro run``
uses: ``run_fig5()`` is ``repro run fig5``.  A runner that takes an
``executor`` runs on the backend it is handed (``None``: in-process).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.convergence import ConvergenceStudy
from repro.bittorrent.swarm import BitTorrentBroadcast, BroadcastResult
from repro.clustering.louvain import louvain
from repro.clustering.partition import Partition
from repro.experiments.datasets import Dataset, bordeaux_split, dataset, dataset_b
from repro.graph.wgraph import WeightedGraph
from repro.network.grid5000 import Grid5000Builder, build_multi_site, default_cluster_of
from repro.scenarios.executors import ProcessPoolExecutor
from repro.simulation.rng import derive_seed
from repro.tomography.baselines import (
    PairwiseSaturationTomography,
    TripletSaturationTomography,
)
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.metric import edge_weight_history, local_remote_split
from repro.tomography.netpipe import NetPipeProbe
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config


def _default_clusterer(graph: WeightedGraph) -> Partition:
    return louvain(graph).partition


# ---------------------------------------------------------------------- #
# the campaign study (Figs. 8-12, 2x2, interference and fault scenarios)
# ---------------------------------------------------------------------- #
def run_dataset_clustering(
    ds: Dataset,
    iterations: int = 8,
    num_fragments: int = 600,
    seed: int = 2012,
    track_convergence: bool = False,
    executor: Optional[ProcessPoolExecutor] = None,
    stepping: Optional[str] = None,
    workload=None,
    faults=None,
    quorum: Optional[int] = None,
    noise_threshold: Optional[float] = None,
    detect_factor: Optional[float] = None,
) -> Dict[str, object]:
    """Run the full tomography pipeline on a dataset and summarise the outcome.

    The one measure → cluster → evaluate study behind every campaign-shaped
    scenario.  ``workload`` (a :class:`~repro.workloads.WorkloadSpec` or
    preset name) embeds every measured broadcast in a multi-tenant
    workload — concurrent broadcasts, cross traffic, churn, capacity drift
    on a shared clock — instead of the paper's idle network (``repro run
    <scenario> --workload cross-heavy``; see docs/workloads.md).  ``faults``
    (a fault plan — a :class:`~repro.workloads.WorkloadSpec` of fault
    injectors — or a :mod:`repro.faults` preset name) additionally injects
    deterministic failures into every iteration, and ``quorum`` lets the
    campaign proceed with ≥k surviving iterations instead of aborting on
    the first failed one (see docs/faults.md).  A non-empty fault plan adds
    the detection and localization verdicts (spike ratio ``detect_factor``,
    see :func:`repro.tomography.faults.fault_verdicts`); ``noise_threshold``
    adds ``recovered``: whether the overlapping NMI stays at or above it.
    """
    if workload is not None:
        from repro.workloads import workload_from_name

        workload = workload_from_name(workload)
    config = default_swarm_config(num_fragments, stepping=stepping)
    pipeline = TomographyPipeline(
        ds.topology,
        hosts=ds.hosts,
        ground_truth=ds.ground_truth,
        config=config,
        seed=seed,
        executor=executor,
        workload=workload,
        faults=faults,
    )
    result = pipeline.run(
        iterations, track_convergence=track_convergence, quorum=quorum
    )
    record = result.record
    summary = {
        "dataset": ds.name,
        "hosts": ds.num_hosts,
        "iterations": iterations,
        "achieved_iterations": result.achieved_iterations,
        "degraded": result.degraded,
        "failed_iterations": record.failed_iterations,
        "found_clusters": result.num_clusters,
        "expected_clusters": ds.expectation.expected_clusters,
        "paper_nmi": ds.expectation.paper_nmi,
        "measured_nmi": result.nmi,
        "measured_classical_nmi": result.classical_nmi,
        "modularity": result.modularity,
        "measurement_time_s": result.measurement_time,
        "nmi_per_iteration": result.nmi_per_iteration,
        "stepping": config.stepping,
        "control_steps": record.total_control_steps(),
        # Quorum campaigns take the resilient in-process loop (per-iteration
        # try/except), never the fan-out path — record what actually ran.
        "executor": (
            executor.name if executor is not None and quorum is None
            else "serial"
        ),
        "result": result,
        "ground_truth": ds.ground_truth,
    }
    if noise_threshold is not None:
        summary["noise_threshold"] = noise_threshold
        summary["recovered"] = (
            result.nmi is not None and result.nmi >= noise_threshold
        )
    plan = pipeline.campaign.faults
    if plan is not None:
        from repro.tomography.faults import fault_verdicts

        summary.update(fault_verdicts(
            record, plan, pipeline.campaign.routing, config, detect_factor
        ))
    if workload is not None or plan is not None:
        from repro.tomography.interference import summarize_workload_stats

        if workload is not None:
            summary.update(workload.metadata())
        if plan is not None:
            summary.update(
                faults=plan.name,
                fault_injectors=plan.actor_count,
                fault_kinds=plan.counts_by_kind(),
                fault_intensity=plan.intensity,
            )
        summary.update(summarize_workload_stats(record.workload_stats))
    return summary


# ---------------------------------------------------------------------- #
# Fig. 4 — per-edge metric of a fixed node, local vs remote
# ---------------------------------------------------------------------- #
def run_fig4(
    per_site: int = 8,
    iterations: int = 12,
    num_fragments: int = 600,
    seed: int = 3,
    focus_host: Optional[str] = None,
    executor: Optional[ProcessPoolExecutor] = None,
    stepping: Optional[str] = None,
) -> Dict[str, object]:
    """Metric values for all edges of a fixed node, split local vs remote.

    The paper's Fig. 4 uses a 64-node Bordeaux+remote configuration and shows
    that edges to local-cluster peers carry several times more fragments in
    total than edges to peers across the bottleneck.  Here dataset B has
    ``per_site`` Bordeplage nodes and the other two clusters follow
    :func:`~repro.experiments.datasets.bordeaux_split`.
    """
    ds = dataset_b(**bordeaux_split(per_site))
    pipeline = TomographyPipeline(
        ds.topology,
        hosts=ds.hosts,
        ground_truth=ds.ground_truth,
        config=default_swarm_config(num_fragments, stepping=stepping),
        seed=seed,
        executor=executor,
    )
    result = pipeline.run(iterations, track_convergence=False)
    if focus_host is None:
        # A non-root Bordeplage node, as the paper fixes a random node.
        bordeplage_hosts = [
            h for h in ds.hosts if ds.topology.host(h).cluster == "bordeplage"
        ]
        focus_host = bordeplage_hosts[-1]
    local_hosts = ds.local_cluster_of(focus_host)
    local_edges, remote_edges = local_remote_split(result.metric, focus_host, local_hosts)
    local_total = float(sum(local_edges.values()))
    remote_total = float(sum(remote_edges.values()))
    return {
        "focus_host": focus_host,
        "iterations": iterations,
        "local_edges": local_edges,
        "remote_edges": remote_edges,
        "local_total": local_total,
        "remote_total": remote_total,
        "local_mean": local_total / max(len(local_edges), 1),
        "remote_mean": remote_total / max(len(remote_edges), 1),
        "paper_local_total": 22533.0,
        "paper_remote_total": 6337.0,
        "result": result,
    }


# ---------------------------------------------------------------------- #
# Fig. 5 — single-edge variance across independent runs
# ---------------------------------------------------------------------- #
def run_fig5(
    per_site: int = 8,
    iterations: int = 36,
    num_fragments: int = 400,
    seed: int = 11,
    executor: Optional[ProcessPoolExecutor] = None,
    stepping: Optional[str] = None,
) -> Dict[str, object]:
    """Distribution of ``w(e)`` for one intra-cluster edge over independent runs.

    The paper observes 23 of 36 runs with zero exchanged fragments on the
    fixed edge, and 3–6304 fragments otherwise: a very high variance compared
    to the tight NetPIPE distribution.  The cluster has ``2 * per_site``
    nodes.
    """
    builder = Grid5000Builder()
    topology = builder.build_single_site("bordeaux", {"bordereau": 2 * per_site})
    hosts = topology.host_names
    campaign = MeasurementCampaign(
        topology,
        default_swarm_config(num_fragments, stepping=stepping),
        hosts=hosts,
        seed=seed,
        executor=executor,
    )
    record = campaign.run(iterations)
    # A fixed edge between two non-root nodes of the same cluster.
    u, v = hosts[1], hosts[2]
    history = edge_weight_history(record.matrices, u, v)
    values = np.array(history, dtype=float)
    return {
        "edge": (u, v),
        "iterations": iterations,
        "history": history,
        "zero_runs": int(np.count_nonzero(values == 0)),
        "nonzero_min": float(values[values > 0].min()) if (values > 0).any() else 0.0,
        "nonzero_max": float(values.max()),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "coefficient_of_variation": float(values.std() / values.mean()) if values.mean() > 0 else float("inf"),
        "paper_zero_runs": 23,
        "paper_iterations": 36,
        "record": record,
    }


# ---------------------------------------------------------------------- #
# Fig. 13 — NMI convergence with iterations, all datasets
# ---------------------------------------------------------------------- #
def run_fig13(
    datasets: Sequence[str] = ("B", "B-T", "G-T", "B-G-T", "B-G-T-L"),
    per_site: int = 8,
    iterations: int = 12,
    num_fragments: int = 500,
    seed: int = 5,
    executor: Optional[ProcessPoolExecutor] = None,
    stepping: Optional[str] = None,
) -> Dict[str, ConvergenceStudy]:
    """NMI-vs-iterations curves for the Fig. 13 datasets (scaled down)."""
    studies: Dict[str, ConvergenceStudy] = {}
    for name in datasets:
        if name == "B":
            ds = dataset_b(**bordeaux_split(per_site))
        else:
            ds = dataset(name, per_site=per_site)
        campaign = MeasurementCampaign(
            ds.topology,
            default_swarm_config(num_fragments, stepping=stepping),
            hosts=ds.hosts,
            seed=seed,
            executor=executor,
        )
        record = campaign.run(iterations)
        studies[name] = ConvergenceStudy.from_record(
            name, record, ds.ground_truth, _default_clusterer
        )
    return studies


# ---------------------------------------------------------------------- #
# broadcast efficiency (Section II-B)
# ---------------------------------------------------------------------- #
def _seeded_broadcast(task) -> BroadcastResult:
    """One broadcast of ``(topology, config, (seed, *labels))``, seeded by the
    first host and drawing from the ``(seed, *labels)`` stream."""
    topology, config, (seed, *labels) = task
    rng = np.random.default_rng(derive_seed(seed, *labels))
    return BitTorrentBroadcast(topology, config).run(rng=rng)


def run_broadcast_efficiency(
    node_counts: Sequence[int] = (8, 16, 32),
    num_fragments: int = 400,
    sites: Sequence[str] = ("bordeaux", "grenoble", "toulouse", "lyon"),
    seed: int = 13,
    executor: Optional[ProcessPoolExecutor] = None,
    stepping: Optional[str] = None,
) -> Dict[str, object]:
    """Broadcast completion time as a function of swarm size and file size.

    The paper reports ~20 s for 32, 64 and 128 nodes spread over up to 4
    sites, i.e. roughly constant in the node count and linear in the message
    size.  The same two shapes are measured here on the simulator.

    Every measured broadcast is an independent seeded task (its stream is
    derived from ``seed`` and a per-broadcast label), so the whole sweep
    maps through the campaign executor — across topologies, not just
    within one campaign.
    """
    tasks = []
    node_hosts: List[int] = []
    for count in node_counts:
        per_site = max(count // len(sites), 1)
        request = {
            site: {default_cluster_of(site): per_site} for site in sites
        }
        topology = build_multi_site(request)
        config = default_swarm_config(num_fragments, stepping=stepping)
        node_hosts.append(len(topology.host_names))
        tasks.append((topology, config, (seed, "nodes", count)))

    # Linear-in-size check on a fixed 4-site topology.
    request = {site: {default_cluster_of(site): 4} for site in sites}
    size_topology = build_multi_site(request)
    fragment_counts = (num_fragments // 2, num_fragments, num_fragments * 2)
    for fragments in fragment_counts:
        config = default_swarm_config(fragments, stepping=stepping)
        tasks.append((size_topology, config, (seed, "fragments", fragments)))

    results = (
        executor.map(_seeded_broadcast, tasks) if executor is not None
        else [_seeded_broadcast(task) for task in tasks]
    )
    durations: Dict[int, float] = {
        hosts: result.duration
        for hosts, result in zip(node_hosts, results[: len(node_hosts)])
    }
    size_durations: Dict[int, float] = {
        fragments: result.duration
        for fragments, result in zip(fragment_counts, results[len(node_hosts) :])
    }

    counts = sorted(durations)
    ratio_nodes = durations[counts[-1]] / durations[counts[0]]
    sizes = sorted(size_durations)
    ratio_size = size_durations[sizes[-1]] / size_durations[sizes[0]]
    return {
        "durations_by_nodes": durations,
        "durations_by_fragments": size_durations,
        "node_scaling_ratio": ratio_nodes,
        "size_scaling_ratio": ratio_size,
        "control_steps_by_nodes": {
            hosts: result.control_steps
            for hosts, result in zip(node_hosts, results[: len(node_hosts)])
        },
        "control_steps_by_fragments": {
            fragments: result.control_steps
            for fragments, result in zip(fragment_counts, results[len(node_hosts) :])
        },
        "stepping": results[0].stepping,
        "paper_seconds_per_broadcast": 20.0,
    }


# ---------------------------------------------------------------------- #
# baseline measurement cost (Section II-B)
# ---------------------------------------------------------------------- #
def run_baseline_cost(
    node_counts: Sequence[int] = (6, 10, 14),
    probe_size: float = 16e6,
    num_fragments: int = 300,
    iterations: int = 4,
    seed: int = 17,
    executor: Optional[ProcessPoolExecutor] = None,
    stepping: Optional[str] = None,
) -> Dict[str, object]:
    """Measurement cost of the BitTorrent method vs the saturation baselines.

    Reproduces the efficiency argument: the baselines' simulated measurement
    time grows ~quadratically (pairwise) / cubically (triplet) with the node
    count, while the broadcast campaign's cost is roughly flat.
    """
    rows: List[Dict[str, float]] = []
    for count in node_counts:
        per_site = max(count // 2, 1)
        topology = build_multi_site(
            {
                "grenoble": {default_cluster_of("grenoble"): per_site},
                "toulouse": {default_cluster_of("toulouse"): per_site},
            }
        )
        hosts = topology.host_names

        campaign = MeasurementCampaign(
            topology,
            default_swarm_config(num_fragments, stepping=stepping),
            hosts=hosts,
            seed=seed,
            executor=executor,
        )
        record = campaign.run(iterations)
        bt_time = record.total_measurement_time()

        pairwise = PairwiseSaturationTomography(
            topology, hosts=hosts, probe_size=probe_size, seed=seed
        )
        pairwise_result = pairwise.run()

        triplet = TripletSaturationTomography(
            topology, hosts=hosts, probe_size=probe_size
        )
        triplet_result = triplet.run()

        rows.append(
            {
                "nodes": len(hosts),
                "bittorrent_time_s": bt_time,
                "pairwise_time_s": pairwise_result.measurement_time,
                "pairwise_probes": pairwise_result.probes,
                "triplet_time_s": triplet_result.measurement_time,
                "triplet_probes": triplet_result.probes,
            }
        )
    return {
        "rows": rows,
        "paper_note": "pairwise tomography took ~1 hour for 20 nodes; "
        "BitTorrent campaign takes a few minutes",
    }


# ---------------------------------------------------------------------- #
# NetPIPE reference numbers (Sections II-C and IV-A)
# ---------------------------------------------------------------------- #
def run_netpipe_reference(repeats: int = 5) -> Dict[str, object]:
    """Intra-cluster and inter-site point-to-point bandwidth with variance.

    Paper values: ≈890 Mb/s inside an Ethernet cluster, ≈787 Mb/s between
    Bordeaux and Toulouse, both with very low run-to-run variance.
    """
    topology = build_multi_site(
        {
            "bordeaux": {"bordereau": 2},
            "toulouse": {default_cluster_of("toulouse"): 2},
        }
    )
    probe = NetPipeProbe(topology)
    bordeaux_hosts = [h for h in topology.host_names if h.startswith("bordeaux")]
    toulouse_hosts = [h for h in topology.host_names if h.startswith("toulouse")]

    intra = probe.probe(bordeaux_hosts[0], bordeaux_hosts[1])
    inter = probe.probe(bordeaux_hosts[0], toulouse_hosts[0])
    intra_repeats = probe.repeated_peak(bordeaux_hosts[0], bordeaux_hosts[1], repeats=repeats)
    inter_repeats = probe.repeated_peak(bordeaux_hosts[0], toulouse_hosts[0], repeats=repeats)

    return {
        "intra_cluster_mbps": intra.peak_megabits,
        "inter_site_mbps": inter.peak_megabits,
        "intra_cluster_std": float(np.std(intra_repeats)),
        "inter_site_std": float(np.std(inter_repeats)),
        "paper_intra_cluster_mbps": 890.0,
        "paper_inter_site_mbps": 787.0,
    }
