"""End-to-end tomography pipeline: measure → aggregate → cluster → evaluate.

This is the user-facing entry point of the library.  Given a topology, a set
of participating hosts and (optionally) a ground-truth partition, the
pipeline runs the measurement campaign of repeated BitTorrent broadcasts,
aggregates the fragment metric, clusters the resulting weighted graph with
the Louvain method, and reports the recovered logical clusters together with
their agreement with the ground truth (overlapping NMI, as in Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bittorrent.swarm import SwarmConfig
from repro.bittorrent.torrent import TorrentMeta
from repro.clustering.louvain import louvain
from repro.clustering.modularity import modularity
from repro.clustering.nmi import normalized_mutual_information, overlapping_nmi
from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph
from repro.network.topology import Topology
from repro.observability.metrics import METRICS
from repro.observability.tracer import TRACER
from repro.tomography.measurement import MeasurementCampaign, MeasurementRecord
from repro.tomography.metric import EdgeMetric, metric_graph

#: Default fragment count for simulated campaigns: small enough to run dozens
#: of iterations quickly, large enough that per-edge counts are informative.
DEFAULT_SIMULATED_FRAGMENTS = 1200


@dataclass
class TomographyResult:
    """Outcome of a full tomography run.

    Attributes
    ----------
    metric:
        Aggregated edge metric over all iterations.
    graph:
        Weighted graph built from the metric.
    partition:
        Logical clusters recovered by modularity clustering.
    modularity:
        Modularity value of the recovered partition.
    nmi:
        Overlapping NMI against the ground truth (None when no ground truth).
    classical_nmi:
        Classical partition NMI against the ground truth (None likewise).
    record:
        Full measurement record (per-iteration matrices, durations).
    nmi_per_iteration:
        Overlapping NMI of the clustering computed from the first k iterations,
        for k = 1..n (the Fig. 13 convergence curve); empty when no ground
        truth was supplied or convergence tracking was disabled.
    """

    metric: EdgeMetric
    graph: WeightedGraph
    partition: Partition
    modularity: float
    record: MeasurementRecord
    nmi: Optional[float] = None
    classical_nmi: Optional[float] = None
    nmi_per_iteration: List[float] = field(default_factory=list)

    @property
    def num_clusters(self) -> int:
        return self.partition.num_clusters

    @property
    def measurement_time(self) -> float:
        """Total simulated measurement time (sum of broadcast durations)."""
        return self.record.total_measurement_time()

    @property
    def degraded(self) -> bool:
        """True when the record proceeded on a quorum (iterations failed)."""
        return self.record.degraded

    @property
    def achieved_iterations(self) -> int:
        """Iterations that actually contributed measurements."""
        return self.record.iterations


def default_swarm_config(
    num_fragments: int = DEFAULT_SIMULATED_FRAGMENTS,
    stepping: Optional[str] = None,
    **overrides,
) -> SwarmConfig:
    """A sensible default swarm configuration for simulated campaigns.

    The paper's broadcast of a 239 MB file takes ≈20 s against a 10 s rechoke
    timer, i.e. a broadcast spans a couple of choking rounds and many
    scheduling quanta.  Scaled-down files finish proportionally faster, so the
    control step and rechoke interval are scaled with the expected broadcast
    duration to preserve those ratios (otherwise a whole broadcast would fit
    in a handful of control steps and the concurrent-flow contention that the
    metric measures would never build up).

    ``stepping`` selects the control-loop policy (``"fixed"``/``"event"``,
    see docs/simulation.md); ``None`` keeps :class:`SwarmConfig`'s default.
    Both policies produce bit-for-bit identical measurements.
    """
    from repro.network.grid5000 import NODE_ACCESS_CAPACITY

    torrent = TorrentMeta.scaled(num_fragments)
    if "control_dt" not in overrides or "rechoke_interval" not in overrides:
        single_flow_time = torrent.size / NODE_ACCESS_CAPACITY
        expected_duration = 4.0 * single_flow_time
        overrides.setdefault("control_dt", max(expected_duration / 80.0, 1e-4))
        overrides.setdefault(
            "rechoke_interval", max(expected_duration / 4.0, overrides["control_dt"])
        )
    if stepping is not None:
        overrides["stepping"] = stepping
    return SwarmConfig(torrent=torrent, **overrides)


def _cluster(
    graph: WeightedGraph,
    labels: Sequence[str],
    clusterer: Callable[[WeightedGraph], Partition],
) -> Partition:
    if graph.total_weight() <= 0:
        # Degenerate measurement (no fragments exchanged): a single cluster.
        return Partition.whole(labels)
    return clusterer(graph)


class TomographyPipeline:
    """The two-phase tomography method of the paper.

    Parameters
    ----------
    topology:
        Network substrate to measure.
    hosts:
        Participating hosts (defaults to every host of the topology).
    ground_truth:
        Optional reference partition used for NMI evaluation.
    config:
        Swarm configuration; defaults to :func:`default_swarm_config`.
    seed:
        Base seed of the measurement random streams.
    clusterer:
        Function mapping a weighted graph to a :class:`Partition`; defaults to
        the Louvain method.  Swappable so that the Infomap ablation reuses the
        same pipeline.
    executor:
        Optional campaign executor (see :mod:`repro.scenarios.executors`)
        the measurement iterations fan out through; ``None`` keeps the
        serial in-process loop.  Records are bit-for-bit identical across
        backends.
    workload:
        Optional :class:`~repro.workloads.WorkloadSpec`: the measurement
        phase then runs every broadcast inside that multi-tenant workload
        (concurrent broadcasts, cross traffic, churn, capacity drift on a
        shared clock) — the interference-robustness setting of
        ``docs/workloads.md``.
    faults:
        Optional fault plan (a :class:`~repro.workloads.WorkloadSpec` of
        fault injectors, or a :mod:`repro.faults` preset name): the
        measurement phase then injects the plan's deterministic failures —
        link outages, route flaps, tracker outages, tenant cycling — into
        every iteration (see ``docs/faults.md``).
    checkpoint:
        Optional directory for per-iteration measurement checkpoints (see
        :class:`~repro.tomography.measurement.MeasurementCampaign`).
    """

    def __init__(
        self,
        topology: Topology,
        hosts: Optional[Sequence[str]] = None,
        ground_truth: Optional[Partition] = None,
        config: Optional[SwarmConfig] = None,
        seed: int = 0,
        rotate_root: bool = False,
        clusterer: Optional[Callable[[WeightedGraph], Partition]] = None,
        executor=None,
        workload=None,
        faults=None,
        checkpoint=None,
    ) -> None:
        self.topology = topology
        self.hosts = list(hosts) if hosts is not None else topology.host_names
        if ground_truth is not None:
            missing = set(self.hosts) - ground_truth.nodes()
            if missing:
                raise ValueError(
                    f"ground truth does not cover hosts: {sorted(missing)[:3]}"
                )
            ground_truth = ground_truth.restrict(self.hosts)
        self.ground_truth = ground_truth
        self.config = config or default_swarm_config()
        self.seed = seed
        self.campaign = MeasurementCampaign(
            topology,
            self.config,
            hosts=self.hosts,
            seed=seed,
            rotate_root=rotate_root,
            executor=executor,
            workload=workload,
            faults=faults,
            checkpoint=checkpoint,
        )
        self._clusterer = clusterer or (lambda graph: louvain(graph).partition)

    # ------------------------------------------------------------------ #
    def evaluate(self, partition: Partition) -> Dict[str, float]:
        """NMI scores of a partition against the configured ground truth."""
        if self.ground_truth is None:
            raise ValueError("no ground truth configured")
        return {
            "overlapping_nmi": overlapping_nmi(partition, self.ground_truth),
            "classical_nmi": normalized_mutual_information(partition, self.ground_truth),
        }

    # ------------------------------------------------------------------ #
    def run(
        self,
        iterations: int,
        track_convergence: bool = True,
        resume: bool = True,
        quorum: Optional[int] = None,
    ) -> TomographyResult:
        """Run the full two-phase method with ``iterations`` broadcasts.

        ``resume``/``quorum`` pass through to :meth:`MeasurementCampaign
        .run`: with a quorum, the analysis proceeds on the surviving ≥k of
        n iterations and the result reports itself :attr:`TomographyResult
        .degraded` instead of raising.
        """
        with TRACER.span("pipeline.measure", iterations=iterations):
            record = self.campaign.run(iterations, resume=resume, quorum=quorum)
        return self.analyze(record, track_convergence=track_convergence)

    def analyze(
        self, record: MeasurementRecord, track_convergence: bool = True
    ) -> TomographyResult:
        """Phase 2 applied to an existing measurement record.

        When the convergence curve is tracked, every prefix of 1, 2, ..., n
        iterations is aggregated (incrementally, by
        :meth:`~repro.tomography.measurement.MeasurementRecord
        .cumulative_aggregates`), clustered and scored.  The last prefix is
        the whole record, and its aggregate equals :meth:`~repro.tomography
        .measurement.MeasurementRecord.aggregate` bitwise (fragment counts
        are integers, so the running sum is exact): its aggregate, graph,
        partition and overlapping NMI are the result's, so no graph is
        built, clustered or scored twice.
        """
        analyze_started = TRACER.now() if TRACER.enabled else 0.0
        convergence: List[float] = []
        if self.ground_truth is not None and track_convergence:
            tracing = TRACER.enabled
            for k, metric in enumerate(record.cumulative_aggregates(), start=1):
                graph = metric_graph(metric)
                partition = _cluster(graph, metric.labels, self._clusterer)
                value = overlapping_nmi(partition, self.ground_truth)
                convergence.append(value)
                if tracing:
                    TRACER.event("pipeline.nmi", iterations=k, nmi=value)
        else:
            metric = record.aggregate()
            graph = metric_graph(metric)
            partition = _cluster(graph, metric.labels, self._clusterer)
        q = modularity(graph, partition) if graph.total_weight() > 0 else 0.0

        nmi = classical = None
        if convergence:
            nmi = convergence[-1]
            classical = normalized_mutual_information(partition, self.ground_truth)
        elif self.ground_truth is not None:
            scores = self.evaluate(partition)
            nmi = scores["overlapping_nmi"]
            classical = scores["classical_nmi"]

        METRICS.count("pipeline.runs")
        METRICS.count("pipeline.iterations", record.iterations)
        if TRACER.enabled:
            TRACER.span_record(
                "pipeline.analyze",
                analyze_started,
                iterations=record.iterations,
                clusters=partition.num_clusters,
                modularity=q,
                nmi=nmi,
            )
        return TomographyResult(
            metric=metric,
            graph=graph,
            partition=partition,
            modularity=q,
            record=record,
            nmi=nmi,
            classical_nmi=classical,
            nmi_per_iteration=convergence,
        )
