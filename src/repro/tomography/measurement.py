"""Measurement campaigns: repeated synchronized BitTorrent broadcasts.

A campaign runs ``n`` instrumented broadcasts on the same host set (optionally
rotating the seeding root, which the paper suggests as a remedy for the
asymmetry of broadcast traffic), collects the per-iteration
:class:`FragmentMatrix` measurements, and exposes cumulative aggregates so
that convergence with the number of iterations (Fig. 13) can be studied.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.scenarios.executors import ProcessPoolExecutor

from repro.bittorrent.instrumentation import FragmentMatrix
from repro.bittorrent.swarm import BitTorrentBroadcast, BroadcastResult, SwarmConfig
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.observability.metrics import METRICS
from repro.observability.tracer import TRACER
from repro.simulation.rng import derive_seed
from repro.tomography.metric import EdgeMetric, aggregate_mean

#: On-disk checkpoint layout version (bump on incompatible change).
CHECKPOINT_VERSION = 3


@dataclass
class MeasurementRecord:
    """Everything collected during one measurement campaign.

    Attributes
    ----------
    hosts:
        Host order shared by all matrices.
    results:
        Per-iteration broadcast results (fragment matrices, durations, roots).
    """

    hosts: List[str]
    results: List[BroadcastResult] = field(default_factory=list)
    #: Per-iteration actor stats when the campaign ran inside a workload
    #: (one list of per-actor dicts per iteration); empty for single-tenant
    #: campaigns.
    workload_stats: List[List[Dict[str, object]]] = field(default_factory=list)
    #: True when the campaign proceeded on a quorum: some planned
    #: iterations failed and the matrices aggregate fewer samples.
    degraded: bool = False
    #: Zero-based indices of planned iterations that failed (quorum runs).
    failed_iterations: List[int] = field(default_factory=list)
    #: Iterations the campaign was asked for (``None`` → same as achieved).
    planned_iterations: Optional[int] = None

    @property
    def iterations(self) -> int:
        return len(self.results)

    @property
    def matrices(self) -> List[FragmentMatrix]:
        return [r.fragments for r in self.results]

    @property
    def durations(self) -> List[float]:
        return [r.duration for r in self.results]

    @property
    def control_steps(self) -> List[int]:
        """Per-iteration count of control points the swarm loop executed."""
        return [r.control_steps for r in self.results]

    def total_measurement_time(self) -> float:
        """Simulated wall-clock cost of the whole campaign (sum of broadcasts)."""
        return float(sum(self.durations))

    def total_control_steps(self) -> int:
        """Control points executed across the campaign (the event mode's
        figure of merit; see docs/simulation.md)."""
        return int(sum(self.control_steps))

    def aggregate(self, iterations: Optional[int] = None) -> EdgeMetric:
        """Metric aggregated over the first ``iterations`` runs (all by default)."""
        if not self.results:
            raise ValueError("campaign has no measurements yet")
        count = self.iterations if iterations is None else iterations
        if not 1 <= count <= self.iterations:
            raise ValueError(
                f"iterations must be in [1, {self.iterations}], got {count}"
            )
        return aggregate_mean(self.matrices[:count])

    def cumulative_aggregates(self) -> List[EdgeMetric]:
        """Aggregates after 1, 2, ..., n iterations (the Fig. 13 x-axis).

        Maintained incrementally: one running sum over the symmetrised
        matrices, divided by the prefix length — O(n) matrix passes instead
        of the O(n²) of re-averaging every prefix.  Fragment counts are
        integer-valued, so the running sum is exact and each prefix mean is
        identical to what :meth:`aggregate` computes.
        """
        if not self.results:
            raise ValueError("campaign has no measurements yet")
        matrices = self.matrices
        labels = matrices[0].labels
        for m in matrices[1:]:
            if m.labels != labels:
                raise ValueError("all measurements must share the same host order")
        running = np.zeros((len(labels), len(labels)), dtype=float)
        aggregates: List[EdgeMetric] = []
        for k, matrix in enumerate(matrices, start=1):
            running += matrix.symmetric_weights()
            mean = running / k
            np.fill_diagonal(mean, 0.0)
            aggregates.append(
                EdgeMetric(labels=tuple(labels), weights=mean, iterations=k)
            )
        return aggregates


class MeasurementCampaign:
    """Runs the measurement phase of the tomography method.

    Parameters
    ----------
    topology:
        Network substrate.
    hosts:
        Participating hosts (defaults to all hosts of the topology).
    config:
        Swarm configuration (torrent size, protocol knobs).
    seed:
        Base random seed; iteration ``i`` uses an independent derived stream,
        so that single-run statistics (Fig. 5) are meaningful.
    rotate_root:
        When True, iteration ``i`` is seeded by host ``i mod len(hosts)``;
        otherwise the first host always seeds (the paper's default setup).
    executor:
        Optional :class:`~repro.scenarios.executors.ProcessPoolExecutor`
        that :meth:`run` maps the pending iterations through.  ``None`` runs
        the in-process loop.  Both run the same per-iteration method, every
        iteration's random stream is derived statelessly from ``(seed,
        "broadcast", i)`` and outputs come back in iteration order, so the
        pooled record is bit-for-bit identical to the serial one.
    workload:
        Optional :class:`~repro.workloads.WorkloadSpec`: every measured
        broadcast then runs inside a multi-tenant
        :class:`~repro.workloads.WorkloadEngine` with the spec's background
        actors (rival broadcasts, cross traffic, churn, capacity drift)
        sharing the clock and the fluid network.  The measured broadcast
        keeps the standard ``(seed, "broadcast", i)`` stream, so the empty
        workload reproduces the single-tenant campaign bit for bit.
    faults:
        Optional fault plan (a :class:`~repro.workloads.WorkloadSpec` of
        fault injectors, or a :mod:`repro.faults` preset name): each
        iteration then also carries the plan's fault injectors — link
        failures, route flaps, tracker outages, tenant cycling — on the
        shared agenda, seeded from ``(seed, "fault", i, label)`` streams.
        The empty plan is dropped and changes nothing.
    checkpoint:
        Optional directory for per-iteration checkpoints.  After every
        completed iteration its result (and workload stats) is pickled to
        ``iter_{i:05d}.pkl`` via an atomic rename; :meth:`run` with
        ``resume=True`` (the default) skips iterations already on disk, so
        a campaign killed mid-run resumes where it stopped and produces a
        record byte-identical to an uninterrupted one.
    """

    def __init__(
        self,
        topology: Topology,
        config: SwarmConfig,
        hosts: Optional[Sequence[str]] = None,
        seed: int = 0,
        rotate_root: bool = False,
        executor: Optional["ProcessPoolExecutor"] = None,
        workload=None,
        faults=None,
        checkpoint=None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.hosts = list(hosts) if hosts is not None else topology.host_names
        self.seed = int(seed)
        self.rotate_root = rotate_root
        self.executor = executor
        # The empty workload is the classic single-tenant campaign, and the
        # empty fault plan the fault-free one.
        if workload is not None:
            from repro.workloads import workload_from_name

            workload = workload_from_name(workload) or None
        self.workload = workload
        if faults is not None:
            from repro.faults import fault_plan_from_name

            faults = fault_plan_from_name(faults) or None
        self.faults = faults
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.routing = RoutingTable(topology)
        self._broadcast = BitTorrentBroadcast(
            topology, config, hosts=self.hosts, routing=self.routing
        )

    def root_of(self, iteration: int) -> str:
        """Seeding host of broadcast number ``iteration`` (zero-based)."""
        if self.rotate_root:
            return self.hosts[iteration % len(self.hosts)]
        return self.hosts[0]

    def run_iteration(self, iteration: int, root: Optional[str] = None) -> BroadcastResult:
        """Run broadcast number ``iteration`` (zero-based) and return its result.

        The generator is freshly derived from ``(seed, "broadcast",
        iteration)`` on every call — never reused across calls — so
        replaying an iteration (or re-running the campaign, in this process
        or in a pool worker) is idempotent.
        """
        if root is None:
            root = self.root_of(iteration)
        rng = np.random.default_rng(
            derive_seed(self.seed, "broadcast", iteration)
        )
        return self._broadcast.run(root=root, rng=rng)

    @property
    def _multi_tenant(self) -> bool:
        return self.workload is not None or self.faults is not None

    def _run_one(self, iteration: int) -> Tuple[BroadcastResult, Optional[list]]:
        """One iteration: ``(result, actor stats or None)``.  The in-process
        loop calls it, and the executor maps it (with the pickled campaign)
        over chunks of iterations in worker processes."""
        if self._multi_tenant:
            from repro.workloads import run_workload_iteration

            return run_workload_iteration(
                self.topology,
                self.config,
                self.hosts,
                self.root_of(iteration),
                self.seed,
                iteration,
                self.workload,
                routing=self.routing,
                faults=self.faults,
            )
        return self.run_iteration(iteration), None

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def _checkpoint_path(self, iteration: int) -> Path:
        return self.checkpoint / f"iter_{iteration:05d}.pkl"

    def _checkpoint_inputs(self, iteration: int) -> Dict[str, object]:
        """What decides iteration ``iteration``'s result, besides the seed."""
        return {
            "config": self.config,
            "hosts": list(self.hosts),
            "root": self.root_of(iteration),
            "workload": self.workload,
            "faults": self.faults,
        }

    def _save_checkpoint(
        self, iteration: int, result: BroadcastResult, stats: Optional[list]
    ) -> None:
        """Atomically persist one finished iteration (tmp + rename), so a
        kill mid-write never leaves a truncated checkpoint behind."""
        self.checkpoint.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CHECKPOINT_VERSION,
            "seed": self.seed,
            "iteration": iteration,
            "inputs": self._checkpoint_inputs(iteration),
            "result": result,
            "stats": stats,
        }
        path = self._checkpoint_path(iteration)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle)
        os.replace(tmp, path)
        METRICS.count("campaign.checkpoint_writes")
        if TRACER.enabled:
            TRACER.event("checkpoint.write", iteration=iteration)

    def _load_checkpoint(
        self, iteration: int
    ) -> Optional[Tuple[BroadcastResult, Optional[list]]]:
        """A completed iteration from disk, or ``None`` to (re-)run it.

        Unreadable or version-skewed checkpoints are treated as missing;
        a checkpoint of another campaign (another seed, swarm config, host
        list, root, workload or fault plan) raises, because silently mixing
        measurements from two different campaigns would corrupt the record.
        """
        path = self._checkpoint_path(iteration)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            return None
        if payload.get("version") != CHECKPOINT_VERSION:
            return None
        if payload.get("seed") != self.seed:
            raise ValueError(
                f"checkpoint {path} belongs to seed {payload.get('seed')}, "
                f"not this campaign's seed {self.seed}"
            )
        if payload.get("iteration") != iteration:
            return None
        stored = payload.get("inputs", {})
        differ = [
            name for name, value in self._checkpoint_inputs(iteration).items()
            if stored.get(name) != value
        ]
        if differ:
            raise ValueError(
                f"checkpoint {path} belongs to another campaign: its "
                f"{', '.join(differ)} differ from this campaign's"
            )
        METRICS.count("campaign.checkpoint_resumes")
        if TRACER.enabled:
            TRACER.event("checkpoint.resume", iteration=iteration)
        return payload["result"], payload.get("stats")

    # ------------------------------------------------------------------ #
    def run(
        self,
        iterations: int,
        resume: bool = True,
        quorum: Optional[int] = None,
    ) -> MeasurementRecord:
        """Run ``iterations`` synchronized broadcasts and collect the record.

        ``resume`` (with a ``checkpoint`` directory) skips iterations whose
        results are already on disk.  ``quorum`` enables graceful
        degradation: instead of aborting on the first failed iteration, the
        campaign keeps going and returns once at least ``quorum`` of the
        planned iterations succeeded, flagging the record ``degraded`` and
        listing the casualties; fewer survivors than the quorum raises.
        """
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        if quorum is not None and not 1 <= quorum <= iterations:
            raise ValueError(
                f"quorum must be in [1, {iterations}], got {quorum}"
            )
        outputs: Dict[int, Tuple[BroadcastResult, Optional[list]]] = {}
        failed: List[int] = []
        pending = list(range(iterations))
        if self.checkpoint is not None and resume:
            for i in list(pending):
                loaded = self._load_checkpoint(i)
                if loaded is not None:
                    outputs[i] = loaded
                    pending.remove(i)

        if self.executor is not None and quorum is None:
            ran = zip(pending, self.executor.map(self._run_one, pending))
            for i, output in ran:
                outputs[i] = output
                if self.checkpoint is not None:
                    self._save_checkpoint(i, *output)
        else:
            for i in pending:
                try:
                    outputs[i] = self._run_one(i)
                except Exception:
                    if quorum is None:
                        raise
                    failed.append(i)
                    continue
                if self.checkpoint is not None:
                    self._save_checkpoint(i, *outputs[i])

        if quorum is not None and len(outputs) < quorum:
            raise RuntimeError(
                f"campaign quorum not met: {len(outputs)} of {iterations} "
                f"iterations succeeded, needed {quorum}"
            )
        METRICS.count("campaign.iterations", len(outputs))
        record = MeasurementRecord(
            hosts=list(self.hosts),
            degraded=bool(failed),
            failed_iterations=sorted(failed),
            planned_iterations=iterations,
        )
        for i in sorted(outputs):
            result, stats = outputs[i]
            record.results.append(result)
            if stats is not None:
                record.workload_stats.append(stats)
        return record
