"""Campaign executors: pluggable backends for independent seeded broadcasts.

A measurement campaign is a sequence of *independent* instrumented
broadcasts: iteration ``i`` draws from its own random stream, derived
statelessly from the base seed and the label ``("broadcast", i)`` (see
:mod:`repro.simulation.rng`).  Nothing couples one iteration to the next, so
the campaign is embarrassingly parallel — as long as the per-iteration
streams and the record order are preserved, a parallel run is bit-for-bit
identical to the serial one.

This module makes that fan-out explicit:

* :class:`BroadcastTask` — a picklable chunk of per-seed broadcasts sharing
  one topology/config (the unit of work shipped to a worker);
* :class:`ProcessPoolExecutor` — fans chunks out across worker processes.

The executor is injected into :class:`~repro.tomography.measurement
.MeasurementCampaign` and :class:`~repro.tomography.pipeline
.TomographyPipeline`; ``executor=None`` is the one in-process path, and
``tests/test_executors.py`` pins the bit-for-bit equality between the two.
On a single-core box the process pool only adds overhead — the point is
that campaign wall-clock scales ~linearly with cores on real hardware
without touching the experiment code.
"""

from __future__ import annotations

import math
import os
import time
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.bittorrent.swarm import BitTorrentBroadcast, BroadcastResult, SwarmConfig
from repro.network.topology import Topology
from repro.observability.metrics import METRICS, MetricsSnapshot
from repro.observability.tracer import TRACER, trace_from_env
from repro.simulation.rng import RandomStreams

#: One broadcast of a task: the random-stream label path (relative to the
#: task's base seed) and the seeding root (``None`` → first host).
IterationSpec = Tuple[Tuple[object, ...], Optional[str]]

#: Environment variable naming the default backend (``serial``/``process``).
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: Environment variable overriding the process-pool worker count.
WORKERS_ENV = "REPRO_EXECUTOR_WORKERS"


@dataclass(frozen=True)
class BroadcastTask:
    """A chunk of independent seeded broadcasts on one topology.

    Everything needed to replay the broadcasts is carried by value (the task
    must survive pickling into a worker process): the substrate, the swarm
    configuration, the participating hosts, the base seed, and one
    :data:`IterationSpec` per broadcast.  The worker derives each broadcast's
    generator as ``RandomStreams(base_seed).stream(*labels)`` — the same
    stateless derivation the serial path uses, which is what makes parallel
    execution bit-for-bit identical.

    ``workload`` and ``faults`` carry the campaign's multi-tenant
    interference spec and fault plan (both frozen and picklable) into the
    worker; when either is set the broadcasts run through
    :func:`~repro.workloads.spec.run_workload_iteration` on the shared
    workload agenda, with the iteration index recovered from each spec's
    stream label — so ``--executor process`` campaigns run the exact
    workload the serial path runs instead of silently dropping it.
    """

    topology: Topology
    config: SwarmConfig
    hosts: Optional[Tuple[str, ...]]
    base_seed: int
    specs: Tuple[IterationSpec, ...]
    workload: Optional[object] = None
    faults: Optional[object] = None


@dataclass(frozen=True)
class TaskOutput:
    """What a worker ships back for one task: the broadcast results in spec
    order plus, for multi-tenant tasks, the per-iteration actor stats
    (``None`` entries for plain single-tenant broadcasts).

    ``metrics`` is the :class:`~repro.observability.metrics.MetricsSnapshot`
    *delta* the task accumulated in its process.  It is merged into the
    parent registry only when it crossed a process boundary — a task run
    in-process already recorded into the global registry, and merging
    again would double-count.
    """

    results: Tuple[BroadcastResult, ...]
    stats: Tuple[Optional[List[dict]], ...]
    metrics: Optional[MetricsSnapshot] = None


def _execute_task_body(task: BroadcastTask) -> TaskOutput:
    hosts = list(task.hosts) if task.hosts is not None else None
    if task.workload is not None or task.faults is not None:
        from repro.network.routing import RoutingTable
        from repro.workloads.spec import run_workload_iteration

        routing = RoutingTable(task.topology)
        results: List[BroadcastResult] = []
        stats: List[Optional[List[dict]]] = []
        for labels, root in task.specs:
            result, actor_stats = run_workload_iteration(
                task.topology,
                task.config,
                hosts,
                root,
                task.base_seed,
                int(labels[-1]),
                task.workload,
                routing=routing,
                faults=task.faults,
            )
            results.append(result)
            stats.append(actor_stats)
        return TaskOutput(tuple(results), tuple(stats))

    broadcast = BitTorrentBroadcast(task.topology, task.config, hosts=hosts)
    streams = RandomStreams(task.base_seed)
    results = [
        broadcast.run(root=root, rng=streams.stream(*labels))
        for labels, root in task.specs
    ]
    return TaskOutput(tuple(results), tuple(None for _ in results))


def execute_task_output(task: BroadcastTask) -> TaskOutput:
    """Run every broadcast of a task in order (the worker entry point).

    Single-tenant tasks build one :class:`BitTorrentBroadcast` (and routing
    table) per task, mirroring the serial campaign's reuse across
    iterations; multi-tenant tasks route every iteration through the shared
    workload engine exactly as the serial path does.

    Telemetry: in a pool worker :func:`~repro.observability.tracer
    .trace_from_env` routes trace records to a per-worker file (the worker
    inherits ``REPRO_TRACE`` from the parent), and the registry delta the
    task accumulated travels back on :attr:`TaskOutput.metrics` for the
    parent to merge.
    """
    tracing = trace_from_env()
    before = METRICS.snapshot()
    task_started = TRACER.now() if tracing else 0.0
    output = _execute_task_body(task)
    METRICS.count("executor.tasks")
    if tracing:
        TRACER.span_record(
            "executor.task", task_started, broadcasts=len(task.specs)
        )
        # Pool workers persist across tasks; flushing here makes the worker
        # file complete even if the pool is later terminated mid-round.
        TRACER.flush()
    delta = METRICS.snapshot().delta_since(before)
    return TaskOutput(output.results, output.stats, delta)


class CampaignExecutionError(RuntimeError):
    """A task kept failing after every retry (crash, hang, broken pool)."""


class ProcessPoolExecutor:
    """Fan tasks out across worker processes, surviving worker failure.

    Parameters
    ----------
    workers:
        Worker process count; defaults to ``os.cpu_count()``.
    chunk_size:
        Broadcasts per task; defaults to an even split across workers
        (contiguous chunks, so results reassemble in iteration order by
        construction).
    task_timeout:
        Wall-clock ceiling (seconds) per task; a round of tasks gets the
        ceiling scaled by how many tasks share one worker.  Tasks still
        unfinished at the deadline are treated as hung: their workers are
        terminated and the tasks are resubmitted to a fresh pool.
    retries:
        How many extra rounds a failed task (crashed worker, hang, broken
        pool) is given before :class:`CampaignExecutionError` is raised.
    retry_backoff:
        Base of the exponential sleep between retry rounds (seconds).
    task_fn:
        Worker entry point override (tests inject crashing/hanging tasks);
        must be a picklable module-level callable taking a task.

    Determinism: each broadcast's random stream is derived from the base
    seed and its own label inside the worker, and outputs are reassembled
    in submission order, so the resulting record is byte-identical to the
    in-process loop's regardless of worker scheduling — including
    after crash/hang recovery, because a retried task replays the same
    streams from scratch.
    """

    #: Backend name recorded in CLI/benchmark output.
    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retries: int = 2,
        retry_backoff: float = 0.25,
        task_fn: Optional[Callable[[BroadcastTask], TaskOutput]] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.workers = workers or os.cpu_count() or 1
        self.chunk_size = chunk_size
        self.task_timeout = task_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.task_fn = task_fn or execute_task_output
        #: Task failures survived across this executor's lifetime
        #: (crashes + hangs + broken pools), for post-run introspection.
        self.task_failures = 0

    def chunk_specs(
        self, specs: Sequence[IterationSpec]
    ) -> List[Tuple[IterationSpec, ...]]:
        """Split iteration specs into contiguous per-task chunks."""
        if not specs:
            return []
        size = self.chunk_size or math.ceil(len(specs) / self.workers)
        return [tuple(specs[i : i + size]) for i in range(0, len(specs), size)]

    def run_tasks(self, tasks: Sequence[BroadcastTask]) -> List[BroadcastResult]:
        """Run tasks and flatten the broadcast results, in task order."""
        return [
            result
            for output in self.run_task_outputs(tasks)
            for result in output.results
        ]

    def run_campaign(
        self,
        topology: Topology,
        config: SwarmConfig,
        hosts: Optional[Sequence[str]],
        base_seed: int,
        specs: Sequence[IterationSpec],
        workload=None,
        faults=None,
    ) -> Tuple[List[BroadcastResult], List[Optional[List[dict]]]]:
        """Run one campaign with its workload/fault plans.

        Returns ``(results, stats)`` flattened in spec order; ``stats[i]``
        is the iteration's per-actor stats list (``None`` for single-tenant
        iterations).
        """
        host_tuple = tuple(hosts) if hosts is not None else None
        outputs = self.run_task_outputs([
            BroadcastTask(
                topology, config, host_tuple, base_seed, chunk, workload, faults
            )
            for chunk in self.chunk_specs(list(specs))
        ])
        results = [r for output in outputs for r in output.results]
        stats = [s for output in outputs for s in output.stats]
        return results, stats

    def run_task_outputs(
        self, tasks: Sequence[BroadcastTask]
    ) -> List[TaskOutput]:
        """Run tasks concurrently; outputs come back in task order."""
        if not tasks:
            return []
        if (
            len(tasks) == 1
            and self.task_timeout is None
            and self.task_fn is execute_task_output
        ):
            # A single well-behaved chunk gains nothing from a pool.
            return [execute_task_output(tasks[0])]

        outputs: List[Optional[TaskOutput]] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        errors: List[str] = []
        for attempt in range(self.retries + 1):
            if attempt:
                METRICS.count("executor.retries")
                if TRACER.enabled:
                    TRACER.event(
                        "executor.retry", attempt=attempt, tasks=len(pending)
                    )
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * (2.0 ** (attempt - 1)))
            pending, errors = self._run_round(tasks, pending, outputs)
            self.task_failures += len(pending)
            if not pending:
                return [output for output in outputs if output is not None]
        raise CampaignExecutionError(
            f"{len(pending)} task(s) still failing after {self.retries} "
            f"retries: {'; '.join(errors[:3])}"
        )

    def _run_round(
        self,
        tasks: Sequence[BroadcastTask],
        pending: List[int],
        outputs: List[Optional[TaskOutput]],
    ) -> Tuple[List[int], List[str]]:
        """One submission round on a fresh pool; returns surviving failures.

        Each round gets its own pool so a round poisoned by a crashed or
        hung worker never contaminates the next: hung workers are
        terminated, and :class:`futures.process.BrokenProcessPool` (a
        worker died mid-task) only fails the round's unfinished tasks.
        """
        failed: List[int] = []
        errors: List[str] = []
        round_started = TRACER.now() if TRACER.enabled else 0.0
        max_workers = min(self.workers, len(pending))
        # Fork-started workers inherit the tracer's open sink; flush it so
        # the copy they inherit holds no buffered records (each worker then
        # closes its copy and re-routes to a per-pid sibling file — see
        # trace_from_env).
        TRACER.flush()
        pool = futures.ProcessPoolExecutor(max_workers=max_workers)
        future_index = {
            pool.submit(self.task_fn, tasks[i]): i for i in pending
        }
        deadline = None
        if self.task_timeout is not None:
            # Per-task ceiling scaled by how many tasks share one worker.
            deadline = self.task_timeout * math.ceil(len(pending) / max_workers)
        done, not_done = futures.wait(set(future_index), timeout=deadline)
        for future in done:
            index = future_index[future]
            try:
                output = future.result()
            except Exception as exc:  # noqa: BLE001 — any worker death retries
                failed.append(index)
                errors.append(f"task {index}: {type(exc).__name__}: {exc}")
                METRICS.count("executor.worker_crashes")
                if TRACER.enabled:
                    TRACER.event(
                        "executor.worker_crash",
                        task=index,
                        error=type(exc).__name__,
                    )
            else:
                outputs[index] = output
                # Only here — results that crossed a process boundary — are
                # worker registry deltas folded in; tasks run in-process
                # already recorded straight into the parent registry.
                METRICS.merge(getattr(output, "metrics", None))
        for future in not_done:
            index = future_index[future]
            failed.append(index)
            errors.append(f"task {index}: hung past {self.task_timeout}s")
            METRICS.count("executor.timeouts")
            if TRACER.enabled:
                TRACER.event(
                    "executor.timeout", task=index, deadline_s=deadline
                )
            future.cancel()
        if not_done:
            # Hung workers never come back: kill them before abandoning the
            # pool so the retry round starts from clean processes.
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)
        failed.sort()
        if TRACER.enabled:
            TRACER.span_record(
                "executor.round",
                round_started,
                workers=max_workers,
                submitted=len(future_index),
                failed=len(failed),
            )
        return failed, errors


#: Known backends, keyed by the names accepted on the CLI and in the
#: :data:`EXECUTOR_ENV` environment variable.
EXECUTOR_NAMES = ("serial", "process")


def executor_from_name(
    name: Optional[str],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> Optional[ProcessPoolExecutor]:
    """Instantiate a backend by name; ``None``/empty/``serial`` → ``None``,
    the in-process path."""
    key = (name or "").strip().lower() or "serial"
    if key == "serial":
        return None
    if key == "process":
        if workers is None:
            workers = workers_from_env()
        return ProcessPoolExecutor(workers=workers, chunk_size=chunk_size)
    raise ValueError(
        f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
    )


def default_executor() -> Optional[ProcessPoolExecutor]:
    """Backend selected by the environment, or ``None`` for the serial path.

    ``REPRO_EXECUTOR=process`` (optionally with ``REPRO_EXECUTOR_WORKERS=n``)
    routes every campaign that does not receive an explicit executor through
    the process pool — this is how ``benchmarks/run_benchmarks.py
    --executor process`` switches the whole benchmark suite over without
    touching each benchmark.
    """
    return executor_from_name(os.environ.get(EXECUTOR_ENV))


def workers_from_env() -> Optional[int]:
    """Validated worker count from :data:`WORKERS_ENV` (``None`` if unset).

    Rejects non-integers and values below 1 with a clear error instead of
    letting them surface as a deep ``concurrent.futures`` traceback.
    """
    workers_raw = os.environ.get(WORKERS_ENV, "").strip()
    if not workers_raw:
        return None
    try:
        workers = int(workers_raw)
    except ValueError as exc:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, got {workers_raw!r}"
        ) from exc
    if workers < 1:
        raise ValueError(
            f"{WORKERS_ENV} must be at least 1, got {workers}"
        )
    return workers
