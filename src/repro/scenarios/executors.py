"""Campaign executors: an ordered ``map`` over worker processes.

A measurement campaign is a sequence of *independent* instrumented
broadcasts: iteration ``i`` draws from its own random stream, derived
statelessly from the base seed and the label ``("broadcast", i)`` (see
:mod:`repro.simulation.rng`).  Nothing couples one iteration to the next, so
the campaign is embarrassingly parallel — as long as the per-iteration
streams and the record order are preserved, a parallel run is bit-for-bit
identical to the serial one.

:class:`ProcessPoolExecutor` makes that fan-out explicit as
``map(fn, items)``: the items split into one contiguous chunk per worker,
each ``(fn, items)`` chunk is shipped to :func:`run_chunk` in a worker
process, and the outputs come back in item order.
:class:`~repro.tomography.measurement.MeasurementCampaign` maps its own
iteration method over the pending iterations, so a pool worker runs exactly
the code the in-process loop runs; ``executor=None`` is that in-process
loop, and ``tests/test_executors.py`` pins the bit-for-bit equality between
the two.  The backend is an argument only: a campaign or runner handed no
executor runs in-process, and no environment variable changes that
(``repro run --executor process --workers N`` selects the pool).  On a
single-core box the process pool only adds overhead — the point is that
campaign wall-clock scales ~linearly with cores on real hardware without
touching the experiment code.
"""

from __future__ import annotations

import math
import os
import time
from concurrent import futures
from typing import Callable, List, Optional, Sequence, Tuple

from repro.observability.metrics import METRICS, MetricsSnapshot
from repro.observability.tracer import TRACER, trace_from_env


def run_chunk(chunk: Tuple[Callable, Sequence]) -> Tuple[list, MetricsSnapshot]:
    """Apply ``fn`` to every item of a ``(fn, items)`` chunk, in item order
    (the worker entry point).

    Returns the outputs plus the :class:`~repro.observability.metrics
    .MetricsSnapshot` *delta* the chunk accumulated in its process.  The
    parent merges that delta only when it crossed a process boundary — a
    chunk run in-process already recorded into the global registry, and
    merging again would double-count.  In a pool worker
    :func:`~repro.observability.tracer.trace_from_env` routes trace records
    to a per-worker file (the worker inherits ``REPRO_TRACE`` from the
    parent).
    """
    fn, items = chunk
    tracing = trace_from_env()
    before = METRICS.snapshot()
    started = TRACER.now() if tracing else 0.0
    outputs = [fn(item) for item in items]
    METRICS.count("executor.tasks")
    if tracing:
        TRACER.span_record("executor.task", started, items=len(items))
        # Pool workers persist across chunks; flushing here makes the worker
        # file complete even if the pool is later terminated mid-round.
        TRACER.flush()
    return outputs, METRICS.snapshot().delta_since(before)


class CampaignExecutionError(RuntimeError):
    """A chunk kept failing after every retry (crash, hang, broken pool)."""


class ProcessPoolExecutor:
    """An ordered ``map`` over worker processes that survives worker failure.

    Parameters
    ----------
    workers:
        Worker process count; defaults to ``os.cpu_count()``.  The items of
        one :meth:`map` split into one contiguous chunk per worker.
    task_timeout:
        Wall-clock ceiling (seconds) per chunk; a round of chunks gets the
        ceiling scaled by how many chunks share one worker.  Chunks still
        unfinished at the deadline are treated as hung: their workers are
        terminated and the chunks are resubmitted to a fresh pool.
    retries:
        How many extra rounds a failed chunk (crashed worker, hang, broken
        pool) is given before :class:`CampaignExecutionError` is raised.
    retry_backoff:
        Base of the exponential sleep between retry rounds (seconds).
    task_fn:
        Worker entry point override (tests inject crashing/hanging chunks);
        must be a picklable module-level callable that takes a
        ``(fn, items)`` chunk and returns what :func:`run_chunk` returns.

    Determinism: ``fn`` travels by value with its items, and outputs are
    reassembled in item order, so whenever ``fn(item)`` depends on nothing
    but its arguments — a campaign iteration derives its random stream from
    the seed and its own index — :meth:`map` returns what the in-process
    ``[fn(item) for item in items]`` returns, regardless of worker
    scheduling, and also after crash/hang recovery, because a retried chunk
    replays from scratch.
    """

    #: Backend name recorded in CLI/benchmark output.
    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retries: int = 2,
        retry_backoff: float = 0.25,
        task_fn: Optional[Callable] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.workers = workers or os.cpu_count() or 1
        self.task_timeout = task_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.task_fn = task_fn or run_chunk
        #: Chunk failures survived across this executor's lifetime
        #: (crashes + hangs + broken pools), for post-run introspection.
        self.task_failures = 0

    def map(self, fn: Callable, items: Sequence) -> list:
        """``[fn(item) for item in items]``, computed in worker processes."""
        if not items:
            return []
        size = math.ceil(len(items) / self.workers)
        chunks = [(fn, items[i : i + size]) for i in range(0, len(items), size)]
        if (
            len(chunks) == 1
            and self.task_timeout is None
            and self.task_fn is run_chunk
        ):
            # A single well-behaved chunk gains nothing from a pool.
            return run_chunk(chunks[0])[0]

        outputs: List[Optional[list]] = [None] * len(chunks)
        pending = list(range(len(chunks)))
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
            pending, errors = self._run_round(chunks, pending, outputs)
            self.task_failures += len(pending)
            if not pending:
                return [output for chunk in outputs for output in chunk]
        raise CampaignExecutionError(
            f"{len(pending)} chunk(s) still failing after {self.retries} "
            f"retries: {'; '.join(errors[:3])}"
        )

    def _run_round(
        self,
        chunks: Sequence[Tuple[Callable, Sequence]],
        pending: List[int],
        outputs: List[Optional[list]],
    ) -> Tuple[List[int], List[str]]:
        """One submission round on a fresh pool; returns surviving failures.

        Each round gets its own pool so a round poisoned by a crashed or
        hung worker never contaminates the next: hung workers are
        terminated, and :class:`futures.process.BrokenProcessPool` (a
        worker died mid-chunk) only fails the round's unfinished chunks.
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
            pool.submit(self.task_fn, chunks[i]): i for i in pending
        }
        deadline = None
        if self.task_timeout is not None:
            # Per-chunk ceiling scaled by how many chunks share one worker.
            deadline = self.task_timeout * math.ceil(len(pending) / max_workers)
        done, not_done = futures.wait(set(future_index), timeout=deadline)
        for future in done:
            index = future_index[future]
            try:
                chunk_outputs, delta = future.result()
            except Exception as exc:  # noqa: BLE001 — any worker death retries
                failed.append(index)
                errors.append(f"chunk {index}: {type(exc).__name__}: {exc}")
                METRICS.count("executor.worker_crashes")
                if TRACER.enabled:
                    TRACER.event(
                        "executor.worker_crash",
                        task=index,
                        error=type(exc).__name__,
                    )
            else:
                outputs[index] = chunk_outputs
                # Only here — outputs that crossed a process boundary — are
                # worker registry deltas folded in; a chunk run in-process
                # already recorded straight into the parent registry.
                METRICS.merge(delta)
        for future in not_done:
            index = future_index[future]
            failed.append(index)
            errors.append(f"chunk {index}: hung past {self.task_timeout}s")
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


#: Known backends, keyed by the names ``--executor`` accepts.
EXECUTOR_NAMES = ("serial", "process")


def executor_from_name(
    name: Optional[str], workers: Optional[int] = None
) -> Optional[ProcessPoolExecutor]:
    """Instantiate a backend by name; ``None``/empty/``serial`` → ``None``,
    the in-process path."""
    key = (name or "").strip().lower() or "serial"
    if key == "serial":
        return None
    if key == "process":
        return ProcessPoolExecutor(workers=workers)
    raise ValueError(
        f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
    )
