"""Process-wide metrics registry: named counters.

This is the successor of the old module-global ``RUN_TALLY`` dict in
``repro.bittorrent.swarm``: every subsystem increments *named* counters on one
shared :class:`MetricsRegistry` (:data:`METRICS`), and consumers take
*snapshots* — cheap, picklable, mergeable value objects — instead of peeking
at a mutable global.  A counter is a count of simulated work (broadcasts,
receipts, dispatches, retries); wall-clock time belongs to the ``--trace``
spans and perfbench, and a run's results to its summary.

Three properties carry the whole design:

* **cheap by default** — recording a counter is one dict update and no
  allocation beyond the key; there is no I/O, no locking (registries are
  per-process, and the simulator is single-threaded within a process) and no
  formatting until a snapshot is asked for.  Telemetry never draws random
  values and never touches the simulation clock, so every seed golden replays
  bit-for-bit with metrics on (they are always on) — see
  ``tests/test_seed_replay.py``.
* **merge across processes** — executor workers return a
  :class:`MetricsSnapshot` *delta* alongside their outputs (see
  :func:`repro.scenarios.executors.run_chunk`); the parent merges the
  deltas into its own registry, so a ``--executor process`` campaign ends
  with the same merged counters as the serial run
  (``tests/test_executors.py`` pins the equality).
* **replayable** — a delta depends only on the work done inside it, not on
  what ran earlier in the process, so a ``--json`` record (metrics included)
  is a pure function of scenario, knobs and seed
  (``tests/test_cli.py`` replays one byte for byte).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, picklable copy of a registry's counters.

    ``later.delta_since(earlier)`` scopes the counters to one run; the
    process-pool parent folds worker deltas in with
    :meth:`MetricsRegistry.merge`.
    """

    counters: Dict[str, float] = field(default_factory=dict)

    def counter(self, name: str, default: float = 0) -> float:
        """Value of one counter (``default`` when never incremented)."""
        return self.counters.get(name, default)

    def delta_since(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counters accumulated since ``earlier``.

        Zero deltas are dropped, so the result names exactly the counters the
        measured interval touched.
        """
        counters = {}
        for name, value in self.counters.items():
            delta = value - earlier.counters.get(name, 0)
            if delta:
                counters[name] = delta
        return MetricsSnapshot(counters)

    def jsonable(self) -> Dict[str, object]:
        """Plain-dict form for JSON embedding (``--json`` files)."""
        return {"counters": {k: self.counters[k] for k in sorted(self.counters)}}

    def __bool__(self) -> bool:
        return bool(self.counters)


class MetricsRegistry:
    """Mutable per-process counter store (use the shared :data:`METRICS`).

    Every mutator is an O(1) dict update; nothing here allocates per-event
    records or performs I/O, which is what keeps the always-on registry
    within the ≤1% disabled-telemetry overhead budget
    (``docs/observability.md`` records the measurement).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}

    def count(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value`` (default 1)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of the current counters."""
        return MetricsSnapshot(dict(self._counters))

    def merge(self, snapshot: Optional[MetricsSnapshot]) -> None:
        """Fold a (worker) snapshot delta into this registry."""
        if snapshot is None:
            return
        for name, value in snapshot.counters.items():
            self.count(name, value)


#: The process-wide registry every subsystem records into.
METRICS = MetricsRegistry()


#: Metric catalogue: every well-known counter with its meaning, the
#: reference for ``repro metrics`` and docs/observability.md.  Subsystems may
#: add further names (e.g. per-fault-kind counters) following the same
#: ``subsystem.metric`` convention.
METRIC_CATALOGUE: Dict[str, str] = {
    "swarm.broadcasts": "broadcasts completed in this process",
    "swarm.control_steps": "control points the swarm loops executed",
    "swarm.broadcasts.fixed": "broadcasts run with fixed stepping",
    "swarm.broadcasts.event": "broadcasts run with event stepping",
    "swarm.receipts": "fragments received across all broadcasts",
    "executor.tasks": "campaign task chunks executed",
    "executor.retries": "retry rounds the process pool needed",
    "executor.timeouts": "tasks declared hung past their deadline",
    "executor.worker_crashes": "tasks lost to crashed/broken workers",
    "campaign.iterations": "measurement iterations collected",
    "campaign.checkpoint_writes": "per-iteration checkpoints written",
    "campaign.checkpoint_resumes": "iterations restored from disk",
    "workload.dispatches": "agenda events dispatched by workload engines",
    "workload.network_changes": "shared-allocation change broadcasts",
    "faults.injected": "fault events injected (all kinds)",
    "faults.link-failure": "link failures injected",
    "faults.link-repair": "failed links repaired",
    "faults.route-flap": "route flaps started",
    "faults.route-settle": "route flaps settled",
    "faults.tracker-outage": "tracker outages started",
    "faults.tracker-recover": "tracker outages recovered",
    "faults.tenant-arrival": "tenants cycled in mid-iteration",
    "faults.tenant-departure": "tenants cycled out mid-iteration",
    "routing.recomputes": "avoid-set routing tables derived by the control plane",
    "routing.repins": "live flows moved onto recomputed routes",
    "routing.fallback_hits": "route lookups served by the fallback table (no detour existed)",
    "localization.runs": "fault-localization analyses performed",
    "localization.named": "localizations that named a single link",
    "localization.ambiguous": "localizations degraded to a tied candidate set",
    "pipeline.runs": "tomography pipeline analyses",
    "pipeline.iterations": "iterations aggregated by pipelines",
    "louvain.runs": "Louvain clusterings performed",
    "louvain.levels": "aggregation levels across all runs",
    "louvain.passes": "local-moving sweeps across all runs",
}
