"""Process-wide metrics registry: counters, gauges and histograms/timers.

This is the successor of the old module-global ``RUN_TALLY`` dict in
``repro.bittorrent.swarm``: every subsystem increments *named* metrics on one
shared :class:`MetricsRegistry` (:data:`METRICS`), and consumers take
*snapshots* — cheap, picklable, mergeable value objects — instead of peeking
at a mutable global.

Three metric kinds:

* **counters** — monotonically increasing totals (``registry.count(name, n)``);
* **gauges** — last-value-wins observations (``registry.gauge(name, v)``);
* **histograms** — ``(count, total, min, max)`` summaries of repeated
  observations (``registry.observe(name, v)``; :meth:`MetricsRegistry.timer`
  observes wall-clock seconds around a block).

Two properties carry the whole design:

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
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

#: Histogram summary tuple: (count, total, minimum, maximum).
HistStat = Tuple[int, float, float, float]


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, picklable copy of a registry's state.

    Snapshots support subtraction (``later.delta_since(earlier)``) to scope
    metrics to one run, and merging (``a.merged(b)``) to combine the deltas
    shipped back by executor workers.  Gauges are last-value-wins: a merge
    keeps ``other``'s gauge where both define it.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistStat] = field(default_factory=dict)

    def counter(self, name: str, default: float = 0.0) -> float:
        """Value of one counter (``default`` when never incremented)."""
        return self.counters.get(name, default)

    def delta_since(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counters/histograms accumulated since ``earlier``; gauges kept.

        Zero deltas are dropped, so the result names exactly the metrics the
        measured interval touched.
        """
        counters = {}
        for name, value in self.counters.items():
            delta = value - earlier.counters.get(name, 0.0)
            if delta:
                counters[name] = delta
        histograms = {}
        for name, (count, total, lo, hi) in self.histograms.items():
            prev = earlier.histograms.get(name)
            if prev is None:
                histograms[name] = (count, total, lo, hi)
            elif count > prev[0]:
                # min/max cannot be un-merged; the interval inherits them.
                histograms[name] = (count - prev[0], total - prev[1], lo, hi)
        return MetricsSnapshot(counters, dict(self.gauges), histograms)

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot with ``other``'s deltas added on top."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = {**self.gauges, **other.gauges}
        histograms = dict(self.histograms)
        for name, (count, total, lo, hi) in other.histograms.items():
            prev = histograms.get(name)
            if prev is None:
                histograms[name] = (count, total, lo, hi)
            else:
                histograms[name] = (
                    prev[0] + count,
                    prev[1] + total,
                    min(prev[2], lo),
                    max(prev[3], hi),
                )
        return MetricsSnapshot(counters, gauges, histograms)

    def jsonable(self) -> Dict[str, object]:
        """Plain-dict form for JSON embedding (``--json`` files)."""
        out: Dict[str, object] = {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }
        if self.gauges:
            out["gauges"] = {k: self.gauges[k] for k in sorted(self.gauges)}
        if self.histograms:
            out["histograms"] = {
                name: {
                    "count": stat[0],
                    "total": stat[1],
                    "min": stat[2],
                    "max": stat[3],
                }
                for name, stat in sorted(self.histograms.items())
            }
        return out

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)


class MetricsRegistry:
    """Mutable per-process metric store (use the shared :data:`METRICS`).

    All mutators are O(1) dict updates; nothing here allocates per-event
    records or performs I/O, which is what keeps the always-on registry
    within the ≤1% disabled-telemetry overhead budget
    (``docs/observability.md`` records the measurement).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, list] = {}

    # ------------------------------------------------------------------ #
    def count(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value`` (default 1)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observation."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``."""
        stat = self._histograms.get(name)
        if stat is None:
            self._histograms[name] = [1, value, value, value]
        else:
            stat[0] += 1
            stat[1] += value
            if value < stat[2]:
                stat[2] = value
            if value > stat[3]:
                stat[3] = value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Observe the wall-clock seconds of the enclosed block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of the current state."""
        return MetricsSnapshot(
            dict(self._counters),
            dict(self._gauges),
            {name: tuple(stat) for name, stat in self._histograms.items()},
        )

    def merge(self, snapshot: Optional[MetricsSnapshot]) -> None:
        """Fold a (worker) snapshot delta into this registry."""
        if snapshot is None:
            return
        for name, value in snapshot.counters.items():
            self.count(name, value)
        for name, value in snapshot.gauges.items():
            self.gauge(name, value)
        for name, (count, total, lo, hi) in snapshot.histograms.items():
            stat = self._histograms.get(name)
            if stat is None:
                self._histograms[name] = [count, total, lo, hi]
            else:
                stat[0] += count
                stat[1] += total
                stat[2] = min(stat[2], lo)
                stat[3] = max(stat[3], hi)

    def reset(self) -> None:
        """Drop every recorded metric (tests and long-lived services)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry every subsystem records into.
METRICS = MetricsRegistry()


#: Metric catalogue: every well-known name with its kind and meaning, the
#: reference for ``repro metrics`` and docs/observability.md.  Subsystems may
#: add further names (e.g. per-fault-kind counters) following the same
#: ``subsystem.metric`` convention.
METRIC_CATALOGUE: Dict[str, Tuple[str, str]] = {
    "swarm.broadcasts": ("counter", "broadcasts completed in this process"),
    "swarm.control_steps": ("counter", "control points the swarm loops executed"),
    "swarm.broadcasts.fixed": ("counter", "broadcasts run with fixed stepping"),
    "swarm.broadcasts.event": ("counter", "broadcasts run with event stepping"),
    "swarm.receipts": ("counter", "fragments received across all broadcasts"),
    "executor.tasks": ("counter", "campaign task chunks executed"),
    "executor.retries": ("counter", "retry rounds the process pool needed"),
    "executor.timeouts": ("counter", "tasks declared hung past their deadline"),
    "executor.worker_crashes": ("counter", "tasks lost to crashed/broken workers"),
    "campaign.iterations": ("counter", "measurement iterations collected"),
    "campaign.checkpoint_writes": ("counter", "per-iteration checkpoints written"),
    "campaign.checkpoint_resumes": ("counter", "iterations restored from disk"),
    "workload.dispatches": ("counter", "agenda events dispatched by workload engines"),
    "workload.network_changes": ("counter", "shared-allocation change broadcasts"),
    "faults.injected": ("counter", "fault events injected (all kinds)"),
    "faults.link-failure": ("counter", "link failures injected"),
    "faults.link-repair": ("counter", "failed links repaired"),
    "faults.route-flap": ("counter", "route flaps started"),
    "faults.route-settle": ("counter", "route flaps settled"),
    "faults.tracker-outage": ("counter", "tracker outages started"),
    "faults.tracker-recover": ("counter", "tracker outages recovered"),
    "faults.tenant-arrival": ("counter", "tenants cycled in mid-iteration"),
    "faults.tenant-departure": ("counter", "tenants cycled out mid-iteration"),
    "routing.recomputes": ("counter", "avoid-set routing tables derived by the control plane"),
    "routing.repins": ("counter", "live flows moved onto recomputed routes"),
    "routing.fallback_hits": ("counter", "route lookups served by the fallback table (no detour existed)"),
    "localization.runs": ("counter", "fault-localization analyses performed"),
    "localization.named": ("counter", "localizations that named a single link"),
    "localization.ambiguous": ("counter", "localizations degraded to a tied candidate set"),
    "pipeline.runs": ("counter", "tomography pipeline analyses"),
    "pipeline.iterations": ("counter", "iterations aggregated by pipelines"),
    "pipeline.nmi": ("gauge", "overlapping NMI of the latest pipeline run"),
    "pipeline.measure_s": ("histogram", "wall seconds of measurement phases"),
    "pipeline.analyze_s": ("histogram", "wall seconds of analysis phases"),
    "louvain.runs": ("counter", "Louvain clusterings performed"),
    "louvain.levels": ("counter", "aggregation levels across all runs"),
    "louvain.passes": ("counter", "local-moving sweeps across all runs"),
}


def _validate_catalogue() -> None:  # pragma: no cover - import-time guard
    for name, (kind, _) in METRIC_CATALOGUE.items():
        if kind not in ("counter", "gauge", "histogram"):
            raise AssertionError(f"bad metric kind for {name}: {kind}")


_validate_catalogue()
