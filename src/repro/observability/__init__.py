"""Unified telemetry layer: metrics registry + structured tracer.

Two independent halves share this package:

* :data:`METRICS` — the always-on, per-process
  :class:`~repro.observability.metrics.MetricsRegistry` of named counters.
  Executor workers ship snapshot *deltas* back to the parent, which merges
  them, so campaign totals agree across the serial and process-pool
  backends.  Counters count simulated work only, so a run's metrics delta
  is as reproducible as its results.
* :data:`TRACER` — the off-by-default
  :class:`~repro.observability.tracer.Tracer` writing typed span/event
  JSONL records, enabled by ``--trace PATH`` and exported to Chrome
  trace-event format by ``repro trace export --chrome``.  Pool workers
  return their trace records with their counter deltas, so a traced run
  writes one file.

Both halves obey the replay invariant: telemetry draws zero random values
and never moves the simulation clock, so every sha256 seed golden replays
bit-for-bit with tracing on or off.  See ``docs/observability.md``.
"""

from repro.observability.export import (
    export_chrome,
    load_records,
    summarize,
    to_chrome,
    trace_meta,
)
from repro.observability.metrics import (
    METRIC_CATALOGUE,
    METRICS,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.observability.tracer import (
    TRACE_DETAILS,
    TRACE_SCHEMA,
    TRACER,
    TraceConfigError,
    Tracer,
)

__all__ = [
    "METRICS",
    "METRIC_CATALOGUE",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TRACER",
    "TRACE_DETAILS",
    "TRACE_SCHEMA",
    "TraceConfigError",
    "Tracer",
    "export_chrome",
    "load_records",
    "summarize",
    "to_chrome",
    "trace_meta",
]
