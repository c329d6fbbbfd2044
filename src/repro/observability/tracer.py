"""Structured tracer: typed span/event records on a JSONL sink.

The tracer is the *expensive* half of the telemetry layer and is therefore
**off by default**: every instrumentation site guards itself with the single
attribute test ``if TRACER.enabled:`` (and high-frequency sites additionally
with ``TRACER.full``), so a disabled tracer costs one boolean check — the
measured whole-suite overhead is within the ≤1% budget (see
``docs/observability.md``).

Two clocks, by record type:

* **spans** are stamped in *wall time*: ``wall_ts`` (seconds since the
  tracer was configured, from ``time.perf_counter``) and ``wall_dur``.
  Examples: one broadcast's lifetime, an executor submission round, the
  pipeline's measure/analyze phases.
* **events** are stamped in *simulation time* (``sim_ts`` seconds on the
  shared simulation clock) when they describe simulated causality — fault
  injections, workload dispatches, fluid transitions — and carry only
  ``wall_ts`` when they describe host-side machinery (worker crashes,
  checkpoint writes, retry rounds).

Hard invariant: tracing draws **zero random values and zero simulation-clock
movements** — record emission only *reads* state and the host clock, so every
sha256 seed golden replays bit-for-bit with tracing on or off
(``tests/test_seed_replay.py`` pins this for every scenario family).

Routing: ``repro run --trace PATH`` (or ``TRACER.configure(path)`` in a
library caller) turns the process-wide :data:`TRACER` on; no environment
variable does.  A traced run writes exactly one file: process-pool workers
record each chunk into memory at the parent's detail level and return the
lines with the chunk's outputs, and the parent appends them to its own sink
(see :mod:`repro.scenarios.executors`).  An unwritable path fails fast at
configure time with a clear error instead of dying mid-campaign.

Record schema (one JSON object per line, ``schema: repro-trace-v1``):

* ``{"type": "meta", "schema": ..., "pid": ..., "wall_start": ...,
  "detail": ...}`` — first line of every file, and first line of each pool
  worker chunk's block;
* ``{"type": "event", "name": ..., "pid": ..., "wall_ts": ...,
  ["sim_ts": ...,] "args": {...}}``;
* ``{"type": "span", "name": ..., "pid": ..., "wall_ts": ...,
  "wall_dur": ..., "args": {...}}``.

``repro trace export --chrome`` converts a trace file to the Chrome
trace-event format (``chrome://tracing`` / https://ui.perfetto.dev), see
:mod:`repro.observability.export`.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import contextmanager
from typing import Iterator, Optional

#: Recognised detail levels: ``summary`` emits per-broadcast/per-phase
#: records only; ``full`` additionally emits per-control-step records
#: (jumps, conversion passes, fluid transitions, workload dispatches).
TRACE_DETAILS = ("summary", "full")

#: On-disk schema version (bump on incompatible record change).
TRACE_SCHEMA = "repro-trace-v1"


class TraceConfigError(ValueError):
    """The requested trace destination cannot be used (fail fast)."""


class Tracer:
    """Process-wide structured tracer (use the shared :data:`TRACER`).

    ``enabled`` is False until :meth:`configure` succeeds; instrumentation
    sites must guard on it so the disabled tracer costs one attribute read.
    ``full`` gates the high-frequency record types.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.full = False
        self.detail = "summary"
        self._file = None
        self._pid = os.getpid()
        self._perf_start = 0.0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def configure(self, path: Optional[str], detail: Optional[str] = None) -> None:
        """Open ``path`` for JSONL records and enable the tracer at
        ``detail`` (``None``: ``summary``).

        A ``None`` path records into memory until :meth:`drain` — a pool
        worker's chunk.  Raises :class:`TraceConfigError` immediately when
        the destination is not writable (missing directory, permission,
        path is a directory), so a campaign fails before its first
        iteration rather than mid-run.  Re-configuring closes the previous
        sink first.
        """
        detail = detail or "summary"
        if detail not in TRACE_DETAILS:
            raise TraceConfigError(
                f"trace detail must be one of {TRACE_DETAILS}, got {detail!r}"
            )
        self.close()
        try:
            self._file = (
                io.StringIO() if path is None else open(path, "w", encoding="utf-8")
            )
        except OSError as exc:
            raise TraceConfigError(
                f"trace path {path!r} is not writable: {exc}"
            ) from exc
        self._pid = os.getpid()
        self._perf_start = time.perf_counter()
        self.detail = detail
        self.full = detail == "full"
        self.enabled = True
        self._write(
            {
                "type": "meta",
                "schema": TRACE_SCHEMA,
                "pid": self._pid,
                "wall_start": time.time(),
                "detail": detail,
            }
        )

    def close(self) -> None:
        """Flush and close the sink; the tracer returns to the no-op state."""
        if self._file is not None:
            try:
                self._file.flush()
                self._file.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._file = None
        self.enabled = False
        self.full = False

    def flush(self) -> None:
        """Push buffered records to the sink."""
        if self._file is not None:
            self._file.flush()

    def drain(self) -> str:
        """Close an in-memory sink and return the JSONL lines it recorded."""
        lines = self._file.getvalue()
        self.close()
        return lines

    def append(self, lines: str) -> None:
        """Write JSONL lines another process recorded (a pool chunk's)."""
        if self.enabled:
            self._file.write(lines)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _write(self, record: dict) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")

    def event(self, name: str, sim_time: Optional[float] = None, **args) -> None:
        """Emit one typed event record.

        ``sim_time`` stamps the record on the simulation clock; host-side
        events omit it and are ordered by ``wall_ts`` alone.
        """
        if not self.enabled:
            return
        record = {
            "type": "event",
            "name": name,
            "pid": self._pid,
            "wall_ts": time.perf_counter() - self._perf_start,
        }
        if sim_time is not None:
            record["sim_ts"] = float(sim_time)
        if args:
            record["args"] = args
        self._write(record)

    def span_record(self, name: str, started: float, **args) -> None:
        """Emit a span whose start was sampled earlier with :meth:`now`.

        For code that cannot use the :meth:`span` context manager (generator
        frames, callbacks): sample ``started = TRACER.now()`` at entry and
        call this at exit.
        """
        if not self.enabled:
            return
        ended = time.perf_counter()
        record = {
            "type": "span",
            "name": name,
            "pid": self._pid,
            "wall_ts": started - self._perf_start,
            "wall_dur": ended - started,
        }
        if args:
            record["args"] = args
        self._write(record)

    @staticmethod
    def now() -> float:
        """Monotonic wall-clock sample for :meth:`span_record` starts."""
        return time.perf_counter()

    @contextmanager
    def span(self, name: str, **args) -> Iterator[None]:
        """Emit a wall-time span around the enclosed block."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.span_record(name, started, **args)


#: The process-wide tracer every subsystem emits through.
TRACER = Tracer()

