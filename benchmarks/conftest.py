"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures at laptop
scale and prints a paper-vs-measured comparison.  Absolute numbers are not
expected to match (the substrate is a simulator, not Grid'5000); the asserted
properties are the *shapes* the paper reports: which edges are heavy, how many
clusters are found, where the NMI converges, who is cheaper to run.

Two scale profiles exist, selected by the ``REPRO_BENCH_PROFILE`` environment
variable (``benchmarks/run_benchmarks.py --profile`` sets it):

* ``ci`` (default) — 8 nodes per site, 600 fragments, 10 iterations: every
  benchmark stays in the seconds range.
* ``nightly`` — the paper's scale: 32 nodes per site, 15 259 fragments, 30
  iterations.  At this scale rarest-first ties are thousands of fragments
  wide, every bitset the conversion step keeps is 15k bits wide, and the
  interest matmul spans 128 hosts.

Every benchmark row records the swarm stepping mode and the control steps
executed per broadcast (``benchmark.extra_info``): the harness snapshots the
process-wide :data:`repro.observability.metrics.METRICS` registry around
each run and embeds the full counter delta as ``extra_info["metrics"]``.

``REPRO_TRACE`` routes a structured trace of the whole suite to a JSONL
file (``run_benchmarks.py --trace`` sets it); the tracer is configured once
per benchmark process at session start.
"""

from __future__ import annotations

import os
from typing import Mapping

import pytest

#: Scale profiles: nodes per site / fragments per broadcast / iterations.
PROFILES = {
    "ci": {"PER_SITE": 8, "NUM_FRAGMENTS": 600, "ITERATIONS": 10},
    "nightly": {"PER_SITE": 32, "NUM_FRAGMENTS": 15_259, "ITERATIONS": 30},
}

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "ci").strip().lower() or "ci"
if PROFILE not in PROFILES:
    raise ValueError(
        f"REPRO_BENCH_PROFILE must be one of {sorted(PROFILES)}, got {PROFILE!r}"
    )

#: Scale used by the dataset benchmarks (nodes per site; the paper uses 32).
PER_SITE = PROFILES[PROFILE]["PER_SITE"]

#: Fragments per broadcast in the benchmark campaigns (paper: 15 259).
NUM_FRAGMENTS = PROFILES[PROFILE]["NUM_FRAGMENTS"]

#: Measurement iterations for the clustering benchmarks (paper: 30-36).
ITERATIONS = PROFILES[PROFILE]["ITERATIONS"]

#: Seed shared by the benchmark campaigns.
SEED = 2012


@pytest.fixture(scope="session", autouse=True)
def _configure_tracing_from_env():
    """Honour ``REPRO_TRACE`` for benchmark runs (no-op when unset)."""
    from repro.observability.tracer import TRACER, trace_from_env

    trace_from_env()
    yield
    TRACER.flush()


def report(title: str, rows: Mapping[str, object]) -> None:
    """Print a paper-vs-measured block that survives pytest's output capture."""
    width = max(len(k) for k in rows) + 2
    lines = [f"\n=== {title} ==="]
    for key, value in rows.items():
        lines.append(f"  {key:<{width}} {value}")
    print("\n".join(lines))


@pytest.fixture
def bench_once(benchmark):
    """Run the benchmarked callable exactly once (campaigns are expensive).

    Records the stepping mode and control-steps-per-broadcast of the swarm
    work performed during the call in ``benchmark.extra_info``, from which
    ``run_benchmarks.py`` copies them into every BENCH row.
    """
    from repro.bittorrent.swarm import default_stepping
    from repro.observability.metrics import METRICS

    def _run(fn, *args, **kwargs):
        before = METRICS.snapshot()
        outcome = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
        delta = METRICS.snapshot().delta_since(before)
        broadcasts = delta.counter("swarm.broadcasts")
        steps = delta.counter("swarm.control_steps")
        # Label the row with the mode(s) the measured call actually ran —
        # some benchmarks pin their own stepping regardless of the suite
        # default (e.g. the event-stepping comparison).
        ran = {
            mode
            for mode in ("fixed", "event")
            if delta.counter(f"swarm.broadcasts.{mode}")
        }
        if len(ran) == 1:
            benchmark.extra_info["stepping"] = ran.pop()
        elif ran:
            benchmark.extra_info["stepping"] = "mixed"
        else:
            benchmark.extra_info["stepping"] = default_stepping()
        # The registry is per-process, but the process-pool executor merges
        # worker snapshot deltas back into this one, so the ratio below is
        # meaningful on every backend.  A zero broadcast count still means
        # "not observed" (e.g. a crashed round) — omit rather than record
        # a fabricated zero.  The raw counts live in ``metrics``.
        if broadcasts:
            benchmark.extra_info["control_steps_per_broadcast"] = round(
                steps / broadcasts, 1
            )
        # Full registry delta, for BENCH rows and post-hoc attribution.
        benchmark.extra_info["metrics"] = delta.jsonable()
        return outcome

    return _run
