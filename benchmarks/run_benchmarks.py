#!/usr/bin/env python
"""Run the pytest-benchmark suite and emit a normalized BENCH_*.json.

The emitted file is the cross-PR performance record: one entry per
benchmark with its wall-clock, plus the scale constants the campaigns ran
at and the commit hash, so successive PRs can be compared with
``--compare``.  See docs/performance.md for the protocol.

Usage::

    python benchmarks/run_benchmarks.py --output BENCH_PR1.json
    python benchmarks/run_benchmarks.py -k "broadcast or solver" -o out.json
    python benchmarks/run_benchmarks.py --compare BENCH_PR0.json -o BENCH_PR1.json

    # paper-scale nightly profile (32/site, 15 259 fragments, 30 iterations,
    # exercising the MATMUL_INTEREST_LIMIT crossover end to end)
    python benchmarks/run_benchmarks.py --profile nightly -o BENCH_nightly.json

    # flip the whole suite onto the fixed-dt oracle loop for a mode comparison
    python benchmarks/run_benchmarks.py --stepping fixed -o BENCH_fixed.json

    # time registered scenarios directly (see `python -m repro list`),
    # optionally through the process-pool campaign executor
    python benchmarks/run_benchmarks.py --scenario B-G-T --scenario fig13 \
        --executor process -o out.json

Every emitted row records which campaign-executor backend produced it
(``executor``), the swarm control-loop stepping mode (``stepping``) and the
control steps the swarm executed per broadcast
(``control_steps_per_broadcast``).  ``--executor process`` /
``--stepping fixed`` route the pytest benchmarks through the corresponding
backend via the ``REPRO_EXECUTOR`` / ``REPRO_STEPPING`` environment
variables; ``--profile`` selects the ``ci`` or ``nightly`` scale via
``REPRO_BENCH_PROFILE``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def git_commit() -> str:
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True
        ).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(
    select: str | None,
    raw_json: Path,
    executor: str,
    workers: int | None,
    profile: str,
    stepping: str,
    trace: str | None = None,
) -> int:
    command = [
        sys.executable,
        "-m",
        "pytest",
        "benchmarks",
        "-q",
        f"--benchmark-json={raw_json}",
    ]
    if select:
        command.extend(["-k", select])
    env_path = str(REPO_ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The experiment runners resolve their default campaign executor and
    # swarm stepping mode from the environment, so one variable each
    # switches the whole suite over; the conftest reads the scale profile.
    env["REPRO_EXECUTOR"] = executor
    env["REPRO_STEPPING"] = stepping
    env["REPRO_BENCH_PROFILE"] = profile
    if workers:
        env["REPRO_EXECUTOR_WORKERS"] = str(workers)
    if trace:
        # The benchmark process configures the tracer from the environment
        # at session start (benchmarks/conftest.py) and, under the process
        # executor, workers suffix their own files — see docs/observability.md.
        env["REPRO_TRACE"] = trace
    else:
        env.pop("REPRO_TRACE", None)
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


def metadata(profile: str, stepping: str) -> dict:
    import numpy

    from benchmarks.conftest import PROFILES, SEED

    scale = PROFILES[profile]
    return {
        "schema": "repro-bench-v1",
        "commit": git_commit(),
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "profile": profile,
        "stepping": stepping,
        "scale": {
            "PER_SITE": scale["PER_SITE"],
            "NUM_FRAGMENTS": scale["NUM_FRAGMENTS"],
            "ITERATIONS": scale["ITERATIONS"],
            "SEED": SEED,
        },
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": multiprocessing.cpu_count(),
            "platform": platform.platform(),
        },
    }


def normalize(raw_json: Path, executor: str, profile: str, stepping: str) -> dict:
    """One BENCH row per pytest-benchmark entry.

    A row's ``extra_info`` is copied whole, so every key a benchmark
    records (stepping, metrics, workload or fault metadata) reaches the
    BENCH file without a list kept in step here.
    """
    raw = json.loads(raw_json.read_text())
    benchmarks = []
    for entry in raw.get("benchmarks", []):
        stats = entry["stats"]
        benchmarks.append({
            "name": entry["name"],
            "file": entry.get("fullname", "").split("::")[0],
            "wall_clock_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
            "executor": executor,
            "stepping": stepping,
            **(entry.get("extra_info") or {}),
        })
    benchmarks.sort(key=lambda item: item["name"])
    return {**metadata(profile, stepping), "benchmarks": benchmarks}


def run_scenarios(
    specs: list, executor_name: str, workers: int | None, profile: str, stepping: str
) -> dict:
    """Time resolved scenario specs directly through the registry."""
    import time

    from repro.observability.metrics import METRICS
    from repro.observability.tracer import trace_from_env
    from repro.scenarios import executor_from_name

    trace_from_env()
    executor = executor_from_name(executor_name, workers=workers)
    rows = []
    for name, spec in specs:
        before = METRICS.snapshot()
        start = time.perf_counter()
        summary = spec.run(executor=executor, stepping=stepping)
        elapsed = time.perf_counter() - start
        delta = METRICS.snapshot().delta_since(before)
        broadcasts = int(delta.counter("swarm.broadcasts"))
        steps = int(delta.counter("swarm.control_steps"))
        print(f"  scenario:{name:<30s} {elapsed:8.3f}s  "
              f"({executor_name}, {stepping})")
        row = {
            "name": f"scenario:{name}",
            "file": "repro/scenarios",
            "wall_clock_s": elapsed,
            "stddev_s": 0.0,
            "rounds": 1,
            "executor": executor_name,
            "stepping": stepping,
            "control_steps_per_broadcast": (
                round(steps / broadcasts, 1) if broadcasts else 0.0
            ),
            # Full registry delta for the scenario run.
            "metrics": delta.jsonable(),
        }
        # Interference scenarios describe the contention they measured under.
        for key in ("workload", "workload_actors", "interference_intensity"):
            if key in summary:
                row[key] = summary[key]
        rows.append(row)
    rows.sort(key=lambda item: item["name"])
    return {**metadata(profile, stepping), "benchmarks": rows}


#: A shared row slower than baseline by more than this fraction regresses.
REGRESSION_THRESHOLD = 0.25


def compare(
    current: dict, baseline_path: Path, threshold: float = REGRESSION_THRESHOLD
) -> list:
    """Print per-row speedups vs a prior BENCH file; return the regressions.

    A shared row regresses when its wall-clock exceeds the baseline by more
    than ``threshold`` (new rows and rows that disappeared never regress).
    The returned list of ``(name, speedup)`` pairs is empty on a clean run;
    :func:`main` turns a non-empty list into a non-zero exit status so CI
    can gate on it.
    """
    baseline = json.loads(baseline_path.read_text())
    old = {entry["name"]: entry["wall_clock_s"] for entry in baseline.get("benchmarks", [])}
    regressions = []
    print(f"\n== comparison vs {baseline_path.name} ==")
    for entry in current["benchmarks"]:
        reference = old.get(entry["name"])
        if not reference:
            print(f"  {entry['name']:<60s} (new)")
            continue
        speedup = reference / entry["wall_clock_s"] if entry["wall_clock_s"] else float("inf")
        flag = ""
        if entry["wall_clock_s"] > reference * (1.0 + threshold):
            flag = "  ** REGRESSION **"
            regressions.append((entry["name"], speedup))
        print(
            f"  {entry['name']:<60s} {reference:8.3f}s -> "
            f"{entry['wall_clock_s']:8.3f}s  ({speedup:5.2f}x){flag}"
        )
    if regressions:
        print(
            f"{len(regressions)} row(s) regressed by more than "
            f"{threshold:.0%} vs {baseline_path.name}"
        )
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_PR1.json",
                        help="normalized output file (default: BENCH_PR1.json)")
    parser.add_argument("-k", "--select", default=None,
                        help="pytest -k expression to run a subset")
    parser.add_argument("--compare", default=None,
                        help="prior BENCH_*.json to print speedups against; "
                             "exits non-zero if any shared row regressed by "
                             ">25%%")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="time this registered scenario instead of the "
                             "pytest suite (repeatable; see `python -m repro list`)")
    parser.add_argument("--executor", choices=("serial", "process"),
                        default="serial",
                        help="campaign-executor backend recorded per row")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --executor process")
    parser.add_argument("--profile", choices=("ci", "nightly"), default="ci",
                        help="scale profile: ci = laptop scale, nightly = "
                             "paper scale (32/site, 15 259 fragments, 30 "
                             "iterations, incremental-interest crossover)")
    parser.add_argument("--stepping", choices=("fixed", "event"),
                        default="event",
                        help="swarm control-loop policy for the whole run "
                             "(results are bit-identical across modes)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a structured telemetry trace (JSONL) of "
                             "the whole suite to PATH via REPRO_TRACE; "
                             "export with `repro trace export --chrome`")
    args = parser.parse_args()

    sys.path.insert(0, str(REPO_ROOT))
    sys.path.insert(0, str(REPO_ROOT / "src"))

    if args.scenario:
        from repro.scenarios import get_scenario

        # Resolve names first: a failure *during* a run must not be
        # misreported as an unknown-scenario error.
        try:
            specs = [(name, get_scenario(name)) for name in args.scenario]
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return 2
        if args.profile != "ci":
            # Scenario timings run at each spec's registered defaults; the
            # profile's scale constants only apply to the pytest suite, and
            # stamping them into the record would misrepresent what ran.
            print("--profile applies to the pytest suite, not --scenario runs",
                  file=sys.stderr)
            return 2
        os.environ["REPRO_STEPPING"] = args.stepping
        if args.trace:
            from repro.observability.tracer import configure_tracing

            configure_tracing(args.trace)
        normalized = run_scenarios(
            specs, args.executor, args.workers, args.profile, args.stepping
        )
    else:
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
            raw_json = Path(handle.name)
        status = run_suite(args.select, raw_json, args.executor, args.workers,
                           args.profile, args.stepping, trace=args.trace)
        if status != 0:
            print(f"benchmark run failed with exit status {status}", file=sys.stderr)
            return status
        normalized = normalize(raw_json, args.executor, args.profile, args.stepping)
        raw_json.unlink(missing_ok=True)
    output = Path(args.output)
    output.write_text(json.dumps(normalized, indent=2, sort_keys=False) + "\n")
    print(f"wrote {output} ({len(normalized['benchmarks'])} benchmarks)")
    if args.compare:
        if compare(normalized, Path(args.compare)):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
