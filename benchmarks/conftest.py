"""Shared configuration for the figure-shape benchmarks.

Each benchmark regenerates one of the paper's tables or figures at laptop
scale and prints a paper-vs-measured comparison.  Absolute numbers are not
expected to match (the substrate is a simulator, not Grid'5000); the asserted
properties are the *shapes* the paper reports: which edges are heavy, how many
clusters are found, where the NMI converges, who is cheaper to run.

Timing is not measured here: ``perfbench/`` (``BENCHMARK.json``) and
``benchmarks/perf_ab.py`` are the repository's performance record.  The
paper's own scale (32 nodes per site, 15 259 fragments, 30 iterations) runs
through the CLI, e.g. ``python -m repro run fig13 --per-site 32 --fragments
15259 --iterations 30``, and a figure runs traced as ``python -m repro run
fig13 --trace fig13.jsonl``.
"""

from __future__ import annotations

from typing import Mapping

#: Fragments per broadcast in the benchmark campaigns (paper: 15 259).
NUM_FRAGMENTS = 600

#: Measurement iterations for the clustering benchmarks (paper: 30-36).
ITERATIONS = 10

#: Seed shared by the benchmark campaigns.
SEED = 2012


def report(title: str, rows: Mapping[str, object]) -> None:
    """Print a paper-vs-measured block that survives pytest's output capture."""
    width = max(len(k) for k in rows) + 2
    lines = [f"\n=== {title} ==="]
    for key, value in rows.items():
        lines.append(f"  {key:<{width}} {value}")
    print("\n".join(lines))
