#!/usr/bin/env python
"""A/B perf gate: run two source trees' own perfbench in alternation.

Usage::

    git archive "$BASE_SHA" | tar -x -C ../base
    python benchmarks/perf_ab.py ../base . --out perf_ab
    python benchmarks/perf_ab.py ../base . --pairs 5 --workload blackout
    python benchmarks/perf_ab.py ../base . --workload blackout --seed 7

Each tree runs its own ``perfbench/run.py --workload W``, which does fixed
work per run (see perfbench/README.md).  For every workload the two trees
run ``--pairs`` times each, interleaved, and the tree that goes first
alternates from pair to pair, so drift on a shared box hits both sides
alike.  Then one traced run per tree and workload records the fragment
digests and the ``swarm.*`` counters.  ``--seed N`` is passed on to both
trees' runs; without it each runs perfbench's own default seed.

The chain is raw JSON → CSV → table:

* every run's ``perfbench/out`` report is kept as
  ``OUT/raw/<side>-<workload>-<run>.json``, with the run's ``correct``
  verdict added;
* the raw files are reduced to ``OUT/runs.csv``, one row per run and
  metric;
* the per-metric medians of the untraced runs are printed, with the claim
  rule's columns, and the printed report is also written to
  ``OUT/table.txt``.

The claim rule (docs/performance.md) is reported, never enforced: for
each workload and ``end_to_end`` metric the table gives the base's first
and third quartiles and the pairs the head won, pair ``i`` being base run
``i`` against head run ``i`` in the metric's ``better`` direction (a tie
counts for neither side).  A row is marked ``claim`` when at least
``CLAIM_PAIRS`` pairs ran, the head won at least 9 in 10 of them, and its
median is better than the base's by more than the base's interquartile
range.

The gate fails (exit status 1) when, on any workload, the head's median of
an ``end_to_end`` metric in the base tree's BENCHMARK.json is worse than
the base's by more than that metric's bound, in its ``better`` direction,
or when any run was not correct.  Differences in digests and ``swarm.*``
counters are printed but do not fail the gate: a change that alters
behaviour names them in CHANGES.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

SIDES = ("base", "head")
DEFAULT_WORKLOADS = ("paper-4site", "paper-scale", "blackout")
CSV_FIELDS = ("side", "workload", "run", "traced", "metric", "value")
#: Pairs a claimed gain needs on its workload.
CLAIM_PAIRS = 10


def run_perfbench(
    tree: Path, workload: str, traced: bool, seed: Optional[int] = None
) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its report plus ``correct``."""
    out = tree / "perfbench" / "out" / (
        f"{workload}.trace.json" if traced else f"{workload}.json"
    )
    out.unlink(missing_ok=True)
    seed_args = [] if seed is None else ["--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "1" if traced else "0", *seed_args],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        verdict = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        verdict = {}
    if proc.returncode != 0 or not out.exists():
        print(f"{tree}: perfbench {workload} exited {proc.returncode}\n"
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return {"workload": workload, "correct": False}
    report = json.loads(out.read_text())
    report["correct"] = proc.returncode == 0 and verdict.get("correct") is True
    return report


def run_pairs(
    trees: Dict[str, Path], workloads: Sequence[str], pairs: int, raw: Path,
    seed: Optional[int] = None,
) -> List[Path]:
    """Run every workload in interleaved pairs, then traced once per side;
    write each report under ``raw`` and return the paths in run order."""
    raw.mkdir(parents=True, exist_ok=True)
    paths = []
    schedule = [(pair, pair % 2 == 1, False) for pair in range(pairs)]
    schedule.append((pairs, False, True))
    for workload in workloads:
        for run, head_first, traced in schedule:
            for side in (SIDES[::-1] if head_first else SIDES):
                report = run_perfbench(trees[side], workload, traced, seed)
                report.update(side=side, run=run, traced=traced)
                path = raw / f"{side}-{workload}-{run}.json"
                path.write_text(json.dumps(report, indent=1))
                paths.append(path)
                print(f"{workload} run {run} {side}: "
                      f"campaign_s={report.get('metrics', {}).get('campaign_s')} "
                      f"correct={report['correct']}", flush=True)
    return paths


def reduce_reports(reports: Iterable[dict]) -> List[dict]:
    """One CSV row per run and metric; ``correct`` is a metric too (1/0)."""
    rows = []
    for report in reports:
        key = {
            "side": report["side"], "workload": report["workload"],
            "run": report["run"], "traced": int(bool(report.get("traced"))),
        }
        values = dict(report.get("metrics", {}))
        values["correct"] = 1.0 if report.get("correct") else 0.0
        for metric, value in sorted(values.items()):
            if isinstance(value, (int, float)):
                rows.append({**key, "metric": metric, "value": float(value)})
    return rows


def write_csv(rows: Sequence[dict], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def samples(rows: Iterable[dict]) -> Dict[Tuple[str, str, str], Dict[int, float]]:
    """(workload, metric, side) -> {run: value} over the untraced runs."""
    runs: Dict[Tuple[str, str, str], Dict[int, float]] = {}
    for row in rows:
        if not int(row["traced"]):
            key = (row["workload"], row["metric"], row["side"])
            runs.setdefault(key, {})[int(row["run"])] = float(row["value"])
    return runs


def claim_rule(base: Dict[int, float], head: Dict[int, float], better: str) -> dict:
    """The claim rule on one metric's runs, by run index.

    Returns the base's quartiles ``q1`` and ``q3`` (linear interpolation,
    numpy's default), the ``pairs`` with both runs, the pairs the head
    ``won`` (strictly better in the ``better`` direction), and ``meets``:
    at least ``CLAIM_PAIRS`` pairs, at least 9 in 10 won, and a median gap
    in the head's favour wider than ``q3 - q1``.
    """
    values = list(base.values())
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    sign = 1.0 if better == "lower" else -1.0
    pairs = set(base) & set(head)
    won = sum(sign * (base[run] - head[run]) > 0 for run in pairs)
    gap = sign * (statistics.median(values) - statistics.median(head.values()))
    meets = len(pairs) >= CLAIM_PAIRS and 10 * won >= 9 * len(pairs) and gap > q3 - q1
    return {"q1": q1, "q3": q3, "pairs": len(pairs), "won": won, "meets": meets}


def compare(rows: Sequence[dict], end_to_end: Sequence[dict]) -> Tuple[List[str], List[str]]:
    """The median table and the gate's failures.

    A metric fails when the head's median is worse than the base's by more
    than its bound, relative to the base: above ``base * (1 + bound)`` when
    lower is better, below ``base * (1 - bound)`` when higher is better.
    Each row also reports :func:`claim_rule`, which fails nothing.
    """
    runs = samples(rows)
    lines = [f"{'workload':<13} {'metric':<16} {'base':>10} {'head':>10} "
             f"{'head/base':>9} {'bound':>6}  {'verdict':<7} "
             f"{'base q1':>10} {'base q3':>10} {'won':>6}  claim"]
    failures = []
    for workload in sorted({row["workload"] for row in rows}):
        for spec in end_to_end:
            name, bound = spec["name"], float(spec["bound"])
            base_runs = runs.get((workload, name, "base"))
            head_runs = runs.get((workload, name, "head"))
            if not base_runs or not head_runs:
                failures.append(f"{workload} {name}: no measurement")
                continue
            base = statistics.median(base_runs.values())
            head = statistics.median(head_runs.values())
            if spec["better"] == "lower":
                worse = head > base * (1.0 + bound)
            else:
                worse = head < base * (1.0 - bound)
            ratio = head / base if base else float("nan")
            rule = claim_rule(base_runs, head_runs, spec["better"])
            won = f"{rule['won']}/{rule['pairs']}"
            lines.append(f"{workload:<13} {name:<16} {base:>10.4g} {head:>10.4g} "
                         f"{ratio:>9.3f} {bound:>6.2f}  {'WORSE' if worse else 'ok':<7} "
                         f"{rule['q1']:>10.4g} {rule['q3']:>10.4g} {won:>6}  "
                         f"{'claim' if rule['meets'] else '-'}")
            if worse:
                failures.append(f"{workload} {name}: head median {head:.4g} is "
                                f"worse than base {base:.4g} by more than {bound:g}")
    for row in rows:
        if row["metric"] == "correct" and not float(row["value"]):
            failures.append(f"{row['workload']} {row['side']} run {row['run']} "
                            f"was not correct")
    return lines, failures


def behaviour_diffs(reports: Sequence[dict]) -> List[str]:
    """Digest and ``swarm.*`` counter differences between the sides' runs."""
    seen: Dict[Tuple[str, str], dict] = {}
    for report in reports:
        entry = seen.setdefault((report["workload"], report["side"]),
                                {"digests": set(), "counters": {}})
        entry["digests"].update(report.get("digests", []))
        for metric, value in report.get("metrics", {}).items():
            if metric.startswith("swarm."):
                entry["counters"][metric] = value
    lines = []
    for workload in sorted({workload for workload, _ in seen}):
        base = seen.get((workload, "base"), {"digests": set(), "counters": {}})
        head = seen.get((workload, "head"), {"digests": set(), "counters": {}})
        if base["digests"] != head["digests"]:
            lines.append(f"{workload}: digests differ: base {sorted(base['digests'])} "
                         f"head {sorted(head['digests'])}")
        for metric in sorted(set(base["counters"]) | set(head["counters"])):
            b, h = base["counters"].get(metric), head["counters"].get(metric)
            if b != h:
                lines.append(f"{workload}: {metric} base {b} head {h}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", type=Path, help="source tree of the base commit")
    parser.add_argument("head", type=Path, help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=3,
                        help="untraced runs per tree and workload (default 3)")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="perfbench workload (repeatable; default "
                             f"{', '.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--out", type=Path, default=Path("perf_ab"),
                        help="directory for raw/, runs.csv and table.txt "
                             "(default perf_ab)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed for both trees' perfbench runs "
                             "(default: perfbench's own)")
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no perfbench/run.py")
    end_to_end = json.loads((trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]

    paths = run_pairs(trees, args.workloads or DEFAULT_WORKLOADS, args.pairs,
                      args.out / "raw", args.seed)
    reports = [json.loads(path.read_text()) for path in paths]
    rows = reduce_reports(reports)
    write_csv(rows, args.out / "runs.csv")
    lines, failures = compare(rows, end_to_end)
    lines += behaviour_diffs(reports) or ["digests and swarm.* counters equal"]
    lines.append("perf gate FAILED:\n  " + "\n  ".join(failures) if failures
                 else "perf gate passed")
    report = "\n".join(lines)
    print(report)
    (args.out / "table.txt").write_text(report + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
