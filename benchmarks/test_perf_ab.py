"""The A/B perf gate's reduce and compare steps, on synthetic reports.

These are plain tests of ``perf_ab.py``; they run no benchmark.
"""

import csv
import json
import subprocess
from pathlib import Path

from benchmarks import perf_ab
from benchmarks.perf_ab import behaviour_diffs, compare, reduce_reports

END_TO_END = [
    {"name": "campaign_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "nmi", "unit": "1", "better": "higher", "bound": 0.05},
]


def _report(side, run, campaign_s, nmi=1.0, correct=True, workload="blackout",
            traced=False, **extra):
    return {
        "side": side, "run": run, "workload": workload, "traced": traced,
        "correct": correct, "metrics": {"campaign_s": campaign_s, "nmi": nmi, **extra},
        "digests": ["d0"],
    }


def _rows(base_times, head_times, **head_kwargs):
    reports = [_report("base", i, t) for i, t in enumerate(base_times)]
    reports += [_report("head", i, t, **head_kwargs) for i, t in enumerate(head_times)]
    return reduce_reports(reports)


def test_reduce_gives_one_row_per_run_and_metric():
    rows = reduce_reports([_report("base", 0, 8.0), _report("head", 0, 9.0, correct=False)])
    assert len(rows) == 6
    assert {row["metric"] for row in rows} == {"campaign_s", "nmi", "correct"}
    verdicts = {row["side"]: row["value"] for row in rows if row["metric"] == "correct"}
    assert verdicts == {"base": 1.0, "head": 0.0}


def test_gate_passes_within_the_bound_on_medians():
    # One slow head run does not move the median past the 25% bound.
    lines, failures = compare(_rows([8.0, 8.2, 7.9], [8.1, 30.0, 8.3]), END_TO_END)
    assert failures == []
    assert any("campaign_s" in line and "ok" in line for line in lines)


def test_gate_fails_when_the_head_median_is_worse_than_the_bound():
    _, failures = compare(_rows([8.0, 8.2, 7.9], [10.6, 10.8, 11.0]), END_TO_END)
    assert len(failures) == 1 and "campaign_s" in failures[0]


def test_higher_is_better_metrics_fail_downwards():
    _, failures = compare(_rows([8.0], [8.0], nmi=0.9), END_TO_END)
    assert len(failures) == 1 and "nmi" in failures[0]
    _, failures = compare(_rows([8.0], [4.0], nmi=1.0), END_TO_END)
    assert failures == []


def test_an_incorrect_run_fails_the_gate():
    _, failures = compare(_rows([8.0, 8.0], [8.0, 8.0], correct=False), END_TO_END)
    assert [f for f in failures if "not correct" in f]


def test_traced_runs_do_not_enter_the_medians():
    rows = reduce_reports([
        _report("base", 0, 8.0), _report("head", 0, 8.0),
        _report("head", 1, 100.0, traced=True),
    ])
    assert compare(rows, END_TO_END)[1] == []


def test_behaviour_differences_are_reported():
    base = _report("base", 3, None, traced=True, **{"swarm.receipts": 10.0})
    head = _report("head", 3, None, traced=True, **{"swarm.receipts": 11.0})
    head["digests"] = ["d1"]
    lines = behaviour_diffs([base, head])
    assert len(lines) == 2
    assert behaviour_diffs([base, dict(base, side="head")]) == []


def test_main_keeps_raw_reports_and_writes_the_csv(tmp_path, monkeypatch):
    for side in ("base", "head"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "base" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    order = []

    def fake_run(tree, workload, traced, seed):
        assert seed is None
        order.append((tree.name, traced))
        slow = 2.0 if tree.name == "head" else 1.0
        return {"workload": workload, "correct": True, "digests": ["d0"],
                "metrics": {"campaign_s": 8.0 * slow, "nmi": 1.0}}

    monkeypatch.setattr(perf_ab, "run_perfbench", fake_run)
    out = tmp_path / "out"
    status = perf_ab.main([str(tmp_path / "base"), str(tmp_path / "head"),
                           "--pairs", "2", "--workload", "blackout", "--out", str(out)])
    assert status == 1
    assert order == [("base", False), ("head", False), ("head", False),
                     ("base", False), ("base", True), ("head", True)]
    assert len(list((out / "raw").glob("*.json"))) == 6
    with open(out / "runs.csv", newline="") as handle:
        assert len(list(csv.DictReader(handle))) == 6 * 3


def test_seed_reaches_both_trees_perfbench_runs(tmp_path, monkeypatch):
    for side in ("base", "head"):
        (tmp_path / side / "perfbench" / "out").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "base" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    commands = []

    def fake_subprocess_run(command, cwd, **kwargs):
        commands.append((Path(cwd).name, command[2:]))
        report = {"workload": "blackout", "metrics": {"campaign_s": 8.0, "nmi": 1.0}}
        name = "blackout.trace.json" if command[command.index("--trace") + 1] == "1" else "blackout.json"
        (Path(cwd) / "perfbench" / "out" / name).write_text(json.dumps(report))
        return subprocess.CompletedProcess(command, 0, stdout='{"correct": true}\n', stderr="")

    monkeypatch.setattr(perf_ab.subprocess, "run", fake_subprocess_run)
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--pairs", "1",
            "--workload", "blackout", "--out", str(tmp_path / "out")]
    assert perf_ab.main(argv + ["--seed", "7"]) == 0
    assert len(commands) == 4
    for tree, args in commands:
        assert args[:2] == ["--workload", "blackout"]
        assert args[-2:] == ["--seed", "7"], (tree, args)
    assert {tree for tree, _ in commands} == {"base", "head"}

    # Without --seed, perfbench picks its own default.
    commands.clear()
    assert perf_ab.main(argv) == 0
    assert all("--seed" not in args for _, args in commands)
