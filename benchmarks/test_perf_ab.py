"""The A/B perf gate's reduce and compare steps, on synthetic reports.

These are plain tests of ``perf_ab.py``; they run no benchmark.
"""

import csv
import json
import subprocess
from pathlib import Path

import pytest

from benchmarks import perf_ab
from benchmarks.perf_ab import behaviour_diffs, claim_rule, compare, reduce_reports

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


def _runs(base_values, head_values):
    """Base and head values by run index, as ``claim_rule`` takes them."""
    return dict(enumerate(base_values)), dict(enumerate(head_values))


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


# ---------------------------------------------------------------------- #
# the claim rule: reported per row, never a failure
# ---------------------------------------------------------------------- #
BASE_TEN = [10.0, 10.1, 9.9, 10.2, 9.8, 10.05, 9.95, 10.15, 9.85, 10.0]


def _row(lines, metric):
    (line,) = [line for line in lines if f" {metric} " in line]
    return line


def test_a_ten_of_ten_win_wider_than_the_base_iqr_meets_the_claim_rule():
    head = [time - 0.6 for time in BASE_TEN]
    rule = claim_rule(*_runs(BASE_TEN, head), "lower")
    assert (rule["won"], rule["pairs"], rule["meets"]) == (10, 10, True)
    # The base's quartiles by linear interpolation: [9.9125, 10.0875].
    assert (rule["q1"], rule["q3"]) == (pytest.approx(9.9125), pytest.approx(10.0875))
    lines, failures = compare(_rows(BASE_TEN, head), END_TO_END)
    assert failures == []
    assert " 10/10 " in _row(lines, "campaign_s") and _row(lines, "campaign_s").endswith("claim")


def test_an_eight_of_ten_win_does_not_meet_the_claim_rule():
    head = [time - 0.6 for time in BASE_TEN]
    head[3] = head[7] = 11.0
    rule = claim_rule(*_runs(BASE_TEN, head), "lower")
    assert (rule["won"], rule["pairs"], rule["meets"]) == (8, 10, False)
    lines, _ = compare(_rows(BASE_TEN, head), END_TO_END)
    assert " 8/10 " in _row(lines, "campaign_s") and _row(lines, "campaign_s").endswith("-")


def test_ties_count_for_neither_side():
    rule = claim_rule(*_runs(BASE_TEN, BASE_TEN), "lower")
    assert (rule["won"], rule["pairs"], rule["meets"]) == (0, 10, False)
    # Every nmi in _rows is 1.0 on both sides: a tie in every pair.
    lines, _ = compare(_rows(BASE_TEN, BASE_TEN), END_TO_END)
    assert " 0/10 " in _row(lines, "nmi") and _row(lines, "nmi").endswith("-")


def test_a_higher_is_better_metric_is_won_upwards():
    base = [0.80, 0.82, 0.81, 0.79, 0.80, 0.81, 0.80, 0.82, 0.79, 0.80]
    up = claim_rule(*_runs(base, [value + 0.1 for value in base]), "higher")
    assert (up["won"], up["meets"]) == (10, True)
    down = claim_rule(*_runs(base, [value - 0.1 for value in base]), "higher")
    assert (down["won"], down["meets"]) == (0, False)


def test_a_clean_sweep_of_fewer_than_ten_pairs_is_no_claim():
    rule = claim_rule(*_runs(BASE_TEN[:3], [5.0, 5.0, 5.0]), "lower")
    assert (rule["won"], rule["pairs"], rule["meets"]) == (3, 3, False)


def test_main_writes_the_table_it_prints(tmp_path, monkeypatch, capsys):
    for side in ("base", "head"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "base" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))

    def fake_run(tree, workload, traced, seed):
        return {"workload": workload, "correct": True, "digests": ["d0"],
                "metrics": {"campaign_s": 8.0, "nmi": 1.0}}

    monkeypatch.setattr(perf_ab, "run_perfbench", fake_run)
    out = tmp_path / "out"
    assert perf_ab.main([str(tmp_path / "base"), str(tmp_path / "head"),
                         "--pairs", "1", "--workload", "blackout", "--out", str(out)]) == 0
    table = (out / "table.txt").read_text()
    assert table.splitlines()[0].startswith("workload") and "won" in table
    assert table.rstrip().endswith("perf gate passed")
    assert table in capsys.readouterr().out
