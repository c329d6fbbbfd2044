"""The BENCH record writer: rows carry what the benchmarks recorded.

These are plain tests of ``run_benchmarks.py`` on synthetic
pytest-benchmark output; they time nothing.
"""

import json

from benchmarks.run_benchmarks import compare, normalize


def _entry(name, mean, extra_info=None):
    entry = {
        "name": name,
        "fullname": f"benchmarks/test_bench_faults.py::{name}",
        "stats": {"mean": mean, "stddev": 0.0, "rounds": 1},
    }
    if extra_info is not None:
        entry["extra_info"] = extra_info
    return entry


def _raw(tmp_path, entries):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"benchmarks": entries}))
    return path


def test_normalize_copies_extra_info_whole(tmp_path):
    """Fault and localization metadata reach the row; nothing is filtered."""
    extra = {
        "stepping": "fixed",
        "control_steps_per_broadcast": 54.2,
        "faults": "blackout",
        "fault_injectors": 1,
        "fault_intensity": 1.0,
        "detected": True,
        "time_to_detect_s": 0.4,
        "localization_status": "localized",
        "localized_link": "bordeplage-uplink",
        "localization_rank": 1,
        "time_to_localize_s": 0.6,
        "metrics": {"counters": {"swarm.broadcasts": 10}},
    }
    raw = _raw(tmp_path, [
        _entry("test_fault_detection", 2.0, extra),
        _entry("test_solver_scale", 0.5),
    ])
    record = normalize(raw, executor="serial", profile="ci", stepping="event")

    assert [row["name"] for row in record["benchmarks"]] == [
        "test_fault_detection", "test_solver_scale",
    ]
    fault, solver = record["benchmarks"]
    assert {key: fault[key] for key in extra} == extra
    assert fault["file"] == "benchmarks/test_bench_faults.py"
    assert fault["wall_clock_s"] == 2.0
    assert fault["executor"] == "serial"
    # A row without extra_info falls back to the suite's stepping mode.
    assert solver["stepping"] == "event"
    assert record["profile"] == "ci"


def test_compare_reads_records_with_legacy_keys(tmp_path):
    """--compare reads only name and wall_clock_s, so older BENCH files
    that still carry the legacy keys stay comparable."""
    baseline = tmp_path / "BENCH_old.json"
    baseline.write_text(json.dumps({"benchmarks": [
        {"name": "test_fast", "wall_clock_s": 1.0, "broadcasts": 10,
         "control_steps": 540},
        {"name": "test_slow", "wall_clock_s": 1.0, "broadcasts": 10,
         "control_steps": 540},
    ]}))
    current = {"benchmarks": [
        {"name": "test_fast", "wall_clock_s": 0.9},
        {"name": "test_slow", "wall_clock_s": 1.5},
        {"name": "test_new", "wall_clock_s": 3.0},
    ]}
    regressions = compare(current, baseline)
    assert [name for name, _ in regressions] == ["test_slow"]
