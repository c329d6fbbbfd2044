"""Unit tests for the telemetry layer: metrics algebra, tracer lifecycle,
the one-file trace of a pooled campaign, and the Chrome trace-event export.

The integration-level guarantees live elsewhere: seed-replay neutrality in
``tests/test_seed_replay.py`` (tracing on/off goldens), cross-executor
snapshot merging in ``tests/test_executors.py``, byte-for-byte ``--json``
record replay in ``tests/test_cli.py``, and the chaos-marker telemetry
assertions next to the fault-tolerance tests.  This module pins
the value-object semantics those suites rely on.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

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
    TRACE_SCHEMA,
    TRACER,
    TraceConfigError,
    Tracer,
)
from repro.scenarios.executors import ProcessPoolExecutor
from repro.tomography.measurement import MeasurementCampaign


# ---------------------------------------------------------------------- #
# metrics: snapshot algebra
# ---------------------------------------------------------------------- #
class TestMetricsSnapshot:
    def test_delta_drops_untouched_and_zero_counters(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("b", 2)
        before = registry.snapshot()
        registry.count("b", 3)
        registry.count("c", 0.5)
        registry.count("d")
        delta = registry.snapshot().delta_since(before)
        assert delta.counters == {"b": 3, "c": 0.5, "d": 1}
        # A counter first touched inside the interval keeps its int type.
        assert type(delta.counters["d"]) is int
        assert delta.counter("a") == 0
        assert delta.counter("missing", default=-1) == -1

    def test_snapshot_is_picklable_and_falsy_when_empty(self):
        assert not MetricsSnapshot()
        registry = MetricsRegistry()
        registry.count("n")
        snap = registry.snapshot()
        assert snap
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap

    def test_jsonable_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.count("c", 2)
        registry.count("a")
        payload = json.loads(json.dumps(registry.snapshot().jsonable()))
        assert payload == {"counters": {"a": 1, "c": 2}}
        assert list(payload["counters"]) == ["a", "c"]

    def test_registry_merge_and_reset(self):
        registry = MetricsRegistry()
        registry.count("x")
        registry.merge(MetricsSnapshot(counters={"x": 4, "y": 2}))
        registry.merge(None)  # tolerated: tasks without telemetry
        snap = registry.snapshot()
        assert snap.counters == {"x": 5, "y": 2}

    def test_catalogue_names_follow_the_dotted_convention(self):
        for name, description in METRIC_CATALOGUE.items():
            assert "." in name, name
            assert description


# ---------------------------------------------------------------------- #
# tracer: lifecycle, fail-fast
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_tracer_is_a_noop(self, tmp_path):
        tracer = Tracer()
        tracer.event("never", sim_time=1.0)
        tracer.span_record("never", 0.0)
        with tracer.span("never"):
            pass
        assert not tracer.enabled

    def test_records_meta_events_and_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer()
        tracer.configure(str(path), detail="full")
        tracer.event("sim.thing", sim_time=2.5, detail=7)
        tracer.event("host.thing")
        with tracer.span("outer", label="x"):
            pass
        tracer.close()
        assert not tracer.enabled

        records = load_records(str(path))
        meta = trace_meta(records)
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["detail"] == "full"
        assert meta["pid"] == os.getpid()

        by_name = {r.get("name"): r for r in records}
        assert by_name["sim.thing"]["sim_ts"] == 2.5
        assert by_name["sim.thing"]["args"] == {"detail": 7}
        assert "sim_ts" not in by_name["host.thing"]
        span = by_name["outer"]
        assert span["type"] == "span"
        assert span["wall_dur"] >= 0.0
        assert span["args"] == {"label": "x"}

    def test_unwritable_path_fails_fast(self, tmp_path):
        tracer = Tracer()
        with pytest.raises(TraceConfigError, match="not writable"):
            tracer.configure(str(tmp_path / "no" / "such" / "dir" / "t.jsonl"))
        assert not tracer.enabled
        with pytest.raises(TraceConfigError, match="detail"):
            tracer.configure(str(tmp_path / "t.jsonl"), detail="verbose")


# ---------------------------------------------------------------------- #
# one file: pool workers return their records to the parent
# ---------------------------------------------------------------------- #
class TestPooledTrace:
    """A traced campaign on the process pool writes one file: each worker
    records its chunk into memory and returns the lines with its counter
    delta, and the parent appends them to its own sink."""

    @pytest.fixture
    def trace_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TRACER.configure(str(path))
        yield path
        TRACER.close()

    @staticmethod
    def _pooled_campaign(topology, config):
        executor = ProcessPoolExecutor(workers=2)
        MeasurementCampaign(topology, config, seed=42, executor=executor).run(4)

    @staticmethod
    def _broadcasts(path):
        TRACER.flush()
        records = load_records(str(path))
        return records, [r for r in records if r.get("name") == "swarm.broadcast"]

    def test_one_file_holds_every_worker_broadcast(
        self, trace_path, two_site_topology, tiny_swarm_config
    ):
        self._pooled_campaign(two_site_topology, tiny_swarm_config)
        assert list(trace_path.parent.iterdir()) == [trace_path]
        records, broadcasts = self._broadcasts(trace_path)
        assert len(broadcasts) == 4
        assert os.getpid() not in {r["pid"] for r in broadcasts}
        # The parent's meta heads the file, and every worker's block opens
        # with that worker's own meta.
        assert trace_meta(records)["pid"] == os.getpid()
        first_of_pid = {}
        for record in records:
            first_of_pid.setdefault(record["pid"], record["type"])
        assert set(first_of_pid.values()) == {"meta"}

    def test_two_campaigns_record_each_broadcast_once(
        self, trace_path, two_site_topology, tiny_swarm_config
    ):
        """The parent flushes before each round's pool forks, so no worker's
        copy of the sink writes the first campaign's records again."""
        self._pooled_campaign(two_site_topology, tiny_swarm_config)
        self._pooled_campaign(two_site_topology, tiny_swarm_config)
        _, broadcasts = self._broadcasts(trace_path)
        assert len(broadcasts) == 8


# ---------------------------------------------------------------------- #
# export: Chrome trace events and summaries
# ---------------------------------------------------------------------- #
def write_trace(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = Tracer()
    tracer.configure(str(path), detail="full")
    tracer.event("fault.link-failure", sim_time=1.5, link=("a", "b"))
    tracer.event("executor.retry", attempt=1)
    with tracer.span("swarm.broadcast", root="a"):
        pass
    tracer.close()
    return path


class TestExport:
    def test_chrome_export_has_required_keys(self, tmp_path):
        path = write_trace(tmp_path)
        out = tmp_path / "t.chrome.json"
        count = export_chrome(str(path), str(out))
        chrome = json.loads(out.read_text())
        assert set(chrome) == {"traceEvents", "displayTimeUnit"}
        events = chrome["traceEvents"]
        assert len(events) == count
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            assert "pid" in event
            if event["ph"] != "M":
                assert "ts" in event

    def test_chrome_clock_routing(self, tmp_path):
        records = load_records(str(write_trace(tmp_path)))
        events = to_chrome(records)["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        # Sim-time events ride the sim track, in simulation microseconds.
        sim = by_name["fault.link-failure"]
        assert (sim["ph"], sim["tid"], sim["ts"]) == ("i", 1, 1.5e6)
        # Host-side events and spans ride the wall track.
        assert by_name["executor.retry"]["tid"] == 0
        span = by_name["swarm.broadcast"]
        assert span["ph"] == "X" and span["tid"] == 0 and "dur" in span

    def test_chrome_shifts_each_pooled_block_by_its_own_meta(self):
        def meta(pid, wall_start):
            return {"type": "meta", "pid": pid, "wall_start": wall_start}

        def span(name, pid, wall_ts):
            return {"type": "span", "name": name, "pid": pid,
                    "wall_ts": wall_ts, "wall_dur": 0.01}

        records = [
            meta(1, 1000.0),
            span("executor.round", 1, 0.1),
            meta(2, 1000.25),  # a worker block starting 0.25 s later
            span("first-chunk", 2, 0.05),
            {"type": "event", "name": "fault", "pid": 2, "wall_ts": 0.06,
             "sim_ts": 2.0},
            meta(2, 1000.75),  # the same worker's second block
            span("second-chunk", 2, 0.05),
            {"type": "event", "name": "executor.retry", "pid": 2, "wall_ts": 0.07},
            span("pipeline.analyze", 1, 1.0),
        ]
        events = to_chrome(records)["traceEvents"]
        ts = {e["name"]: e["ts"] for e in events if e["ph"] != "M"}
        assert ts["first-chunk"] == pytest.approx(0.30e6)
        assert ts["second-chunk"] == pytest.approx(0.80e6)
        assert ts["executor.retry"] == pytest.approx(0.82e6)
        # The parent's spans and sim-time events do not move.
        assert ts["executor.round"] == 0.1e6
        assert ts["pipeline.analyze"] == 1.0e6
        assert ts["fault"] == 2.0e6

    def test_summarize_counts_and_span_seconds(self, tmp_path):
        records = load_records(str(write_trace(tmp_path)))
        summary = summarize(records)
        assert summary["fault.link-failure"]["count"] == 1
        assert summary["executor.retry"]["type"] == "event"
        assert summary["swarm.broadcast"]["wall_s"] >= 0.0
        assert "meta" not in summary

    def test_load_records_reports_path_and_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type":"meta"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_records(str(bad))


# ---------------------------------------------------------------------- #
# CLI: fail-fast and telemetry surfaces
# ---------------------------------------------------------------------- #
class TestCli:
    def _repro(self, *argv, cwd=None, **env):
        env = {
            **os.environ,
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
            **env,
        }
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def test_unwritable_trace_path_exits_fast(self, tmp_path):
        proc = self._repro(
            "run",
            "B-G-T",
            "--iterations",
            "1",
            "--trace",
            str(tmp_path / "no" / "dir" / "t.jsonl"),
        )
        assert proc.returncode == 2
        assert "not writable" in proc.stderr

    POOLED_G_T = ["run", "G-T", "--iterations", "8", "--fragments", "40",
                  "--per-site", "2", "--executor", "process", "--workers", "2"]

    def test_pooled_run_writes_one_trace_file(self, tmp_path):
        proc = self._repro(*self.POOLED_G_T, "--trace", "t.jsonl", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]
        records = load_records(str(tmp_path / "t.jsonl"))
        assert trace_meta(records)["detail"] == "summary"
        assert summarize(records)["swarm.broadcast"]["count"] == 8

    def test_the_environment_turns_no_trace_on(self, tmp_path):
        """``REPRO_TRACE`` is not read: a pooled run without ``--trace``
        writes no file."""
        proc = self._repro(
            *self.POOLED_G_T, cwd=tmp_path, REPRO_TRACE=str(tmp_path / "t.jsonl")
        )
        assert proc.returncode == 0, proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_metrics_subcommand_lists_the_catalogue(self, tmp_path):
        out = tmp_path / "catalogue.json"
        proc = self._repro("metrics", "--json", str(out))
        assert proc.returncode == 0
        assert "swarm.broadcasts" in proc.stdout
        listing = json.loads(out.read_text())["catalogue"]
        by_name = {row["name"]: row for row in listing}
        assert by_name["swarm.broadcasts"] == {
            "name": "swarm.broadcasts",
            "description": METRIC_CATALOGUE["swarm.broadcasts"],
        }
        assert set(by_name) == set(METRIC_CATALOGUE)

    def test_trace_export_requires_chrome_flag(self, tmp_path):
        path = write_trace(tmp_path)
        proc = self._repro("trace", "export", str(path))
        assert proc.returncode == 2
        proc = self._repro("trace", "export", str(path), "--chrome")
        assert proc.returncode == 0
        chrome = json.loads((tmp_path / "t.jsonl.chrome.json").read_text())
        assert chrome["traceEvents"]

    def test_trace_summary_on_missing_file_exits_cleanly(self, tmp_path):
        proc = self._repro("trace", "summary", str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2
