"""Campaign executor backends: the ordered map, resolution, and — crucially —
bit-for-bit equality between the in-process and process-pool paths, including
pooled checkpoints and recovery from crashed and hung workers (the ``chaos``
marker)."""

import json
import os
import time

import numpy as np
import pytest

from repro.experiments.datasets import dataset
from repro.experiments.runners import run_broadcast_efficiency
from repro.scenarios.executors import (
    CampaignExecutionError,
    ProcessPoolExecutor,
    executor_from_name,
    run_chunk,
)
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.pipeline import default_swarm_config

#: Sentinel file for the chaos task functions: the first worker to find it
#: missing creates it and misbehaves; retries then run clean.  Module-level
#: so the fork-started workers inherit the per-test path.
_CHAOS_FLAG = None


def _crash_once_fn(chunk):
    """Hard-kill the first worker process (simulates a segfaulting chunk)."""
    if _CHAOS_FLAG is not None and not os.path.exists(_CHAOS_FLAG):
        open(_CHAOS_FLAG, "w").close()
        os._exit(1)
    return run_chunk(chunk)


def _hang_once_fn(chunk):
    """Stall the first worker past any reasonable task timeout."""
    if _CHAOS_FLAG is not None and not os.path.exists(_CHAOS_FLAG):
        open(_CHAOS_FLAG, "w").close()
        time.sleep(300)
    return run_chunk(chunk)


def _always_crash_fn(chunk):
    os._exit(1)


def _square(x):
    return x * x


def assert_records_identical(a, b):
    """Two measurement records must match byte for byte."""
    assert a.hosts == b.hosts
    assert a.iterations == b.iterations
    for ra, rb in zip(a.results, b.results):
        assert ra.root == rb.root
        assert ra.duration == rb.duration
        assert ra.distinct_edges == rb.distinct_edges
        assert ra.fragments.labels == rb.fragments.labels
        assert np.array_equal(ra.fragments.counts, rb.fragments.counts)
        assert ra.completion_times == rb.completion_times


class TestMap:
    def test_outputs_keep_item_order_over_three_workers(self):
        from repro.observability.metrics import METRICS

        items = list(range(7))
        before = METRICS.snapshot()
        assert ProcessPoolExecutor(workers=3).map(_square, items) == [
            x * x for x in items
        ]
        # One contiguous chunk per worker.
        assert METRICS.snapshot().delta_since(before).counter("executor.tasks") == 3

    def test_empty_items(self):
        assert ProcessPoolExecutor(workers=2).map(_square, []) == []

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolExecutor(workers=0)


class TestResolution:
    def test_names(self):
        assert executor_from_name(None) is None
        assert executor_from_name("serial") is None
        assert executor_from_name("process", workers=3).workers == 3
        with pytest.raises(ValueError, match="available: serial, process$"):
            executor_from_name("gpu")


class TestBackendEquality:
    """The acceptance gate: fixed seed ⇒ byte-identical records on every backend."""

    def _campaign(self, topology, config, executor, rotate_root=False):
        return MeasurementCampaign(
            topology, config, seed=42, rotate_root=rotate_root, executor=executor
        )

    def test_process_pool_matches_serial(self, two_site_topology, tiny_swarm_config):
        inline = self._campaign(two_site_topology, tiny_swarm_config, None).run(4)
        pooled = self._campaign(
            two_site_topology, tiny_swarm_config, ProcessPoolExecutor(workers=2)
        ).run(4)
        assert_records_identical(inline, pooled)

    def test_process_pool_matches_serial_with_rotating_root(
        self, two_site_topology, tiny_swarm_config
    ):
        inline = self._campaign(
            two_site_topology, tiny_swarm_config, None, rotate_root=True
        ).run(5)
        pooled = self._campaign(
            two_site_topology,
            tiny_swarm_config,
            ProcessPoolExecutor(workers=2),
            rotate_root=True,
        ).run(5)
        assert {r.root for r in pooled.results} != {pooled.hosts[0]}
        assert_records_identical(inline, pooled)

    def test_rerunning_same_campaign_is_idempotent(
        self, two_site_topology, tiny_swarm_config
    ):
        """A second run() of the same campaign object replays the first —
        on every backend — so serial and pooled paths can never drift."""
        inline = self._campaign(two_site_topology, tiny_swarm_config, None)
        first = inline.run(2)
        assert_records_identical(first, inline.run(2))
        pooled = self._campaign(
            two_site_topology, tiny_swarm_config, ProcessPoolExecutor(workers=2)
        )
        assert_records_identical(first, pooled.run(2))
        assert_records_identical(first, pooled.run(2))

    def test_chunking_does_not_change_results(self, dumbbell_topology, tiny_swarm_config):
        # 4 iterations over 2 workers ship chunks of 2; over 4, chunks of 1.
        coarse = self._campaign(
            dumbbell_topology, tiny_swarm_config, ProcessPoolExecutor(workers=2)
        ).run(4)
        fine = self._campaign(
            dumbbell_topology, tiny_swarm_config, ProcessPoolExecutor(workers=4)
        ).run(4)
        assert_records_identical(coarse, fine)

    def test_pooled_checkpoints_resume_to_the_serial_record(self, tmp_path):
        """The pool path writes its checkpoints in the parent, and a pooled
        resume reproduces the uninterrupted serial campaign."""
        ds = dataset("G-T", per_site=3)

        def campaign(executor, checkpoint=None):
            return MeasurementCampaign(
                ds.topology, default_swarm_config(100), hosts=ds.hosts,
                seed=2012, faults="chaos", executor=executor,
                checkpoint=checkpoint,
            )

        ckpt = tmp_path / "ckpt"
        serial = campaign(None).run(4)
        campaign(ProcessPoolExecutor(workers=2), ckpt).run(2)
        assert len(list(ckpt.glob("iter_*.pkl"))) == 2
        resumed = campaign(ProcessPoolExecutor(workers=2), ckpt).run(4)
        assert len(list(ckpt.glob("iter_*.pkl"))) == 4
        assert_records_identical(serial, resumed)
        assert resumed.workload_stats == serial.workload_stats
        assert any(row.get("fault") for it in serial.workload_stats for row in it)

    def test_broadcast_efficiency_backend_equality(self):
        serial = run_broadcast_efficiency(
            node_counts=(4, 8), num_fragments=60, seed=3
        )
        pooled = run_broadcast_efficiency(
            node_counts=(4, 8),
            num_fragments=60,
            seed=3,
            executor=ProcessPoolExecutor(workers=2),
        )
        assert serial["durations_by_nodes"] == pooled["durations_by_nodes"]
        assert serial["durations_by_fragments"] == pooled["durations_by_fragments"]


class TestWorkersEnvValidation:
    """The pool's knobs are checked where they are given, before any run:
    ``--workers`` on the CLI and the constructor's arguments."""

    def test_zero_workers_exit_2_before_any_run(self, capsys):
        from repro.cli import main

        assert main(["run", "G-T", "--executor", "process",
                     "--workers", "0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["workers must be at least 1"]

    def test_fault_tolerance_knob_validation(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ProcessPoolExecutor(task_timeout=0)
        with pytest.raises(ValueError, match="retries"):
            ProcessPoolExecutor(retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            ProcessPoolExecutor(retry_backoff=-0.1)


class TestWorkloadFaultTaskThreading:
    """Satellite guard: ``--executor process`` campaigns must actually run
    the workload/fault plan, not silently fall back to bare broadcasts."""

    def _records(self, topology, config, executor, **kwargs):
        return MeasurementCampaign(
            topology, config, seed=42, executor=executor, **kwargs
        ).run(3)

    def test_process_pool_runs_workloads(self, two_site_topology, tiny_swarm_config):
        serial = self._records(
            two_site_topology, tiny_swarm_config, None, workload="churn"
        )
        pooled = self._records(
            two_site_topology,
            tiny_swarm_config,
            ProcessPoolExecutor(workers=2),
            workload="churn",
        )
        assert_records_identical(serial, pooled)
        # The guard proper: the pooled record carries real per-iteration
        # workload stats — the tenants ran inside the worker processes.
        assert pooled.workload_stats == serial.workload_stats
        assert any(
            row["kind"] == "churn" for it in pooled.workload_stats for row in it
        )

    def test_process_pool_runs_fault_plans(self, two_site_topology, tiny_swarm_config):
        serial = self._records(
            two_site_topology, tiny_swarm_config, None,
            workload="rival", faults="chaos",
        )
        pooled = self._records(
            two_site_topology,
            tiny_swarm_config,
            ProcessPoolExecutor(workers=2),
            workload="rival", faults="chaos",
        )
        assert_records_identical(serial, pooled)
        assert pooled.workload_stats == serial.workload_stats
        assert any(
            row.get("fault") for it in pooled.workload_stats for row in it
        )


class TestTelemetryMerge:
    """The metrics registry is per-process; the process pool ships worker
    snapshot deltas back beside each chunk's outputs and merges them into the
    parent.  The simulation-side counters must therefore agree exactly
    across the serial and process backends — the executor is an execution
    strategy, not a different instrument."""

    SIM_COUNTERS = (
        "swarm.broadcasts",
        "swarm.control_steps",
        "swarm.receipts",
        "campaign.iterations",
    )

    def _campaign_delta(self, topology, config, executor):
        from repro.observability.metrics import METRICS

        before = METRICS.snapshot()
        record = MeasurementCampaign(
            topology, config, seed=42, executor=executor
        ).run(4)
        return record, METRICS.snapshot().delta_since(before)

    def test_metrics_merge_identically_across_executors(
        self, two_site_topology, tiny_swarm_config
    ):
        serial_record, serial = self._campaign_delta(
            two_site_topology, tiny_swarm_config, None
        )
        pooled_record, pooled = self._campaign_delta(
            two_site_topology, tiny_swarm_config, ProcessPoolExecutor(workers=2)
        )
        assert_records_identical(serial_record, pooled_record)
        for key in self.SIM_COUNTERS:
            assert pooled.counter(key) == serial.counter(key), key
        # The pooled counters arrived via worker snapshot merging: more than
        # one task chunk executed, none of them in this process.
        assert pooled.counter("executor.tasks") >= 2


@pytest.mark.chaos
class TestWorkerFaultTolerance:
    """Crash/hang injection: the pool must terminate or survive misbehaving
    workers, retry on a fresh pool, and still produce byte-identical
    records."""

    def _serial_record(self, topology, config):
        return MeasurementCampaign(topology, config, seed=42).run(3)

    def _chaos_executor(self, task_fn, **kwargs):
        return ProcessPoolExecutor(
            workers=2, task_fn=task_fn, retries=2, retry_backoff=0.01, **kwargs
        )

    @pytest.fixture(autouse=True)
    def chaos_flag(self, tmp_path):
        global _CHAOS_FLAG
        _CHAOS_FLAG = str(tmp_path / "misbehaved")
        yield
        _CHAOS_FLAG = None

    @pytest.fixture
    def chaos_trace(self, tmp_path):
        """Trace the chaos run, yield the path, restore the no-op tracer."""
        from repro.observability.tracer import TRACER

        trace_path = tmp_path / "chaos.jsonl"
        TRACER.configure(str(trace_path))
        yield trace_path
        TRACER.close()

    @staticmethod
    def _trace(trace_path):
        """The trace's record names, and how many broadcast spans the pool's
        workers recorded (the serial reference record is traced in this
        process too, so those are counted by pid)."""
        from repro.observability.export import load_records
        from repro.observability.tracer import TRACER

        TRACER.flush()
        records = load_records(str(trace_path))
        worker_broadcasts = sum(
            r.get("name") == "swarm.broadcast" and r["pid"] != os.getpid()
            for r in records
        )
        return [r.get("name") for r in records], worker_broadcasts

    def test_recovers_from_crashed_worker(
        self, two_site_topology, tiny_swarm_config, chaos_trace
    ):
        from repro.observability.metrics import METRICS

        before = METRICS.snapshot()
        executor = self._chaos_executor(_crash_once_fn)
        record = MeasurementCampaign(
            two_site_topology, tiny_swarm_config, seed=42, executor=executor
        ).run(3)
        assert_records_identical(
            self._serial_record(two_site_topology, tiny_swarm_config), record
        )
        assert executor.task_failures >= 1
        # The telemetry layer saw the crash and the recovery round.
        delta = METRICS.snapshot().delta_since(before)
        assert delta.counter("executor.worker_crashes") >= 1
        assert delta.counter("executor.retries") >= 1
        names, worker_broadcasts = self._trace(chaos_trace)
        assert "executor.worker_crash" in names
        assert "executor.retry" in names
        # The crashed attempt returned nothing: only its retry's records
        # arrived, once.
        assert worker_broadcasts == 3

    def test_recovers_from_hung_worker(
        self, two_site_topology, tiny_swarm_config, chaos_trace
    ):
        from repro.observability.metrics import METRICS

        before = METRICS.snapshot()
        executor = self._chaos_executor(_hang_once_fn, task_timeout=15)
        record = MeasurementCampaign(
            two_site_topology, tiny_swarm_config, seed=42, executor=executor
        ).run(3)
        assert_records_identical(
            self._serial_record(two_site_topology, tiny_swarm_config), record
        )
        assert executor.task_failures >= 1
        delta = METRICS.snapshot().delta_since(before)
        assert delta.counter("executor.timeouts") >= 1
        assert delta.counter("executor.retries") >= 1
        names, worker_broadcasts = self._trace(chaos_trace)
        assert "executor.timeout" in names
        assert "executor.retry" in names
        assert worker_broadcasts == 3

    def test_persistent_crash_raises_after_retries(
        self, two_site_topology, tiny_swarm_config
    ):
        executor = ProcessPoolExecutor(
            workers=2, task_fn=_always_crash_fn, retries=1, retry_backoff=0.01
        )
        campaign = MeasurementCampaign(
            two_site_topology, tiny_swarm_config, seed=42, executor=executor
        )
        with pytest.raises(CampaignExecutionError, match="after 1 retr"):
            campaign.run(3)


class TestPipelineIntegration:
    def test_pipeline_summary_identical_across_backends(self, two_site_topology):
        from repro.scenarios import get_scenario

        spec = get_scenario("G-T")
        serial = spec.run(iterations=3, num_fragments=100, per_site=3)
        pooled = spec.run(
            iterations=3,
            num_fragments=100,
            per_site=3,
            executor=ProcessPoolExecutor(workers=2),
        )
        assert serial["measured_nmi"] == pooled["measured_nmi"]
        assert serial["modularity"] == pooled["modularity"]
        assert serial["measurement_time_s"] == pooled["measurement_time_s"]
        assert serial["nmi_per_iteration"] == pooled["nmi_per_iteration"]
        assert pooled["executor"] == "process"
        assert_records_identical(serial["result"].record, pooled["result"].record)

    def test_quorum_campaign_reports_the_serial_loop_it_ran(self):
        from repro.observability.metrics import METRICS
        from repro.scenarios import get_scenario

        before = METRICS.snapshot()
        summary = get_scenario("CHURN").run(
            executor=ProcessPoolExecutor(workers=2), quorum=2,
            iterations=3, num_fragments=80, per_site=2,
        )
        delta = METRICS.snapshot().delta_since(before)
        assert summary["executor"] == "serial"
        assert delta.counter("executor.tasks") == 0

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("G-T", {"iterations": 2, "num_fragments": 80, "per_site": 2}),
            ("fig13", {"iterations": 2, "num_fragments": 80, "per_site": 2,
                       "datasets": ("G-T",)}),
            ("broadcast-efficiency", {"num_fragments": 80,
                                      "node_counts": (4, 8)}),
        ],
        ids=["G-T", "fig13", "broadcast-efficiency"],
    )
    def test_environment_executor_is_the_one_reported(self, name, overrides):
        """The executor a campaign or runner is handed is the one that runs
        and the one its summary names."""
        from repro.observability.metrics import METRICS
        from repro.scenarios import get_scenario

        before = METRICS.snapshot()
        summary = get_scenario(name).run(
            executor=ProcessPoolExecutor(workers=2), **overrides
        )
        delta = METRICS.snapshot().delta_since(before)
        assert summary["executor"] == "process"
        assert delta.counter("executor.tasks") >= 1

    def test_no_environment_variable_selects_the_executor(
        self, monkeypatch, tmp_path, capsys
    ):
        """``--executor serial`` runs in-process whatever the environment
        says: the flag is the only way to pick a backend."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "2")
        path = tmp_path / "fig13.json"
        assert main(["run", "fig13", "--iterations", "2", "--per-site", "2",
                     "--fragments", "80", "--set", "datasets=G-T,B-T",
                     "--executor", "serial", "--json", str(path)]) == 0
        record = json.loads(path.read_text())
        assert record["executor"] == "serial"
        assert "executor.tasks" not in record["metrics"]["counters"]

    def test_runner_without_executor_reports_serial(self):
        from repro.observability.metrics import METRICS
        from repro.scenarios import get_scenario

        before = METRICS.snapshot()
        summary = get_scenario("netpipe").run(
            executor=ProcessPoolExecutor(workers=2), repeats=2
        )
        delta = METRICS.snapshot().delta_since(before)
        assert summary["executor"] == "serial"
        assert delta.counter("executor.tasks") == 0
