"""Fault-injection subsystem and fault-tolerant campaign machinery.

Covers the declarative fault plans (:mod:`repro.faults.spec`: workload
specs of fault-kind actors), the
injector actors on the shared workload agenda, determinism under faults
(same seed ⇒ byte-identical records, empty plan ⇒ no-op), the
checkpoint/resume path of :class:`~repro.tomography.measurement
.MeasurementCampaign`, quorum-based graceful degradation, and the
duration-spike failure detector of :mod:`repro.tomography.faults`.
"""

import pickle

import numpy as np
import pytest

from repro.experiments.datasets import dataset
from repro.experiments.runners import run_dataset_clustering
from repro.faults import (
    FAULT_NAMES,
    FAULT_PRESETS,
    NO_FAULTS,
    blackout_plan,
    chaos_plan,
    fault_plan_from_name,
    link_failure_plan,
    migrating_plan,
    route_flap_plan,
    tenant_cycle_plan,
    tracker_outage_plan,
)
from repro.observability.metrics import METRICS
from repro.scenarios import get_scenario
from repro.scenarios.catalog import _localization_dataset
from repro.tomography import measurement
from repro.tomography.faults import (
    DETECT_FACTOR,
    detect_epochs,
    detect_failure,
    fault_epoch_onsets,
    fault_onset_iteration,
)
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.pipeline import default_swarm_config
from repro.workloads.spec import (
    ActorSpec,
    WorkloadSpec,
    actor,
    run_workload_iteration,
)


@pytest.fixture
def gt_dataset():
    return dataset("G-T", per_site=3)


@pytest.fixture
def small_config():
    return default_swarm_config(150)


def record_digest(record):
    """Byte-level projection of a measurement record for equality checks."""
    return [
        (
            r.root,
            r.duration,
            tuple(r.fragments.labels),
            r.fragments.counts.tobytes(),
        )
        for r in record.results
    ]


# ---------------------------------------------------------------------- #
# declarative specs and presets
# ---------------------------------------------------------------------- #
def injector_rows(ds, config, plan, iteration):
    """Stats rows of the fault injectors one iteration under ``plan`` ran."""
    _, stats = run_workload_iteration(
        ds.topology, config, ds.hosts, ds.hosts[0], 7, iteration, None,
        faults=plan,
    )
    return [row for row in stats if row.get("fault")]


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown actor kind"):
            actor("meteor-strike", "boom")

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            ActorSpec(kind="link-failure", label="")

    def test_iteration_scoping(self):
        spec = actor("link-failure", "lf", from_iteration=2, until_iteration=4)
        assert [spec.applies_to(i) for i in range(5)] == [
            False, False, True, True, False,
        ]

    def test_plan_truthiness_and_activity(self):
        assert not NO_FAULTS
        assert not NO_FAULTS.active_in(0)
        plan = blackout_plan(from_iteration=2)
        assert plan
        assert not plan.active_in(1)
        assert plan.active_in(2)

    def test_plans_are_picklable(self):
        for name, plan in FAULT_PRESETS.items():
            clone = pickle.loads(pickle.dumps(plan))
            assert clone == plan, name

    def test_preset_resolution(self):
        assert fault_plan_from_name(None) is NO_FAULTS
        assert fault_plan_from_name("none") is NO_FAULTS
        assert fault_plan_from_name("chaos").name.startswith("chaos")
        plan = link_failure_plan(intensity=2.0)
        assert fault_plan_from_name(plan) is plan
        with pytest.raises(ValueError, match="unknown fault plan"):
            fault_plan_from_name("gremlins")
        assert set(FAULT_NAMES) == set(FAULT_PRESETS)

    def test_intensity_must_be_positive(self):
        for builder in (
            link_failure_plan, route_flap_plan, tracker_outage_plan,
            tenant_cycle_plan, chaos_plan,
        ):
            with pytest.raises(ValueError, match="positive"):
                builder(intensity=0.0)

    def test_metadata_keys(self, gt_dataset):
        summary = run_dataset_clustering(
            gt_dataset, faults=chaos_plan(), iterations=1, num_fragments=60,
            seed=2012,
        )
        assert summary["faults"] == "chaos-1"
        assert summary["fault_injectors"] == 4
        assert summary["fault_intensity"] == 1.0
        assert summary["fault_kinds"] == {
            "link-failure": 1, "route-flap": 1, "tracker-outage": 1,
            "tenant-cycle": 1,
        }

    def test_every_preset_builds_actors(self, gt_dataset, small_config):
        for name, plan in FAULT_PRESETS.items():
            rows = injector_rows(gt_dataset, small_config, plan, iteration=5)
            assert len(rows) == len(plan.active_in(5)), name

    def test_blackout_inert_before_onset(self, gt_dataset, small_config):
        plan = blackout_plan(from_iteration=2)
        assert injector_rows(gt_dataset, small_config, plan, iteration=1) == []


# ---------------------------------------------------------------------- #
# determinism under injected faults
# ---------------------------------------------------------------------- #
class TestFaultDeterminism:
    def _campaign(self, ds, config, faults, **kwargs):
        return MeasurementCampaign(
            ds.topology, config, hosts=ds.hosts, seed=2012, faults=faults,
            **kwargs,
        )

    def test_empty_plan_is_a_bitwise_noop(self, gt_dataset, small_config):
        bare = self._campaign(gt_dataset, small_config, None).run(2)
        empty = self._campaign(gt_dataset, small_config, NO_FAULTS).run(2)
        named = self._campaign(gt_dataset, small_config, "none").run(2)
        assert record_digest(bare) == record_digest(empty) == record_digest(named)
        # The empty plan resolves to "no faults at all": the single-tenant
        # fast path stays available, workload stats stay absent.
        assert self._campaign(gt_dataset, small_config, "none").faults is None

    def test_same_seed_replays_chaos_bit_for_bit(self, gt_dataset, small_config):
        first = self._campaign(gt_dataset, small_config, "chaos").run(2)
        second = self._campaign(gt_dataset, small_config, "chaos").run(2)
        assert record_digest(first) == record_digest(second)
        assert first.workload_stats == second.workload_stats

    @pytest.mark.parametrize(
        "preset",
        sorted(set(FAULT_NAMES) - {"none"})
        # Dense enough to fail and repair links mid-jump: a repair raises a
        # sleeping session's rates, and its receipts must land at the same
        # grid point as in the fixed loop.
        + [pytest.param(link_failure_plan(intensity=4.0), id="link-failure-4")],
    )
    def test_fixed_and_event_stepping_agree_under_faults(
        self, gt_dataset, preset
    ):
        records = {}
        for stepping in ("fixed", "event"):
            config = default_swarm_config(150, stepping=stepping)
            records[stepping] = self._campaign(
                gt_dataset, config, preset
            ).run(3)
        assert record_digest(records["fixed"]) == record_digest(records["event"])

    def test_stepping_agrees_under_migrating_reroute(self):
        # The self-healing path (avoid-set recompute + live re-pin) must
        # keep the two control-loop steppings bit-for-bit identical, like
        # every other subsystem.
        from repro.scenarios import get_scenario

        digests = {}
        for stepping in ("fixed", "event"):
            summary = get_scenario("MIGRATING-BOTTLENECK").run(
                iterations=4, num_fragments=120, per_site=2,
                stepping=stepping,
            )
            digests[stepping] = record_digest(summary["result"].record)
        assert digests["fixed"] == digests["event"]

    def test_blackout_shows_up_as_duration_spike(self, gt_dataset, small_config):
        record = self._campaign(
            gt_dataset, small_config, blackout_plan(from_iteration=2)
        ).run(4)
        healthy, failed = record.durations[:2], record.durations[2:]
        assert max(failed) > DETECT_FACTOR * max(healthy)


# ---------------------------------------------------------------------- #
# injector behaviour observable through iteration stats
# ---------------------------------------------------------------------- #
class TestInjectorStats:
    def _stats(self, ds, config, plan, iteration=0, seed=2012):
        _, stats = run_workload_iteration(
            ds.topology, config, ds.hosts, ds.hosts[0], seed, iteration,
            None, faults=plan,
        )
        return {row["actor"]: row for row in stats}

    def test_link_failure_rows(self, gt_dataset, small_config):
        rows = self._stats(gt_dataset, small_config, link_failure_plan(3.0))
        row = rows["linkfail"]
        assert row["kind"] == "link-failure"
        assert row["fault"] is True
        assert row["failures"] >= 1
        assert row["repairs"] <= row["failures"]

    def test_route_flap_rows(self, gt_dataset, small_config):
        rows = self._stats(gt_dataset, small_config, route_flap_plan(3.0))
        assert rows["flap"]["failures"] >= 1

    def test_a_persistent_failure_counts_its_downtime(self):
        # The blackout is never repaired: its outage runs to the end of
        # every post-onset iteration and counts up to that instant.
        summary = get_scenario("LINK-BLACKOUT").run(iterations=4, per_site=3)
        assert summary["link_repairs"] == 0
        assert 0 < summary["link_downtime_s"] <= summary["measurement_time_s"]

    @pytest.mark.parametrize("repin", [False, True])
    def test_a_flap_repins_live_flows_only_when_asked(self, repin):
        # On the backup-link substrate the flapping bottleneck has a
        # detour, so a re-pinning flap moves live flows onto it; by
        # default in-flight flows keep their route.
        ds = _localization_dataset(3, backup=True)
        params = {"repin": True} if repin else {}
        plan = WorkloadSpec(
            name="flap-bottleneck",
            actors=(
                actor("route-flap", "flap",
                      links=("bordeaux.bordeplage.bottleneck",), **params),
            ),
        )
        digests = {}
        for stepping in ("fixed", "event"):
            before = METRICS.snapshot()
            record = MeasurementCampaign(
                ds.topology, default_swarm_config(120, stepping=stepping),
                hosts=ds.hosts, seed=2012, faults=plan,
            ).run(2)
            moved = METRICS.snapshot().delta_since(before).counter(
                "routing.repins"
            )
            assert (moved > 0) == repin
            digests[stepping] = record_digest(record)
        assert digests["fixed"] == digests["event"]

    def test_tracker_outage_and_latecomer_rows(self, gt_dataset, small_config):
        rows = self._stats(gt_dataset, small_config, tracker_outage_plan(2.0))
        assert rows["outage"]["outages"] >= 1
        assert rows["latecomer"]["kind"] == "tenant-cycle"

    def test_tenant_cycle_rows(self, gt_dataset, small_config):
        rows = self._stats(gt_dataset, small_config, tenant_cycle_plan(1.0))
        arrivals = sum(
            row.get("arrivals", 0) for row in rows.values()
            if row["kind"] == "tenant-cycle"
        )
        assert arrivals >= 1


# ---------------------------------------------------------------------- #
# checkpoint / resume
# ---------------------------------------------------------------------- #
class TestCheckpointResume:
    def _campaign(self, ds, config, tmp_path, seed=2012, **kwargs):
        return MeasurementCampaign(
            ds.topology, config, hosts=ds.hosts, seed=seed,
            checkpoint=tmp_path / "ckpt", **kwargs,
        )

    def test_interrupted_campaign_resumes_byte_identical(
        self, gt_dataset, small_config, tmp_path
    ):
        uninterrupted = MeasurementCampaign(
            gt_dataset.topology, small_config, hosts=gt_dataset.hosts, seed=2012
        ).run(4)
        # "Crash" after two iterations; a fresh campaign object resumes from
        # the on-disk checkpoints and must reproduce the uninterrupted run.
        self._campaign(gt_dataset, small_config, tmp_path).run(2)
        assert len(list((tmp_path / "ckpt").glob("iter_*.pkl"))) == 2
        resumed = self._campaign(gt_dataset, small_config, tmp_path).run(4)
        assert record_digest(resumed) == record_digest(uninterrupted)

    def test_resume_false_ignores_checkpoints(
        self, gt_dataset, small_config, tmp_path
    ):
        campaign = self._campaign(gt_dataset, small_config, tmp_path)
        first = campaign.run(2)
        fresh = self._campaign(gt_dataset, small_config, tmp_path)
        rerun = fresh.run(2, resume=False)
        assert record_digest(rerun) == record_digest(first)

    def test_seed_mismatch_is_rejected(self, gt_dataset, small_config, tmp_path):
        self._campaign(gt_dataset, small_config, tmp_path).run(1)
        other = self._campaign(gt_dataset, small_config, tmp_path, seed=99)
        with pytest.raises(ValueError, match="seed"):
            other.run(1)

    def test_another_campaign_with_the_same_seed_is_rejected(
        self, gt_dataset, tmp_path
    ):
        """Same seed, same directory, but 300 fragments and rotated roots:
        the first campaign's iterations must not be read as the second's."""
        self._campaign(gt_dataset, default_swarm_config(120), tmp_path, seed=5).run(2)
        other = self._campaign(
            gt_dataset, default_swarm_config(300), tmp_path, seed=5,
            rotate_root=True,
        )
        with pytest.raises(ValueError, match="another campaign"):
            other.run(3)

    def test_corrupt_checkpoint_is_rerun(self, gt_dataset, small_config, tmp_path):
        baseline = self._campaign(gt_dataset, small_config, tmp_path).run(2)
        victim = next(iter((tmp_path / "ckpt").glob("iter_*.pkl")))
        victim.write_bytes(b"not a pickle")
        resumed = self._campaign(gt_dataset, small_config, tmp_path).run(2)
        assert record_digest(resumed) == record_digest(baseline)

    def test_a_checkpoint_of_another_version_is_rerun(
        self, gt_dataset, small_config, tmp_path, monkeypatch
    ):
        uninterrupted = MeasurementCampaign(
            gt_dataset.topology, small_config, hosts=gt_dataset.hosts,
            seed=2012, faults="chaos",
        ).run(2)
        with monkeypatch.context() as patched:
            patched.setattr(measurement, "CHECKPOINT_VERSION",
                            measurement.CHECKPOINT_VERSION - 1)
            self._campaign(gt_dataset, small_config, tmp_path,
                           faults="chaos").run(2)
        before = METRICS.snapshot()
        resumed = self._campaign(
            gt_dataset, small_config, tmp_path, faults="chaos"
        ).run(2)
        delta = METRICS.snapshot().delta_since(before)
        assert delta.counter("campaign.checkpoint_resumes") == 0
        assert delta.counter("campaign.checkpoint_writes") == 2
        assert record_digest(resumed) == record_digest(uninterrupted)
        assert resumed.workload_stats == uninterrupted.workload_stats

    def test_checkpoints_work_under_faults(self, gt_dataset, small_config, tmp_path):
        uninterrupted = MeasurementCampaign(
            gt_dataset.topology, small_config, hosts=gt_dataset.hosts,
            seed=2012, faults="chaos",
        ).run(3)
        self._campaign(gt_dataset, small_config, tmp_path, faults="chaos").run(1)
        resumed = self._campaign(
            gt_dataset, small_config, tmp_path, faults="chaos"
        ).run(3)
        assert record_digest(resumed) == record_digest(uninterrupted)
        assert resumed.workload_stats == uninterrupted.workload_stats


# ---------------------------------------------------------------------- #
# quorum-based graceful degradation
# ---------------------------------------------------------------------- #
class TestQuorum:
    @pytest.fixture
    def failing_setup(self, gt_dataset):
        """A blackout severe enough that post-onset broadcasts overrun
        ``max_sim_time`` and raise — healthy iterations take ≈0.044 s,
        blacked-out ones ≈1.1 s."""
        config = default_swarm_config(150, max_sim_time=0.5)
        return gt_dataset, config, blackout_plan(from_iteration=2)

    def test_without_quorum_the_failure_propagates(self, failing_setup):
        ds, config, plan = failing_setup
        campaign = MeasurementCampaign(
            ds.topology, config, hosts=ds.hosts, seed=2012, faults=plan
        )
        with pytest.raises(RuntimeError, match="max_sim_time"):
            campaign.run(4)

    def test_quorum_met_degrades_gracefully(self, failing_setup):
        ds, config, plan = failing_setup
        record = MeasurementCampaign(
            ds.topology, config, hosts=ds.hosts, seed=2012, faults=plan
        ).run(4, quorum=2)
        assert record.degraded
        assert record.iterations == 2
        assert record.failed_iterations == [2, 3]
        assert record.planned_iterations == 4
        assert record.aggregate() is not None

    def test_quorum_unmet_raises(self, failing_setup):
        ds, config, _ = failing_setup
        with pytest.raises(RuntimeError, match="quorum not met"):
            MeasurementCampaign(
                ds.topology, config, hosts=ds.hosts, seed=2012,
                faults=blackout_plan(from_iteration=1),
            ).run(4, quorum=3)

    def test_quorum_validation(self, gt_dataset, small_config):
        campaign = MeasurementCampaign(
            gt_dataset.topology, small_config, hosts=gt_dataset.hosts, seed=1
        )
        with pytest.raises(ValueError, match="quorum"):
            campaign.run(2, quorum=0)
        with pytest.raises(ValueError, match="quorum"):
            campaign.run(2, quorum=3)

    def test_healthy_campaign_with_quorum_is_not_degraded(
        self, gt_dataset, small_config
    ):
        bare = MeasurementCampaign(
            gt_dataset.topology, small_config, hosts=gt_dataset.hosts, seed=2012
        ).run(2)
        quorate = MeasurementCampaign(
            gt_dataset.topology, small_config, hosts=gt_dataset.hosts, seed=2012
        ).run(2, quorum=1)
        assert not quorate.degraded
        assert record_digest(quorate) == record_digest(bare)


# ---------------------------------------------------------------------- #
# detection metric and the fault study
# ---------------------------------------------------------------------- #
class TestDetection:
    def test_detects_first_spike_after_onset(self):
        out = detect_failure([1.0, 1.0, 1.0, 2.9, 3.0], onset=3,
                             expected_duration=1.0)
        assert out["detected"]
        assert out["detected_iteration"] == 3
        assert out["iterations_to_detect"] == 1
        assert out["time_to_detect_s"] == pytest.approx(2.9)
        assert out["baseline_duration_s"] == pytest.approx(1.0)

    def test_charges_every_post_onset_measurement(self):
        out = detect_failure([1.0, 1.0, 1.1, 1.0, 2.0], onset=2,
                             expected_duration=1.0)
        assert out["detected_iteration"] == 4
        assert out["iterations_to_detect"] == 3
        assert out["time_to_detect_s"] == pytest.approx(1.1 + 1.0 + 2.0)

    def test_falls_back_to_expected_duration_at_onset_zero(self):
        out = detect_failure([5.0, 5.0], onset=0, expected_duration=1.0)
        assert out["baseline_duration_s"] == 1.0
        assert out["detected_iteration"] == 0

    def test_no_spike_means_no_detection(self):
        out = detect_failure([1.0, 1.0, 1.05], onset=2, expected_duration=1.0)
        assert not out["detected"]
        assert out["time_to_detect_s"] is None

    def test_onset_of_plans(self):
        assert fault_onset_iteration(NO_FAULTS) == 0
        assert fault_onset_iteration(blackout_plan(from_iteration=3)) == 3
        assert fault_onset_iteration(chaos_plan()) == 0

    def test_onset_of_mixed_from_iteration_specs(self):
        plan = WorkloadSpec(
            name="mixed",
            actors=(
                actor("link-failure", "late", from_iteration=5),
                actor("route-flap", "early", from_iteration=2),
                actor("tracker-outage", "always"),
            ),
        )
        assert fault_onset_iteration(plan) == 0
        assert fault_epoch_onsets(plan) == [0, 2, 5]
        assert fault_epoch_onsets(NO_FAULTS) == []
        migrating = migrating_plan(
            links=("l1", "l2"), onsets=(2, 4), reroute=False
        )
        assert fault_onset_iteration(migrating) == 2
        assert fault_epoch_onsets(migrating) == [2, 4]

    def test_migrating_plan_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            migrating_plan(links=(), onsets=())
        with pytest.raises(ValueError, match="one onset per"):
            migrating_plan(links=("l1", "l2"), onsets=(2,))
        with pytest.raises(ValueError, match="strictly increasing"):
            migrating_plan(links=("l1", "l2"), onsets=(4, 2))

    def test_bad_detect_factor_and_window_rejected(self):
        with pytest.raises(ValueError, match="detect_factor"):
            detect_failure([1.0, 2.0], onset=1, expected_duration=1.0,
                           detect_factor=1.0)
        with pytest.raises(ValueError, match="detect_factor"):
            detect_failure([1.0, 2.0], onset=1, expected_duration=1.0,
                           detect_factor=0.5)
        with pytest.raises(ValueError, match="window"):
            detect_failure([1.0, 2.0], onset=1, expected_duration=1.0,
                           window=0)

    def test_empty_and_all_failed_campaigns(self):
        empty = detect_failure([], onset=0, expected_duration=1.0)
        assert not empty["detected"]
        assert empty["baseline_duration_s"] == 1.0
        assert empty["time_to_detect_s"] is None
        lost = detect_failure([None, None, None], onset=1,
                              expected_duration=1.0)
        assert not lost["detected"]
        assert lost["detected_iteration"] is None

    def test_lost_iterations_are_skipped_not_charged(self):
        out = detect_failure([1.0, 1.0, None, 5.0], onset=2,
                             expected_duration=1.0)
        assert out["detected_iteration"] == 3
        assert out["iterations_to_detect"] == 2
        assert out["time_to_detect_s"] == pytest.approx(5.0)

    def test_rolling_baseline_tracks_drift(self):
        # Duration creeps up ~10% per iteration — a static pre-onset
        # median (1.0) would cross the 1.25x threshold at 1.33 and flag
        # the drift itself; the rolling median + MAD band absorbs the
        # drift and still trips on the genuine 4.0 spike.
        drifting = [1.0, 1.0, 1.1, 1.21, 1.33, 1.46, 1.61, 4.0]
        out = detect_failure(drifting, onset=2, expected_duration=1.0)
        assert out["detected_iteration"] == 7
        assert out["iterations_to_detect"] == 6
        static_threshold = DETECT_FACTOR * 1.0
        assert any(d > static_threshold for d in drifting[2:7])

    def test_detect_epochs_remaps_iterations(self):
        durations = [1.0, 1.0, 4.0, 4.0, 0.9, 6.0]
        verdicts = detect_epochs(durations, onsets=[2, 4],
                                 expected_duration=1.0)
        assert [v["epoch"] for v in verdicts] == [0, 1]
        first, second = verdicts
        assert first["detected_iteration"] == 2
        assert first["end_iteration"] == 4
        # Epoch 1 is judged against the *pre-first-onset* healthy
        # history; its detection index maps back to campaign iteration 5.
        assert second["detected_iteration"] == 5
        assert second["fault_onset_iteration"] == 4
        assert second["iterations_to_detect"] == 2

    def test_detect_epochs_onsets_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            detect_epochs([1.0, 2.0], onsets=[1, 1], expected_duration=1.0)

    def test_fault_campaign_headline_metric(self, gt_dataset):
        summary = run_dataset_clustering(
            gt_dataset, faults="blackout", iterations=4, num_fragments=150,
            seed=2012,
        )
        assert summary["faults"] == "blackout"
        assert summary["detected"]
        assert summary["detected_iteration"] >= summary["fault_onset_iteration"]
        assert summary["time_to_detect_s"] > 0
        assert summary["link_failures"] >= 1
        assert not summary["degraded"]
        assert summary["achieved_iterations"] == 4

    def test_route_flap_victims_are_not_the_failed_link(self, gt_dataset):
        # Chaos pins no victim, so the truth falls back to the recorded
        # victims; the flap shares the link-failure row shape, but its
        # flapping links are not failures and must not blur the truth.
        summary = run_dataset_clustering(
            gt_dataset, faults="chaos", iterations=4, num_fragments=150,
            seed=2012,
        )
        assert summary["route_flaps"] >= 1
        assert summary["true_link"] == "grenoble.genepi.switch--grenoble.router"

    def test_fault_campaign_with_quorum_and_workload(self, gt_dataset):
        summary = run_dataset_clustering(
            gt_dataset, faults=blackout_plan(from_iteration=2),
            workload="rival", iterations=4, num_fragments=150, seed=2012,
            quorum=2,
        )
        assert summary["workload"] == "rival-1"
        assert summary["rival_broadcasts"] >= 1
        assert summary["iterations"] == 4
