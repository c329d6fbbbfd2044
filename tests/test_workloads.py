"""The multi-tenant workload subsystem: engine, actors, spec, campaigns.

The two load-bearing properties:

* **degenerate exactness** — a workload holding only the measured broadcast
  replays the standalone ``BitTorrentBroadcast.run`` loop bit for bit
  (fragment matrix, durations, completion times, control steps);
* **stepping equivalence under interference** — with cross traffic, rival
  broadcasts, churn and capacity drift sharing the clock, the event-stepped
  loop still replays the fixed-dt oracle exactly (the engine's interference
  wakeups cut jumps short whenever the piecewise-constant-rate assumption
  behind a jump breaks).
"""

import hashlib

import numpy as np
import pytest

from repro.bittorrent.swarm import BitTorrentBroadcast, SwarmConfig
from repro.bittorrent.torrent import TorrentMeta
from repro.network.grid5000 import (
    build_bordeaux_site,
    build_multi_site,
    default_cluster_of,
)
from repro.tomography.measurement import MeasurementCampaign
from repro.workloads import (
    NONE,
    WORKLOAD_PRESETS,
    ActorSpec,
    BroadcastActor,
    BulkTransferActor,
    CapacityDriftActor,
    PoissonTrafficActor,
    WorkloadEngine,
    WorkloadSpec,
    actor,
    capacity_drift_workload,
    churn_workload,
    cross_traffic_workload,
    mixed_workload,
    rival_broadcast_workload,
    run_workload_iteration,
    workload_from_name,
)


def fingerprint(result):
    counts = result.fragments.counts.astype(np.int64)
    digest = hashlib.sha256()
    digest.update(("|".join(result.fragments.labels)).encode())
    digest.update(counts.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def two_site_topology():
    return build_multi_site(
        {site: {default_cluster_of(site): 4} for site in ("bordeaux", "grenoble")}
    )


@pytest.fixture(scope="module")
def bordeaux_topology():
    return build_bordeaux_site(bordeplage=4, bordereau=3, borderline=2)


def config_for(num_fragments, stepping="event", **kwargs):
    meta = TorrentMeta(name="wl", fragment_size=16384, num_fragments=num_fragments)
    return SwarmConfig(torrent=meta, stepping=stepping, **kwargs)


# ---------------------------------------------------------------------- #
# degenerate one-actor exactness
# ---------------------------------------------------------------------- #
class TestOneActorEquivalence:
    @pytest.mark.parametrize("stepping", ["fixed", "event"])
    def test_single_actor_matches_standalone_run(self, two_site_topology, stepping):
        config = config_for(80, stepping=stepping)
        reference = BitTorrentBroadcast(two_site_topology, config).run(
            rng=np.random.default_rng(73)
        )
        engine = WorkloadEngine(two_site_topology)
        primary = engine.add(
            BroadcastActor("primary", config, rng=np.random.default_rng(73))
        )
        engine.run()
        result = primary.result
        assert fingerprint(result) == fingerprint(reference)
        assert result.duration == reference.duration
        assert result.completion_times == reference.completion_times
        assert result.control_steps == reference.control_steps

    def test_empty_workload_campaign_equals_classic_campaign(self, two_site_topology):
        config = config_for(60)
        classic = MeasurementCampaign(two_site_topology, config, seed=11).run(3)
        # The empty spec routes through the classic path...
        via_none = MeasurementCampaign(
            two_site_topology, config, seed=11, workload=NONE
        ).run(3)
        # ...and a one-actor engine run reproduces it measurement for
        # measurement (same (seed, "broadcast", i) stream derivation).
        engine_record = [
            run_workload_iteration(
                two_site_topology, config, None, None, 11, i, NONE
            )[0]
            for i in range(3)
        ]
        for a, b, c in zip(classic.results, via_none.results, engine_record):
            assert fingerprint(a) == fingerprint(b) == fingerprint(c)
            assert a.duration == b.duration == c.duration


# ---------------------------------------------------------------------- #
# stepping equivalence under interference
# ---------------------------------------------------------------------- #
WORKLOAD_FAMILIES = {
    "rival": rival_broadcast_workload(rivals=1, stagger=0.3),
    "cross": cross_traffic_workload(intensity=1.0, sources=2, bulk=True),
    "churn": churn_workload(churn_rate=2.0),
    "drift": capacity_drift_workload(interval_frac=0.1, floor=0.5),
    "mixed": mixed_workload(intensity=0.5),
}


@pytest.mark.parametrize("family", sorted(WORKLOAD_FAMILIES))
def test_fixed_and_event_stepping_agree_under_interference(
    bordeaux_topology, family
):
    """Interference must not fork the two stepping policies: byte state is
    anchored and jumps are cut short at every foreign transition, so the
    event mode replays the fixed oracle even in a changing network."""
    workload = WORKLOAD_FAMILIES[family]
    outcomes = {}
    for stepping in ("fixed", "event"):
        config = config_for(
            600, stepping=stepping, rechoke_interval=0.3, optimistic_every=2
        )
        result, stats = run_workload_iteration(
            bordeaux_topology, config, None, None, 99, 0, workload
        )
        outcomes[stepping] = (
            fingerprint(result),
            result.duration,
            result.completion_times,
        )
    assert outcomes["fixed"] == outcomes["event"]


def test_event_mode_jumps_despite_interference(bordeaux_topology):
    """The event mode still skips inert control points in a busy network."""
    results = {}
    for stepping in ("fixed", "event"):
        config = config_for(600, stepping=stepping, control_dt=2e-5)
        result, _ = run_workload_iteration(
            bordeaux_topology, config, None, None, 7, 0,
            cross_traffic_workload(intensity=0.5, sources=1),
        )
        results[stepping] = result
    assert fingerprint(results["fixed"]) == fingerprint(results["event"])
    assert results["event"].control_steps < results["fixed"].control_steps


@pytest.mark.parametrize("seed, events, duration", [(0, 7, 0.02638), (3, 8, 0.0277)])
def test_churn_queued_during_an_advance_lands_at_the_next_point(
    bordeaux_topology, seed, events, duration
):
    """Churn requested while the session waits on its advance is applied at
    the next grid point in both modes.  On this fine grid the event mode
    once jumped past it, and at both seeds it still does if queued churn is
    no reason to visit."""
    outcomes = {}
    for stepping in ("fixed", "event"):
        config = config_for(
            60, stepping=stepping, control_dt=2e-5, rechoke_interval=0.005,
            optimistic_every=2,
        )
        result, stats = run_workload_iteration(
            bordeaux_topology, config, None, None, seed, 0,
            churn_workload(churn_rate=1.0),
        )
        primary = next(s for s in stats if s["actor"] == "primary")
        assert primary["churn_events"] == events
        outcomes[stepping] = (
            fingerprint(result), result.duration, result.completion_times,
        )
    assert outcomes["fixed"] == outcomes["event"]
    assert outcomes["fixed"][1] == pytest.approx(duration)


# ---------------------------------------------------------------------- #
# individual actors
# ---------------------------------------------------------------------- #
class TestActors:
    def test_churn_departures_and_rejoins_recorded(self, bordeaux_topology):
        config = config_for(600, rechoke_interval=0.3)
        result, stats = run_workload_iteration(
            bordeaux_topology, config, None, None, 42, 0, churn_workload(4.0)
        )
        churn_stats = next(s for s in stats if s["kind"] == "churn")
        primary_stats = next(s for s in stats if s["actor"] == "primary")
        assert churn_stats["leaves"] > 0
        assert primary_stats["churn_events"] > 0
        assert primary_stats["finished"]
        # Every present peer still downloads the whole file.
        assert result.fragments.total_fragments() > 0

    def test_poisson_traffic_injects_flows(self, two_site_topology):
        engine = WorkloadEngine(two_site_topology)
        engine.add(
            PoissonTrafficActor(
                "bg",
                np.random.default_rng(3),
                offered_load=50e6,
                mean_size=5e6,
            )
        )
        engine.run(until=10.0)
        stats = engine.stats()[0]
        assert stats["flows_started"] > 10
        assert stats["bytes_delivered"] > 0
        assert engine.now == pytest.approx(10.0)

    def test_bulk_transfer_repeats(self, two_site_topology):
        hosts = two_site_topology.host_names
        engine = WorkloadEngine(two_site_topology)
        engine.add(
            BulkTransferActor(
                "bulk",
                np.random.default_rng(0),
                src=hosts[0],
                dst=hosts[-1],
                size=10e6,
                repeat=True,
            )
        )
        engine.run(until=5.0)
        stats = engine.stats()[0]
        assert stats["flows_started"] > 1
        assert stats["bytes_delivered"] >= (stats["flows_started"] - 1) * 10e6 * 0.99

    def test_capacity_drift_changes_shared_links(self, two_site_topology):
        engine = WorkloadEngine(two_site_topology)
        drift = engine.add(
            CapacityDriftActor(
                "drift",
                np.random.default_rng(5),
                interval_mean=0.5,
                floor=0.5,
                ceiling=0.9,
            )
        )
        nominal = {name: engine.fluid.link_capacity(name) for name in drift.links}
        engine.run(until=5.0)
        assert drift.changes > 0
        drifted = [
            name for name in drift.links
            if engine.fluid.link_capacity(name) != nominal[name]
        ]
        assert drifted
        for name in drifted:
            assert engine.fluid.link_capacity(name) < nominal[name]
        # Host access links are never touched by the default selection.
        for link in two_site_topology.links:
            if two_site_topology.is_host(link.a) or two_site_topology.is_host(link.b):
                assert engine.fluid.link_capacity(link.name) == link.capacity

    def test_rival_broadcast_starts_offset_and_reports_span(self, two_site_topology):
        config = config_for(80)
        engine = WorkloadEngine(two_site_topology)
        primary = engine.add(
            BroadcastActor("primary", config, rng=np.random.default_rng(1))
        )
        rival = engine.add(
            BroadcastActor(
                "rival",
                config,
                root=two_site_topology.host_names[-1],
                rng=np.random.default_rng(2),
                start_time=0.05,
                blocking=False,
            )
        )
        engine.run()
        assert primary.done
        # The rival's completion times are absolute; its duration is a span.
        if rival.done:
            assert rival.result.completion_times[rival.root] == 0.05
            assert rival.result.duration < max(
                rival.result.completion_times.values()
            )

    def test_contention_slows_the_measured_broadcast(self, two_site_topology):
        config = config_for(200)
        solo, _ = run_workload_iteration(
            two_site_topology, config, None, None, 13, 0, NONE
        )
        contended, _ = run_workload_iteration(
            two_site_topology, config, None, None, 13, 0,
            rival_broadcast_workload(rivals=1, stagger=0.0),
        )
        assert contended.duration > solo.duration

    def test_a_finished_rival_leaves_no_pipe_flowing(self, monkeypatch):
        """RIVAL-BROADCAST at its defaults (G-T, 4 hosts per site, 240
        fragments, seed 2012), iteration 1: the rival finishes before the
        measured broadcast."""
        from repro.bittorrent.swarm import BroadcastSession
        from repro.experiments.datasets import dataset
        from repro.network.fluid import FluidNetwork
        from repro.tomography.pipeline import default_swarm_config

        running, started, flowing = [], {}, {}
        start_transfer = FluidNetwork.start_transfer

        def tracked_start(fluid, *args, **kwargs):
            transfer = start_transfer(fluid, *args, **kwargs)
            if running:
                started.setdefault(running[-1], []).append(transfer)
            return transfer

        def track(method):
            def tracked(session, *args):
                running.append(session)
                request = method(session, *args)
                running.pop()
                if session.finished:
                    flowing[session.root] = [
                        t for t in started.get(session, [])
                        if t.transfer_id in session.fluid._active
                    ]
                return request

            return tracked

        monkeypatch.setattr(FluidNetwork, "start_transfer", tracked_start)
        for name in ("start", "resume"):
            monkeypatch.setattr(
                BroadcastSession, name, track(getattr(BroadcastSession, name))
            )
        ds = dataset("G-T", per_site=4)
        run_workload_iteration(
            ds.topology, default_swarm_config(240), ds.hosts, ds.hosts[0],
            2012, 1, rival_broadcast_workload(),
        )
        rival_root = ds.hosts[-1]
        assert list(flowing) == [rival_root, ds.hosts[0]]
        assert flowing[rival_root] == []


# ---------------------------------------------------------------------- #
# engine surface
# ---------------------------------------------------------------------- #
class TestEngine:
    def test_duplicate_actor_labels_rejected(self, two_site_topology):
        engine = WorkloadEngine(two_site_topology)
        engine.add(
            PoissonTrafficActor("bg", np.random.default_rng(0), 1e6, 1e6)
        )
        with pytest.raises(ValueError, match="duplicate"):
            engine.add(
                PoissonTrafficActor("bg", np.random.default_rng(1), 1e6, 1e6)
            )

    def test_background_only_run_needs_horizon(self, two_site_topology):
        engine = WorkloadEngine(two_site_topology)
        engine.add(
            PoissonTrafficActor("bg", np.random.default_rng(0), 1e6, 1e6)
        )
        with pytest.raises(ValueError, match="horizon"):
            engine.run()

    def test_event_budget_stops_a_runaway_workload(self):
        topology = build_multi_site(
            {site: {default_cluster_of(site): 2} for site in ("grenoble", "toulouse")}
        )
        engine = WorkloadEngine(topology)
        engine.add(
            PoissonTrafficActor("bg", np.random.default_rng(0), 1e6, 1e6)
        )
        with pytest.raises(RuntimeError, match=r"event budget \(50\)"):
            engine.run(until=1e9, max_events=50)

    def test_clocks_stay_in_sync(self, two_site_topology):
        config = config_for(80)
        engine = WorkloadEngine(two_site_topology)
        engine.add(BroadcastActor("primary", config, rng=np.random.default_rng(4)))
        engine.run()
        assert engine.fluid.now <= engine.now + 1e-9


# ---------------------------------------------------------------------- #
# declarative specs
# ---------------------------------------------------------------------- #
class TestWorkloadSpec:
    def test_presets_resolve_by_name(self):
        for name in WORKLOAD_PRESETS:
            spec = workload_from_name(name)
            assert isinstance(spec, WorkloadSpec)
        assert workload_from_name(None).name == "none"
        spec = WORKLOAD_PRESETS["mixed"]
        assert workload_from_name(spec) is spec

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            workload_from_name("nope")

    def test_unknown_actor_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown actor kind"):
            ActorSpec(kind="quantum", label="x")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate actor labels"):
            WorkloadSpec(
                name="bad",
                actors=(actor("poisson", "a"), actor("onoff", "a")),
            )

    def test_metadata_shape(self):
        spec = mixed_workload(0.5)
        meta = spec.metadata()
        assert meta["workload"] == spec.name
        assert meta["workload_actors"] == spec.actor_count + 1
        assert meta["interference_intensity"] == 0.5
        assert sum(meta["workload_kinds"].values()) == spec.actor_count

    def test_specs_are_picklable(self):
        import pickle

        for name, spec in WORKLOAD_PRESETS.items():
            assert pickle.loads(pickle.dumps(spec)) == spec


# ---------------------------------------------------------------------- #
# campaign integration
# ---------------------------------------------------------------------- #
class TestCampaignIntegration:
    def test_workload_campaign_records_stats(self, two_site_topology):
        config = config_for(60)
        record = MeasurementCampaign(
            two_site_topology,
            config,
            seed=11,
            workload=cross_traffic_workload(intensity=0.5, sources=1),
        ).run(2)
        assert record.iterations == 2
        assert len(record.workload_stats) == 2
        kinds = {row["kind"] for row in record.workload_stats[0]}
        assert {"broadcast", "poisson"} <= kinds

    def test_cli_run_with_workload(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "wl.json"
        code = main(
            [
                "run", "G-T", "--per-site", "2", "--iterations", "2",
                "--fragments", "60", "--workload", "churn",
                "--json", str(path),
            ]
        )
        assert code == 0, capsys.readouterr().err
        payload = json.loads(path.read_text())
        assert payload["workload"] == "churn-1"
        assert payload["workload_actors"] == 2
        assert payload["interference_intensity"] == 1.0
