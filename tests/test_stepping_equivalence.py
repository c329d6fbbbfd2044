"""Fixed-dt vs event-stepped control loop: exact equivalence suite.

The event-stepped swarm loop (``SwarmConfig.stepping="event"``) must be a
pure scheduling optimisation: on every registered scenario it has to replay
the fixed-dt oracle *bit for bit* — the same fragment-completion event
sequence (every ``(time, downloader, uploader, fragment)`` receipt, in
order), the same per-peer download totals, the same per-host completion
times, and therefore the same pipeline bottleneck matrices.  Any divergence
means a control point was skipped that the oracle acted at (or visited with
different anchored byte state), which is exactly the class of bug the jump
predicates in ``bittorrent/swarm.py`` must never introduce.

The scenarios cover the distinct control regimes: the slot-saturated 2x2
(long inert stretches — the event mode actually jumps), the B-T multi-site
WAN campaign (churny control plane, TCP rate caps), and the oversubscribed
fat-tree from the beyond-paper families.  A fine-``control_dt`` case pins
the high-fidelity regime where the event mode's jumps are largest and its
grid arithmetic is most exposed to float-edge mistakes.
"""

import dataclasses

import numpy as np
import pytest

from repro.bittorrent.swarm import BitTorrentBroadcast, SwarmConfig
from repro.bittorrent.torrent import TorrentMeta
from repro.network.grid5000 import build_bordeaux_site
from repro.scenarios import get_scenario
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config

#: Registered scenarios the suite replays, with laptop-scale overrides.
SCENARIOS = {
    "2x2": {},
    "B-T": {"per_site": 4},
    "FATTREE-4x4": {"racks": 3, "hosts_per_rack": 3},
}


def _dataset(name):
    spec = get_scenario(name)
    return spec.build_dataset(**SCENARIOS[name])


def _run_broadcast(ds, config, seed):
    trace = []
    broadcast = BitTorrentBroadcast(ds.topology, config, hosts=ds.hosts)
    result = broadcast.run(rng=np.random.default_rng(seed), trace=trace)
    return result, trace


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fragment_completion_sequences_identical(name):
    """Both modes produce the identical receipt-event sequence."""
    ds = _dataset(name)
    results = {}
    for stepping in ("fixed", "event"):
        config = default_swarm_config(240, stepping=stepping)
        results[stepping] = _run_broadcast(ds, config, seed=31)
    fixed_result, fixed_trace = results["fixed"]
    event_result, event_trace = results["event"]

    assert event_trace == fixed_trace
    assert event_result.completion_times == fixed_result.completion_times
    assert event_result.duration == fixed_result.duration
    assert np.array_equal(
        event_result.fragments.counts, fixed_result.fragments.counts
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_per_peer_download_totals_identical(name):
    """Per-peer totals (row sums of the directed matrix) match exactly."""
    ds = _dataset(name)
    totals = {}
    for stepping in ("fixed", "event"):
        config = default_swarm_config(180, stepping=stepping)
        result, _ = _run_broadcast(ds, config, seed=77)
        totals[stepping] = {
            host: sum(result.fragments.received_by(host).values())
            for host in result.hosts
        }
    assert totals["event"] == totals["fixed"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pipeline_bottleneck_matrices_identical(name):
    """The full measure→aggregate pipeline yields identical metric matrices
    and identical recovered partitions under both stepping modes."""
    ds = _dataset(name)
    outcomes = {}
    for stepping in ("fixed", "event"):
        pipeline = TomographyPipeline(
            ds.topology,
            hosts=ds.hosts,
            ground_truth=ds.ground_truth,
            config=default_swarm_config(200, stepping=stepping),
            seed=11,
        )
        outcomes[stepping] = pipeline.run(4, track_convergence=False)
    fixed, event = outcomes["fixed"], outcomes["event"]
    assert np.array_equal(event.metric.weights, fixed.metric.weights)
    assert event.metric.labels == fixed.metric.labels
    assert event.partition == fixed.partition or (
        sorted(map(sorted, (map(str, c) for c in event.partition.clusters)))
        == sorted(map(sorted, (map(str, c) for c in fixed.partition.clusters)))
    )
    assert event.modularity == fixed.modularity


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_mode_executes_no_more_control_steps(name):
    ds = _dataset(name)
    steps = {}
    for stepping in ("fixed", "event"):
        config = default_swarm_config(240, stepping=stepping)
        result, _ = _run_broadcast(ds, config, seed=31)
        assert result.stepping == stepping
        steps[stepping] = result.control_steps
    assert steps["event"] <= steps["fixed"]


def test_high_fidelity_jumps_stay_exact_and_cut_steps():
    """At fine control_dt (the regime the event core exists for) the jumps
    are large and must still replay the oracle exactly."""
    ds = _dataset("2x2")
    base = default_swarm_config(160)
    fine_dt = base.control_dt / 128
    results = {}
    for stepping in ("fixed", "event"):
        config = dataclasses.replace(base, control_dt=fine_dt, stepping=stepping)
        results[stepping] = _run_broadcast(ds, config, seed=5)
    fixed_result, fixed_trace = results["fixed"]
    event_result, event_trace = results["event"]
    assert event_trace == fixed_trace
    assert event_result.completion_times == fixed_result.completion_times
    assert np.array_equal(
        event_result.fragments.counts, fixed_result.fragments.counts
    )
    # The inert grid points vastly outnumber the true control events here:
    # the whole point of the event-driven core.
    assert event_result.control_steps * 4 <= fixed_result.control_steps


def test_event_mode_visits_only_points_whose_phase_can_act():
    """The event mode visits the point after a conversion only when its
    control phase can act (queued churn, a pipe out of budget, a due
    rechoke, or a changed interest matrix); otherwise it jumps.  Visiting
    every point after an active one took 521 visits here and 1,307 on the
    blackout campaign."""
    topology = build_bordeaux_site(bordeplage=4, bordereau=3, borderline=2)
    meta = TorrentMeta(name="wl", fragment_size=16384, num_fragments=60)
    results = {}
    for stepping in ("fixed", "event"):
        config = SwarmConfig(
            torrent=meta, control_dt=2e-5, rechoke_interval=0.005,
            optimistic_every=2, stepping=stepping,
        )
        trace = []
        result = BitTorrentBroadcast(topology, config).run(
            rng=np.random.default_rng(5), trace=trace
        )
        results[stepping] = (result, trace)
    (fixed, fixed_trace), (event, event_trace) = results["fixed"], results["event"]
    assert event_trace == fixed_trace
    assert np.array_equal(event.fragments.counts, fixed.fragments.counts)
    assert (fixed.control_steps, event.control_steps) == (999, 328)

    summary = get_scenario("LINK-BLACKOUT").run(
        iterations=3, num_fragments=60, seed=2012, stepping="event"
    )
    assert summary["result"].record.total_control_steps() == 883


def test_max_sim_time_guard_fires_identically():
    """The did-not-complete guard must trip in both modes on the same config."""
    ds = _dataset("2x2")
    for stepping in ("fixed", "event"):
        config = SwarmConfig(
            torrent=TorrentMeta.scaled(4000),
            control_dt=0.01,
            rechoke_interval=0.05,
            max_sim_time=0.05,
            stepping=stepping,
        )
        broadcast = BitTorrentBroadcast(ds.topology, config, hosts=ds.hosts)
        with pytest.raises(RuntimeError, match="did not complete"):
            broadcast.run(rng=np.random.default_rng(12))
