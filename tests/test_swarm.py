"""Tests for the synchronized BitTorrent broadcast simulation."""

import dataclasses

import numpy as np
import pytest

from repro.bittorrent.swarm import BitTorrentBroadcast, BroadcastSession, SwarmConfig
from repro.bittorrent.torrent import TorrentMeta
from repro.network.grid5000 import build_flat_site
from repro.observability.export import load_records, summarize
from repro.observability.tracer import TRACER
from repro.tomography.pipeline import default_swarm_config


class TestSwarmConfig:
    def test_validation(self):
        torrent = TorrentMeta.scaled(10)
        with pytest.raises(ValueError):
            SwarmConfig(torrent=torrent, control_dt=0.0)
        with pytest.raises(ValueError):
            SwarmConfig(torrent=torrent, control_dt=1.0, rechoke_interval=0.5)
        with pytest.raises(ValueError):
            SwarmConfig(torrent=torrent, max_sim_time=0.0)

    def test_default_swarm_config_scales_time_step(self):
        small = default_swarm_config(100)
        large = default_swarm_config(1000)
        assert large.control_dt > small.control_dt
        assert large.rechoke_interval > large.control_dt


class TestBroadcastValidation:
    def test_requires_at_least_two_hosts(self, dumbbell_topology, tiny_swarm_config):
        with pytest.raises(ValueError):
            BitTorrentBroadcast(dumbbell_topology, tiny_swarm_config, hosts=["left-0"])

    def test_rejects_unknown_hosts(self, dumbbell_topology, tiny_swarm_config):
        with pytest.raises(ValueError):
            BitTorrentBroadcast(
                dumbbell_topology, tiny_swarm_config, hosts=["left-0", "ghost"]
            )

    def test_rejects_duplicate_hosts(self, dumbbell_topology, tiny_swarm_config):
        with pytest.raises(ValueError):
            BitTorrentBroadcast(
                dumbbell_topology, tiny_swarm_config, hosts=["left-0", "left-0"]
            )

    def test_rejects_root_outside_swarm(self, dumbbell_topology, tiny_swarm_config):
        broadcast = BitTorrentBroadcast(
            dumbbell_topology, tiny_swarm_config, hosts=["left-0", "left-1"]
        )
        with pytest.raises(ValueError):
            broadcast.run(root="right-0", rng=np.random.default_rng(0))


class TestBroadcastExecution:
    def test_every_peer_downloads_the_whole_file(self, dumbbell_topology, tiny_swarm_config):
        broadcast = BitTorrentBroadcast(dumbbell_topology, tiny_swarm_config)
        result = broadcast.run(rng=np.random.default_rng(1))
        fragments = tiny_swarm_config.torrent.num_fragments
        hosts = dumbbell_topology.host_names
        # Every non-root peer received exactly `fragments` fragments in total.
        for host in hosts:
            if host == result.root:
                continue
            received = sum(result.fragments.received_by(host).values())
            assert received == pytest.approx(fragments)
        # The root received nothing (it started as the seed).
        assert sum(result.fragments.received_by(result.root).values()) == 0

    def test_total_fragment_conservation(self, dumbbell_topology, tiny_swarm_config):
        broadcast = BitTorrentBroadcast(dumbbell_topology, tiny_swarm_config)
        result = broadcast.run(rng=np.random.default_rng(2))
        expected = tiny_swarm_config.torrent.num_fragments * (
            len(dumbbell_topology.host_names) - 1
        )
        assert result.fragments.total_fragments() == pytest.approx(expected)

    def test_completion_times_recorded_and_positive(self, dumbbell_topology, tiny_swarm_config):
        broadcast = BitTorrentBroadcast(dumbbell_topology, tiny_swarm_config)
        result = broadcast.run(rng=np.random.default_rng(3))
        assert result.duration > 0
        for host, time in result.completion_times.items():
            if host == result.root:
                assert time == 0.0
            else:
                assert 0 < time <= result.duration + 1e-9

    def test_explicit_root_is_used(self, dumbbell_topology, tiny_swarm_config):
        broadcast = BitTorrentBroadcast(dumbbell_topology, tiny_swarm_config)
        result = broadcast.run(root="right-2", rng=np.random.default_rng(4))
        assert result.root == "right-2"

    def test_reproducible_given_same_seed(self, dumbbell_topology, tiny_swarm_config):
        broadcast = BitTorrentBroadcast(dumbbell_topology, tiny_swarm_config)
        a = broadcast.run(rng=np.random.default_rng(5))
        b = broadcast.run(rng=np.random.default_rng(5))
        assert np.array_equal(a.fragments.counts, b.fragments.counts)
        assert a.duration == pytest.approx(b.duration)

    def test_different_seeds_give_different_measurements(
        self, dumbbell_topology, tiny_swarm_config
    ):
        broadcast = BitTorrentBroadcast(dumbbell_topology, tiny_swarm_config)
        a = broadcast.run(rng=np.random.default_rng(6))
        b = broadcast.run(rng=np.random.default_rng(7))
        assert not np.array_equal(a.fragments.counts, b.fragments.counts)

    def test_intra_cluster_traffic_dominates_across_bottleneck(self, dumbbell_topology):
        """The core phenomenon: far more fragments flow inside clusters than across."""
        config = default_swarm_config(400)
        broadcast = BitTorrentBroadcast(dumbbell_topology, config)
        rng = np.random.default_rng(8)
        sym_total = None
        for i in range(4):
            result = broadcast.run(rng=rng)
            sym = result.fragments.symmetric_weights()
            sym_total = sym if sym_total is None else sym_total + sym
        labels = result.fragments.labels
        local = cross = 0.0
        for i, u in enumerate(labels):
            for j in range(i + 1, len(labels)):
                v = labels[j]
                same = u.split("-")[0] == v.split("-")[0]
                if same:
                    local += sym_total[i, j]
                else:
                    cross += sym_total[i, j]
        # Per-edge averages: intra-cluster edges should be much heavier.
        local_edges = 2 * 3  # 2 clusters x C(3,2)
        cross_edges = 9
        assert (local / local_edges) > 2.0 * (cross / cross_edges)

    def test_broadcast_duration_grows_with_file_size(self, dumbbell_topology):
        durations = []
        for fragments in (100, 400):
            config = default_swarm_config(fragments)
            broadcast = BitTorrentBroadcast(dumbbell_topology, config)
            result = broadcast.run(rng=np.random.default_rng(9))
            durations.append(result.duration)
        assert durations[1] > 1.5 * durations[0]

    def test_broadcast_roughly_insensitive_to_node_count(self):
        """O(M) behaviour: doubling the swarm size does not double the time."""
        durations = {}
        for count in (4, 8):
            topo = build_flat_site("grenoble", count)
            config = default_swarm_config(250)
            broadcast = BitTorrentBroadcast(topo, config)
            result = broadcast.run(rng=np.random.default_rng(10))
            durations[count] = result.duration
        assert durations[8] < 2.0 * durations[4]

    def test_distinct_edges_reported(self, dumbbell_topology, tiny_swarm_config):
        broadcast = BitTorrentBroadcast(dumbbell_topology, tiny_swarm_config)
        result = broadcast.run(rng=np.random.default_rng(11))
        n = len(dumbbell_topology.host_names)
        assert 0 < result.distinct_edges <= n * (n - 1) // 2

    def test_max_sim_time_guard(self, dumbbell_topology):
        config = SwarmConfig(
            torrent=TorrentMeta.scaled(4000),
            control_dt=0.01,
            rechoke_interval=0.05,
            max_sim_time=0.05,
        )
        broadcast = BitTorrentBroadcast(dumbbell_topology, config)
        with pytest.raises(RuntimeError):
            broadcast.run(rng=np.random.default_rng(12))

    def test_peer_set_limit_reduces_measured_edges(self):
        """With a tiny peer set, a single broadcast cannot cover all pairs."""
        topo = build_flat_site("grenoble", 12)
        config = default_swarm_config(200, max_peers=3)
        broadcast = BitTorrentBroadcast(topo, config)
        result = broadcast.run(rng=np.random.default_rng(13))
        n = len(topo.host_names)
        assert result.distinct_edges < n * (n - 1) // 2


@pytest.mark.parametrize("stepping", ["fixed", "event"])
def test_a_full_trace_holds_one_span_per_choking_round(tmp_path, stepping):
    """At full detail each choking round records one ``swarm.rechoke``
    span: rounds 0 to R - 1 in order, at their control points, each with
    the number of peers that had candidates."""
    config = default_swarm_config(300, stepping=stepping)
    config = dataclasses.replace(config, rechoke_interval=4 * config.control_dt)
    broadcast = BitTorrentBroadcast(build_flat_site("grenoble", 12), config)
    session = BroadcastSession(broadcast, rng=np.random.default_rng(14))
    path = tmp_path / "rechoke.jsonl"
    TRACER.configure(str(path), detail="full")
    try:
        session.run_to_completion()
    finally:
        TRACER.close()
    spans = [record for record in load_records(str(path))
             if record.get("name") == "swarm.rechoke"]
    assert session.round_index >= 5
    assert [span["args"]["round"] for span in spans] == list(range(session.round_index))
    times = [span["args"]["sim_time"] for span in spans]
    assert times[0] == 0.0
    assert times == sorted(times) and len(set(times)) == len(times)
    assert all(0 <= span["args"]["peers"] <= 12 for span in spans)
    assert spans[0]["args"]["peers"] == 1  # only the root holds anything
    assert all(span["type"] == "span" and span["wall_dur"] >= 0 for span in spans)
    summary = summarize(load_records(str(path)))["swarm.rechoke"]
    assert summary["count"] == session.round_index and summary["wall_s"] > 0
