"""Integration and cross-module property tests.

These tests exercise chains of modules together (measurement → metric →
clustering → evaluation → application) and check conservation laws that must
hold regardless of protocol randomness.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.applications.collectives import cluster_aware_broadcast, flat_broadcast
from repro.bittorrent.swarm import BitTorrentBroadcast
from repro.clustering.louvain import louvain
from repro.clustering.modularity import modularity
from repro.clustering.nmi import overlapping_nmi
from repro.experiments.datasets import (
    dataset_gt,
    dataset_nested,
    nested_coarse_ground_truth,
)
from repro.network.grid5000 import build_flat_site
from repro.tomography.measurement import MeasurementCampaign
from repro.tomography.metric import aggregate_mean, metric_graph
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config


class TestFragmentConservation:
    """Invariants linking the swarm, the counters and the metric."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_every_host_receives_exactly_the_file(self, seed):
        topology = build_flat_site("lyon", 6)
        config = default_swarm_config(80)
        broadcast = BitTorrentBroadcast(topology, config)
        result = broadcast.run(rng=np.random.default_rng(seed))
        for host in topology.host_names:
            received = sum(result.fragments.received_by(host).values())
            expected = 0 if host == result.root else config.torrent.num_fragments
            assert received == pytest.approx(expected)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_metric_total_matches_fragment_total(self, seed):
        topology = build_flat_site("lyon", 5)
        config = default_swarm_config(60)
        broadcast = BitTorrentBroadcast(topology, config)
        result = broadcast.run(rng=np.random.default_rng(seed))
        metric = aggregate_mean([result.fragments])
        # Summing w(e) over all edges counts every received fragment once.
        assert metric.total_weight() == pytest.approx(result.fragments.total_fragments())


class TestEndToEnd:
    def test_two_site_pipeline_recovers_sites_and_speeds_up_broadcast(self):
        ds = dataset_gt(per_site=6)
        pipeline = TomographyPipeline(
            ds.topology,
            hosts=ds.hosts,
            ground_truth=ds.ground_truth,
            config=default_swarm_config(400),
            seed=3,
        )
        result = pipeline.run(iterations=5, track_convergence=False)
        assert result.num_clusters == 2
        assert result.nmi == pytest.approx(1.0)

        # The recovered clusters are immediately useful for scheduling.
        flat = flat_broadcast(ds.topology, ds.hosts, ds.hosts[0], 30e6)
        aware = cluster_aware_broadcast(
            ds.topology, ds.hosts, ds.hosts[0], 30e6, result.partition
        )
        assert aware.completion_time < flat.completion_time

    def test_nested_dataset_exhibits_the_bt_failure_mode(self):
        ds = dataset_nested(alpha=4, beta=4, gamma=8)
        campaign = MeasurementCampaign(
            ds.topology,
            default_swarm_config(400),
            hosts=ds.hosts,
            seed=5,
            rotate_root=True,
        )
        record = campaign.run(6)
        graph = metric_graph(record.aggregate())
        single = louvain(graph).partition
        coarse = nested_coarse_ground_truth(ds)
        # The coarse split is found; the fine three-way truth cannot be.
        assert overlapping_nmi(single, coarse) >= 0.9
        assert overlapping_nmi(single, ds.ground_truth) < 1.0

    def test_modularity_of_recovered_partition_is_positive(self):
        ds = dataset_gt(per_site=5)
        pipeline = TomographyPipeline(
            ds.topology,
            hosts=ds.hosts,
            config=default_swarm_config(300),
            seed=9,
        )
        result = pipeline.run(iterations=4, track_convergence=False)
        assert result.modularity == pytest.approx(
            modularity(result.graph, result.partition), abs=1e-9
        )
        assert result.modularity > 0

    def test_more_iterations_never_lose_hosts_or_edges(self):
        ds = dataset_gt(per_site=4)
        campaign = MeasurementCampaign(
            ds.topology, default_swarm_config(200), hosts=ds.hosts, seed=11
        )
        record = campaign.run(5)
        edge_counts = [
            metric_graph(m).number_of_edges() for m in record.cumulative_aggregates()
        ]
        # Aggregating more iterations can only add observed edges.
        assert edge_counts == sorted(edge_counts)
        assert all(m.labels == tuple(ds.hosts) for m in record.cumulative_aggregates())
