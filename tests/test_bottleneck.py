"""Tests for bottleneck-link identification from a recovered clustering."""

import pytest

from repro.clustering.partition import Partition
from repro.experiments.datasets import dataset_b
from repro.tomography.bottleneck import (
    BottleneckReport,
    describe_bottlenecks,
    find_bottleneck_links,
)
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config


def dumbbell_partition(topology):
    return Partition(
        [
            {h for h in topology.host_names if h.startswith("left")},
            {h for h in topology.host_names if h.startswith("right")},
        ]
    )


class TestFindBottleneckLinks:
    def test_dumbbell_bottleneck_is_identified(self, dumbbell_topology):
        reports = find_bottleneck_links(dumbbell_topology, dumbbell_partition(dumbbell_topology))
        assert len(reports) == 1
        report = reports[0]
        assert report.shared_links[0] == "bottleneck"
        # Every considered pair crosses the bottleneck link.
        assert report.link_pair_counts["bottleneck"] == report.pair_count == 9

    def test_intra_cluster_partition_has_no_shared_wan_link(self, dumbbell_topology):
        partition = Partition([{"left-0", "left-1"}, {"left-2"}])
        reports = find_bottleneck_links(dumbbell_topology, partition)
        # Routes stay inside the left switch; the only shared links are the
        # access links, never the inter-switch bottleneck.
        assert all("bottleneck" not in r.shared_links for r in reports)

    def test_pair_sampling_cap(self, dumbbell_topology):
        reports = find_bottleneck_links(
            dumbbell_topology,
            dumbbell_partition(dumbbell_topology),
            max_pairs_per_cluster_pair=4,
        )
        assert reports[0].pair_count == 4
        with pytest.raises(ValueError):
            find_bottleneck_links(
                dumbbell_topology,
                dumbbell_partition(dumbbell_topology),
                max_pairs_per_cluster_pair=0,
            )

    def test_non_host_members_rejected(self, dumbbell_topology):
        partition = Partition([{"left-0", "sw-left"}, {"right-0"}])
        with pytest.raises(ValueError):
            find_bottleneck_links(dumbbell_topology, partition)

    def test_describe_mentions_shared_links(self, dumbbell_topology):
        reports = find_bottleneck_links(
            dumbbell_topology, dumbbell_partition(dumbbell_topology)
        )
        text = describe_bottlenecks(dumbbell_topology, reports)
        assert "bottleneck" in text
        assert "Gb/s" in text

    def test_three_cluster_reports_cover_all_pairs(self, dumbbell_topology):
        partition = Partition(
            [
                {"left-0", "left-1"},
                {"left-2"},
                {h for h in dumbbell_topology.host_names if h.startswith("right")},
            ]
        )
        reports = find_bottleneck_links(dumbbell_topology, partition)
        assert len(reports) == 3
        assert {(r.cluster_a, r.cluster_b) for r in reports} == {(0, 1), (0, 2), (1, 2)}


class TestEndToEndDiagnosis:
    def test_recovered_bordeaux_clusters_point_at_the_1gbe_link(self):
        """The paper's conclusion: the method identifies the bottleneck link."""
        ds = dataset_b(bordeplage=6, bordereau=4, borderline=2)
        pipeline = TomographyPipeline(
            ds.topology,
            hosts=ds.hosts,
            ground_truth=ds.ground_truth,
            config=default_swarm_config(400),
            seed=4,
        )
        result = pipeline.run(iterations=6, track_convergence=False)
        assert result.num_clusters == 2
        reports = find_bottleneck_links(ds.topology, result.partition)
        primary = reports[0].shared_links[0]
        assert primary == "bordeaux.bordeplage.bottleneck"
