"""Tests for the classical saturation-tomography baselines."""

import pytest

from repro.clustering.partition import Partition
from repro.tomography.baselines import (
    PairwiseSaturationTomography,
    TripletSaturationTomography,
)


class TestPairwiseBaseline:
    def test_probe_count_is_quadratic(self, dumbbell_topology):
        baseline = PairwiseSaturationTomography(dumbbell_topology, probe_size=1e6)
        result = baseline.run()
        n = len(dumbbell_topology.host_names)
        assert result.probes == n * (n - 1) // 2

    def test_measurement_time_is_positive_and_grows_with_probe_size(self, dumbbell_topology):
        small = PairwiseSaturationTomography(dumbbell_topology, probe_size=1e6).run()
        large = PairwiseSaturationTomography(dumbbell_topology, probe_size=4e6).run()
        assert small.measurement_time > 0
        assert large.measurement_time > small.measurement_time

    def test_bandwidth_graph_covers_all_pairs(self, dumbbell_topology):
        result = PairwiseSaturationTomography(dumbbell_topology, probe_size=1e6).run()
        n = len(dumbbell_topology.host_names)
        assert result.bandwidth_graph.number_of_edges() == n * (n - 1) // 2

    def test_under_load_measurement_separates_dumbbell(self, dumbbell_topology):
        baseline = PairwiseSaturationTomography(
            dumbbell_topology, probe_size=2e6, concurrent_load=2, seed=3
        )
        result = baseline.run()
        truth = Partition(
            [
                {h for h in dumbbell_topology.host_names if h.startswith("left")},
                {h for h in dumbbell_topology.host_names if h.startswith("right")},
            ]
        )
        # Under-load probing should place the two halves in different clusters.
        assert result.partition.num_clusters >= 2
        left = [h for h in dumbbell_topology.host_names if h.startswith("left")]
        assert result.partition.same_cluster(left[0], left[1])

    def test_invalid_parameters(self, dumbbell_topology):
        with pytest.raises(ValueError):
            PairwiseSaturationTomography(dumbbell_topology, probe_size=0.0)
        with pytest.raises(ValueError):
            PairwiseSaturationTomography(dumbbell_topology, concurrent_load=-1)
        with pytest.raises(ValueError):
            PairwiseSaturationTomography(
                dumbbell_topology, hosts=[dumbbell_topology.host_names[0]]
            )


class TestTripletBaseline:
    def test_probe_count_is_cubic(self, dumbbell_topology):
        hosts = dumbbell_topology.host_names[:4]
        baseline = TripletSaturationTomography(dumbbell_topology, hosts=hosts, probe_size=1e6)
        result = baseline.run()
        assert result.probes == 2 * 4  # 2 probes per C(4,3)=4 triplets

    def test_max_triplets_cap(self, dumbbell_topology):
        baseline = TripletSaturationTomography(
            dumbbell_topology, probe_size=1e6, max_triplets=3
        )
        result = baseline.run()
        assert result.probes == 6

    def test_detects_interference_on_shared_bottleneck(self, dumbbell_topology):
        # Use hosts whose a->b and a->c connections share the bottleneck link.
        hosts = ["left-0", "right-0", "right-1"]
        baseline = TripletSaturationTomography(
            dumbbell_topology, hosts=hosts, probe_size=2e6
        )
        result = baseline.run()
        assert result.interference, "shared bottleneck should be detected"

    def test_no_interference_inside_a_cluster(self, dumbbell_topology):
        hosts = ["left-0", "left-1", "left-2"]
        baseline = TripletSaturationTomography(
            dumbbell_topology, hosts=hosts, probe_size=2e6
        )
        result = baseline.run()
        # Intra-cluster transfers only share the (never saturated) switch, but
        # flows from the same source do share that source's access link, so
        # interference within the triplet is expected; the important part is
        # that the under-load bandwidths stay symmetric and the clustering does
        # not split the clique apart.
        assert result.partition.num_clusters == 1

    def test_measurement_time_exceeds_pairwise_for_same_hosts(self, dumbbell_topology):
        hosts = dumbbell_topology.host_names[:5]
        pairwise = PairwiseSaturationTomography(
            dumbbell_topology, hosts=hosts, probe_size=1e6
        ).run()
        triplet = TripletSaturationTomography(
            dumbbell_topology, hosts=hosts, probe_size=1e6
        ).run()
        assert triplet.measurement_time > pairwise.measurement_time
        assert triplet.probes > pairwise.probes

    def test_invalid_threshold(self, dumbbell_topology):
        with pytest.raises(ValueError):
            TripletSaturationTomography(dumbbell_topology, interference_threshold=0.0)
        with pytest.raises(ValueError):
            TripletSaturationTomography(dumbbell_topology, interference_threshold=1.5)
