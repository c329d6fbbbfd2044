"""Tests for the end-to-end tomography pipeline."""

import pytest

from repro.clustering.infomap import infomap
from repro.clustering.nmi import overlapping_nmi
from repro.clustering.partition import Partition
from repro.tomography import pipeline as pipeline_module
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config


def dumbbell_ground_truth(topology):
    left = {h for h in topology.host_names if h.startswith("left")}
    right = {h for h in topology.host_names if h.startswith("right")}
    return Partition([left, right])


class TestPipeline:
    def test_recovers_dumbbell_clusters(self, dumbbell_topology):
        pipeline = TomographyPipeline(
            dumbbell_topology,
            ground_truth=dumbbell_ground_truth(dumbbell_topology),
            config=default_swarm_config(300),
            seed=2,
        )
        result = pipeline.run(iterations=5)
        assert result.num_clusters == 2
        assert result.nmi == pytest.approx(1.0)
        assert result.classical_nmi == pytest.approx(1.0)
        assert result.modularity > 0.2
        assert len(result.nmi_per_iteration) == 5
        assert result.nmi_per_iteration[-1] == pytest.approx(1.0)
        assert result.measurement_time > 0

    def test_without_ground_truth_scores_are_none(self, dumbbell_topology):
        pipeline = TomographyPipeline(
            dumbbell_topology, config=default_swarm_config(200), seed=3
        )
        result = pipeline.run(iterations=2)
        assert result.nmi is None
        assert result.classical_nmi is None
        assert result.nmi_per_iteration == []
        assert result.num_clusters >= 1

    def test_ground_truth_must_cover_hosts(self, dumbbell_topology):
        incomplete = Partition([{"left-0", "left-1"}])
        with pytest.raises(ValueError):
            TomographyPipeline(
                dumbbell_topology,
                ground_truth=incomplete,
                config=default_swarm_config(100),
            )

    def test_ground_truth_may_cover_a_superset(self, dumbbell_topology):
        truth = dumbbell_ground_truth(dumbbell_topology)
        extended = Partition(list(truth.clusters) + [{"extra-node"}])
        pipeline = TomographyPipeline(
            dumbbell_topology,
            ground_truth=extended,
            config=default_swarm_config(150),
            seed=4,
        )
        result = pipeline.run(iterations=2, track_convergence=False)
        assert result.nmi is not None

    def test_host_subset(self, dumbbell_topology):
        hosts = ["left-0", "left-1", "right-0", "right-1"]
        pipeline = TomographyPipeline(
            dumbbell_topology,
            hosts=hosts,
            ground_truth=dumbbell_ground_truth(dumbbell_topology),
            config=default_swarm_config(150),
            seed=5,
        )
        result = pipeline.run(iterations=2, track_convergence=False)
        assert set(result.partition.nodes()) == set(hosts)

    def test_custom_clusterer_is_used(self, dumbbell_topology):
        pipeline = TomographyPipeline(
            dumbbell_topology,
            ground_truth=dumbbell_ground_truth(dumbbell_topology),
            config=default_swarm_config(300),
            seed=6,
            clusterer=lambda graph: infomap(graph),
        )
        result = pipeline.run(iterations=4, track_convergence=False)
        assert result.num_clusters >= 1
        assert result.nmi is not None

    def test_analyze_reuses_existing_record(self, dumbbell_topology):
        pipeline = TomographyPipeline(
            dumbbell_topology,
            ground_truth=dumbbell_ground_truth(dumbbell_topology),
            config=default_swarm_config(200),
            seed=7,
        )
        record = pipeline.campaign.run(3)
        result = pipeline.analyze(record, track_convergence=False)
        assert result.record is record
        assert result.metric.iterations == 3

    def test_a_tracked_analysis_scores_each_prefix_once(
        self, dumbbell_topology, monkeypatch
    ):
        calls = []

        def counting(partition, truth):
            calls.append(partition)
            return overlapping_nmi(partition, truth)

        monkeypatch.setattr(pipeline_module, "overlapping_nmi", counting)
        pipeline = TomographyPipeline(
            dumbbell_topology,
            ground_truth=dumbbell_ground_truth(dumbbell_topology),
            config=default_swarm_config(200),
            seed=7,
        )
        record = pipeline.campaign.run(3)
        tracked = pipeline.analyze(record)
        assert len(calls) == 3
        assert tracked.nmi == tracked.nmi_per_iteration[-1]
        calls.clear()
        untracked = pipeline.analyze(record, track_convergence=False)
        assert len(calls) == 1
        assert untracked.nmi == tracked.nmi
        assert untracked.classical_nmi == tracked.classical_nmi

    def test_evaluate_requires_ground_truth(self, dumbbell_topology):
        pipeline = TomographyPipeline(
            dumbbell_topology, config=default_swarm_config(100), seed=8
        )
        with pytest.raises(ValueError):
            pipeline.evaluate(Partition.whole(dumbbell_topology.host_names))

    def test_reproducibility(self, dumbbell_topology):
        def run_once():
            pipeline = TomographyPipeline(
                dumbbell_topology,
                ground_truth=dumbbell_ground_truth(dumbbell_topology),
                config=default_swarm_config(200),
                seed=11,
            )
            return pipeline.run(iterations=3, track_convergence=False)

        a, b = run_once(), run_once()
        assert a.partition == b.partition
        assert a.nmi == pytest.approx(b.nmi)
        assert a.modularity == pytest.approx(b.modularity)
