"""Unit tests for the fragment metric (Eq. 1-2) and its graph conversion."""

import numpy as np
import pytest

from repro.bittorrent.instrumentation import FragmentMatrix
from repro.tomography.metric import (
    EdgeMetric,
    aggregate_mean,
    edge_weight_history,
    local_remote_split,
    metric_graph,
)


def make_matrices():
    m1 = FragmentMatrix(["a", "b", "c"])
    m1.record("a", "b", 10)
    m1.record("b", "a", 2)
    m1.record("c", "a", 4)
    m2 = FragmentMatrix(["a", "b", "c"])
    m2.record("a", "b", 6)
    m2.record("c", "b", 8)
    return [m1, m2]


class TestEdgeMetric:
    def test_aggregate_mean_implements_eq2(self):
        metric = aggregate_mean(make_matrices())
        assert metric.iterations == 2
        assert metric.weight("a", "b") == pytest.approx((10 + 2 + 6) / 2.0)
        assert metric.weight("a", "c") == pytest.approx(4 / 2.0)
        assert metric.weight("b", "c") == pytest.approx(8 / 2.0)

    def test_single_run_metric_is_eq1(self):
        metric = aggregate_mean(make_matrices()[:1])
        assert metric.weight("a", "b") == pytest.approx(12.0)
        assert metric.iterations == 1

    def test_weight_is_symmetric(self):
        metric = aggregate_mean(make_matrices())
        assert metric.weight("a", "b") == metric.weight("b", "a")

    def test_unknown_host_raises(self):
        metric = aggregate_mean(make_matrices())
        with pytest.raises(KeyError):
            metric.weight("a", "zzz")

    def test_edges_of_excludes_self(self):
        metric = aggregate_mean(make_matrices())
        edges = metric.edges_of("a")
        assert set(edges) == {"b", "c"}

    def test_counts_and_totals(self):
        metric = aggregate_mean(make_matrices())
        assert metric_graph(metric).number_of_edges() == 3
        assert metric.total_weight() == pytest.approx(
            metric.weight("a", "b") + metric.weight("a", "c") + metric.weight("b", "c")
        )

    def test_mismatched_labels_rejected(self):
        other = FragmentMatrix(["a", "b", "x"])
        with pytest.raises(ValueError):
            aggregate_mean([make_matrices()[0], other])
        with pytest.raises(ValueError):
            aggregate_mean([])

    def test_validation_of_direct_construction(self):
        with pytest.raises(ValueError):
            EdgeMetric(labels=("a", "b"), weights=np.zeros((3, 3)), iterations=1)
        with pytest.raises(ValueError):
            EdgeMetric(
                labels=("a", "b"),
                weights=np.array([[0.0, 1.0], [2.0, 0.0]]),
                iterations=1,
            )
        with pytest.raises(ValueError):
            EdgeMetric(labels=("a", "b"), weights=np.zeros((2, 2)), iterations=0)
        with pytest.raises(ValueError):
            EdgeMetric(
                labels=("a", "b"),
                weights=np.array([[0.0, -1.0], [-1.0, 0.0]]),
                iterations=1,
            )


class TestMetricGraph:
    def test_graph_has_all_hosts_and_positive_edges(self):
        metric = aggregate_mean(make_matrices())
        graph = metric_graph(metric)
        assert set(graph.nodes()) == {"a", "b", "c"}
        assert graph.edge_weight("a", "b") == pytest.approx(metric.weight("a", "b"))
        assert graph.number_of_edges() == 3

    def test_zero_edges_dropped_by_default(self):
        matrix = FragmentMatrix(["a", "b", "c"])
        matrix.record("a", "b", 1)
        graph = metric_graph(aggregate_mean([matrix]))
        assert not graph.has_edge("a", "c")
        dense = metric_graph(aggregate_mean([matrix]), drop_zero=False)
        assert dense.has_edge("a", "c")

    def test_edge_weight_history(self):
        matrices = make_matrices()
        history = edge_weight_history(matrices, "a", "b")
        assert history == [pytest.approx(12.0), pytest.approx(6.0)]
        with pytest.raises(ValueError):
            edge_weight_history([], "a", "b")

    def test_local_remote_split(self):
        metric = aggregate_mean(make_matrices())
        local, remote = local_remote_split(metric, "a", ["b"])
        assert set(local) == {"b"}
        assert set(remote) == {"c"}
        with pytest.raises(KeyError):
            local_remote_split(metric, "zzz", ["b"])
