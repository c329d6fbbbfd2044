"""Unit and property tests for weighted Newman-Girvan modularity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.modularity import modularity, modularity_matrix_form
from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph


class TestModularity:
    def test_two_cliques_score_high_when_split_correctly(self, two_community_graph):
        good = Partition([{f"l{i}" for i in range(4)}, {f"r{i}" for i in range(4)}])
        bad = Partition([
            {"l0", "l1", "r0", "r1"},
            {"l2", "l3", "r2", "r3"},
        ])
        assert modularity(two_community_graph, good) > modularity(two_community_graph, bad)
        assert modularity(two_community_graph, good) > 0.3

    def test_single_cluster_has_zero_modularity(self, two_community_graph):
        whole = Partition.whole(two_community_graph.nodes())
        assert modularity(two_community_graph, whole) == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_graph_rejected(self):
        graph = WeightedGraph()
        graph.add_node("a")
        graph.add_node("b")
        with pytest.raises(ValueError):
            modularity(graph, Partition.whole(["a", "b"]))

    def test_node_missing_from_partition_raises(self, two_community_graph):
        partial = Partition([{f"l{i}" for i in range(4)}])
        with pytest.raises(KeyError):
            modularity(two_community_graph, partial)

    def test_matches_matrix_formulation(self, two_community_graph):
        partition = Partition([{f"l{i}" for i in range(4)}, {f"r{i}" for i in range(4)}])
        matrix, labels = two_community_graph.to_weight_matrix()
        a = modularity(two_community_graph, partition)
        b = modularity_matrix_form(matrix, labels, partition)
        assert a == pytest.approx(b, abs=1e-9)

    def test_matrix_form_validation(self):
        with pytest.raises(ValueError):
            modularity_matrix_form(np.zeros((2, 3)), ["a", "b"], Partition.whole(["a", "b"]))
        with pytest.raises(ValueError):
            modularity_matrix_form(
                np.array([[0.0, 1.0], [2.0, 0.0]]), ["a", "b"], Partition.whole(["a", "b"])
            )


@st.composite
def graph_and_partition(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    nodes = list(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j, draw(st.floats(min_value=0.1, max_value=10.0))))
    if not edges:
        edges.append((0, 1, 1.0))
    graph = WeightedGraph.from_edges(edges, nodes=nodes)
    membership = {node: draw(st.integers(min_value=0, max_value=3)) for node in nodes}
    return graph, Partition.from_membership(membership)


@given(graph_and_partition())
@settings(max_examples=60, deadline=None)
def test_modularity_is_bounded(data):
    graph, partition = data
    q = modularity(graph, partition)
    assert -1.0 <= q <= 1.0


@given(graph_and_partition())
@settings(max_examples=60, deadline=None)
def test_modularity_agrees_with_matrix_form(data):
    graph, partition = data
    matrix, labels = graph.to_weight_matrix()
    assert modularity(graph, partition) == pytest.approx(
        modularity_matrix_form(matrix, labels, partition), abs=1e-8
    )


@given(graph_and_partition())
@settings(max_examples=40, deadline=None)
def test_single_community_always_zero(data):
    graph, _ = data
    whole = Partition.whole(graph.nodes())
    assert modularity(graph, whole) == pytest.approx(0.0, abs=1e-9)
