"""Unit and property tests for the weighted graph type."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.wgraph import WeightedGraph


class TestConstruction:
    def test_from_edges_accumulates_duplicates(self):
        graph = WeightedGraph.from_edges([("a", "b", 1.0), ("a", "b", 2.5)])
        assert graph.edge_weight("a", "b") == pytest.approx(3.5)

    def test_from_edges_with_isolated_nodes(self):
        graph = WeightedGraph.from_edges([("a", "b", 1.0)], nodes=["a", "b", "c"])
        assert "c" in graph
        assert graph.number_of_edges() == 1

    def test_negative_weight_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge("a", "b", -1.0)

    def test_copy_is_independent(self):
        graph = WeightedGraph.from_edges([("a", "b", 1.0)])
        clone = graph.copy()
        clone.add_edge("a", "b", 5.0)
        assert graph.edge_weight("a", "b") == pytest.approx(1.0)


class TestQueries:
    def test_degree_weight_counts_self_loops_twice(self):
        graph = WeightedGraph()
        graph.add_edge("a", "a", 2.0)
        graph.add_edge("a", "b", 3.0)
        assert graph.degree_weight("a") == pytest.approx(2 * 2.0 + 3.0)
        assert graph.degree_weight("b") == pytest.approx(3.0)

    def test_total_weight_counts_each_edge_once(self):
        graph = WeightedGraph.from_edges([("a", "b", 1.0), ("b", "c", 2.0)])
        assert graph.total_weight() == pytest.approx(3.0)

    def test_edges_yield_each_pair_once(self):
        graph = WeightedGraph.from_edges([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 4.0)])
        edges = list(graph.edges())
        assert len(edges) == 3

    def test_neighbors_returns_copy(self):
        graph = WeightedGraph.from_edges([("a", "b", 1.0)])
        nbrs = graph.neighbors("a")
        nbrs["b"] = 100.0
        assert graph.edge_weight("a", "b") == pytest.approx(1.0)

    def test_missing_node_raises(self):
        graph = WeightedGraph()
        with pytest.raises(KeyError):
            graph.neighbors("ghost")
        with pytest.raises(KeyError):
            graph.degree_weight("ghost")

    def test_subgraph_keeps_internal_edges_only(self):
        graph = WeightedGraph.from_edges(
            [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)]
        )
        sub = graph.subgraph(["a", "b", "c"])
        assert sub.has_edge("a", "b")
        assert sub.has_edge("b", "c")
        assert "d" not in sub

    def test_subgraph_unknown_node_raises(self):
        graph = WeightedGraph.from_edges([("a", "b", 1.0)])
        with pytest.raises(KeyError):
            graph.subgraph(["a", "zzz"])

    def test_top_weight_fraction(self):
        graph = WeightedGraph.from_edges(
            [("a", "b", 10.0), ("b", "c", 5.0), ("c", "d", 1.0), ("d", "a", 0.5)]
        )
        top = graph.top_weight_fraction(0.5)
        assert top.number_of_edges() == 2
        assert top.has_edge("a", "b")
        assert top.has_edge("b", "c")
        assert set(top.nodes()) == set(graph.nodes())

    def test_top_weight_fraction_invalid(self):
        graph = WeightedGraph.from_edges([("a", "b", 1.0)])
        with pytest.raises(ValueError):
            graph.top_weight_fraction(0.0)


# --------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------- #
edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_total_weight_equals_half_sum_of_degrees(edges):
    graph = WeightedGraph.from_edges(edges)
    degree_sum = sum(graph.degree_weight(node) for node in graph.nodes())
    assert degree_sum == pytest.approx(2.0 * graph.total_weight(), rel=1e-9)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_matrix_roundtrip_preserves_weights(edges):
    graph = WeightedGraph.from_edges((u, v, w) for u, v, w in edges if u != v)
    if graph.number_of_edges() == 0:
        return
    matrix, labels = graph.to_weight_matrix()
    index = {node: i for i, node in enumerate(labels)}
    assert np.array_equal(matrix, matrix.T)
    assert np.count_nonzero(np.triu(matrix)) == graph.number_of_edges()
    for u, v, w in graph.edges():
        assert matrix[index[u], index[v]] == w


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_subgraph_total_weight_never_exceeds_parent(edges):
    graph = WeightedGraph.from_edges(edges)
    nodes = graph.nodes()[: max(1, len(graph) // 2)]
    sub = graph.subgraph(nodes)
    assert sub.total_weight() <= graph.total_weight() + 1e-9
