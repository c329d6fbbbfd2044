"""Tests for the hierarchical clustering extension (the paper's future work)."""

import pytest

from repro.clustering.hierarchical import HierarchicalClustering, recursive_louvain
from repro.clustering.nmi import overlapping_nmi
from repro.clustering.partition import Partition
from repro.graph.wgraph import WeightedGraph


def nested_graph():
    """Two super-clusters, one of which contains two tight sub-clusters.

    Mirrors the B-T situation: Toulouse (one flat cluster) plus Bordeaux
    (internally split by a bottleneck).
    """
    graph = WeightedGraph()
    sub_a = [f"a{i}" for i in range(5)]
    sub_b = [f"b{i}" for i in range(5)]
    flat = [f"t{i}" for i in range(10)]

    def clique(nodes, weight):
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                graph.add_edge(nodes[i], nodes[j], weight)

    clique(sub_a, 100.0)
    clique(sub_b, 100.0)
    clique(flat, 100.0)
    # Bordeaux-internal bottleneck: sub_a and sub_b still talk, but less.
    for a in sub_a:
        for b in sub_b:
            graph.add_edge(a, b, 25.0)
    # WAN: very little traffic between the super-clusters.
    graph.add_edge("a0", "t0", 1.0)
    graph.add_edge("b0", "t1", 1.0)
    return graph, sub_a, sub_b, flat


class TestRecursiveLouvain:
    def test_top_level_matches_single_level_louvain(self):
        graph, sub_a, sub_b, flat = nested_graph()
        hierarchy = recursive_louvain(graph)
        top = hierarchy.levels()[0]
        assert top.num_clusters == 2
        assert top.same_cluster(sub_a[0], sub_b[0])
        assert not top.same_cluster(sub_a[0], flat[0])

    def test_recursion_recovers_the_nested_split(self):
        graph, sub_a, sub_b, flat = nested_graph()
        hierarchy = recursive_louvain(graph, min_cluster_size=3)
        fine = hierarchy.flatten()
        assert fine.num_clusters == 3
        assert fine.same_cluster(sub_a[0], sub_a[-1])
        assert not fine.same_cluster(sub_a[0], sub_b[0])
        assert fine.same_cluster(flat[0], flat[-1])

    def test_best_match_picks_the_right_level(self):
        graph, sub_a, sub_b, flat = nested_graph()
        hierarchy = recursive_louvain(graph, min_cluster_size=3)
        two_level_truth = Partition([set(sub_a) | set(sub_b), set(flat)])
        three_level_truth = Partition([set(sub_a), set(sub_b), set(flat)])
        _, nmi_two = hierarchy.best_match(two_level_truth)
        _, nmi_three = hierarchy.best_match(three_level_truth)
        assert nmi_two == pytest.approx(1.0)
        assert nmi_three == pytest.approx(1.0)

    def test_flat_graph_is_not_shattered(self, two_community_graph):
        hierarchy = recursive_louvain(two_community_graph, min_cluster_size=2)
        # The two cliques are homogeneous: recursion must not split them.
        assert hierarchy.flatten().num_clusters == 2

    def test_levels_are_coarse_to_fine(self):
        graph, *_ = nested_graph()
        hierarchy = recursive_louvain(graph, min_cluster_size=3)
        levels = hierarchy.levels()
        counts = [level.num_clusters for level in levels]
        assert counts == sorted(counts)

    def test_min_cluster_size_blocks_small_splits(self):
        graph, sub_a, sub_b, flat = nested_graph()
        hierarchy = recursive_louvain(graph, min_cluster_size=6)
        # Sub-clusters have 5 members < 6, so the Bordeaux split is rejected.
        assert hierarchy.flatten().num_clusters == 2

    def test_describe_mentions_every_root(self):
        graph, *_ = nested_graph()
        hierarchy = recursive_louvain(graph)
        text = hierarchy.describe()
        assert text.count("- ") >= len(hierarchy.roots)

    def test_parameter_validation(self, two_community_graph):
        with pytest.raises(ValueError):
            recursive_louvain(two_community_graph, min_cluster_size=1)
        with pytest.raises(ValueError):
            recursive_louvain(two_community_graph, max_depth=0)

    def test_flatten_covers_all_nodes(self):
        graph, *_ = nested_graph()
        hierarchy = recursive_louvain(graph, min_cluster_size=3)
        assert hierarchy.flatten().nodes() == set(graph.nodes())
        assert hierarchy.levels()[0].nodes() == set(graph.nodes())
