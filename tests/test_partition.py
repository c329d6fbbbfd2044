"""Unit and property tests for the Partition datatype."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.partition import Partition


class TestConstruction:
    def test_basic_partition(self):
        p = Partition([{"a", "b"}, {"c"}])
        assert p.num_clusters == 2
        assert len(p) == 3
        assert p.same_cluster("a", "b")
        assert not p.same_cluster("a", "c")

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(ValueError):
            Partition([{"a", "b"}, {"b", "c"}])

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            Partition([])
        with pytest.raises(ValueError):
            Partition([set(), set()])

    def test_empty_clusters_are_dropped(self):
        p = Partition([{"a"}, set(), {"b"}])
        assert p.num_clusters == 2

    def test_from_membership(self):
        p = Partition.from_membership({"a": 0, "b": 0, "c": 1})
        assert p.same_cluster("a", "b")
        assert not p.same_cluster("a", "c")

    def test_singletons_and_whole(self):
        nodes = ["a", "b", "c"]
        singles = Partition.singletons(nodes)
        whole = Partition.whole(nodes)
        assert singles.num_clusters == 3
        assert whole.num_clusters == 1

    def test_equality_ignores_construction_order(self):
        p1 = Partition([{"a", "b"}, {"c", "d"}])
        p2 = Partition([{"d", "c"}, {"b", "a"}])
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_inequality(self):
        p1 = Partition([{"a", "b"}, {"c"}])
        p2 = Partition([{"a"}, {"b", "c"}])
        assert p1 != p2


class TestQueries:
    def test_cluster_of_and_index(self):
        p = Partition([{"a", "b", "c"}, {"d"}])
        assert p.cluster_of("d") == frozenset({"d"})
        assert p.cluster_index("a") == p.cluster_index("b")
        with pytest.raises(KeyError):
            p.cluster_of("zzz")

    def test_membership_mapping_is_consistent(self):
        p = Partition([{"a", "b"}, {"c"}])
        membership = p.membership()
        assert membership["a"] == membership["b"]
        assert membership["a"] != membership["c"]

    def test_sizes_sorted_descending(self):
        p = Partition([{"x"}, {"a", "b", "c"}, {"p", "q"}])
        assert p.sizes() == [3, 2, 1]

    def test_contains(self):
        p = Partition([{"a"}])
        assert "a" in p
        assert "b" not in p

    def test_restrict(self):
        p = Partition([{"a", "b"}, {"c", "d"}])
        restricted = p.restrict(["a", "c", "d"])
        assert restricted.num_clusters == 2
        assert len(restricted) == 3
        with pytest.raises(KeyError):
            p.restrict(["a", "zzz"])


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=5),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=80, deadline=None)
def test_from_membership_roundtrip(membership):
    p = Partition.from_membership(membership)
    # Every node keeps exactly its original group-mates.
    for u in membership:
        for v in membership:
            assert p.same_cluster(u, v) == (membership[u] == membership[v])
    # Cluster sizes add up to the node count.
    assert sum(p.sizes()) == len(membership)
