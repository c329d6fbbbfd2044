"""Unit tests for the fragment-counter instrumentation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bittorrent.instrumentation import FragmentMatrix


class TestFragmentMatrix:
    def test_record_and_lookup(self):
        matrix = FragmentMatrix(["a", "b", "c"])
        matrix.record("a", "b", 5)
        matrix.record("a", "c", 2)
        assert matrix.received_by("a") == {"b": 5.0, "c": 2.0}
        assert matrix.total_fragments() == pytest.approx(7.0)

    def test_symmetric_weights_implements_eq1(self):
        matrix = FragmentMatrix(["a", "b"])
        matrix.record("a", "b", 3)
        matrix.record("b", "a", 4)
        assert matrix.edge_weight("a", "b") == pytest.approx(7.0)
        sym = matrix.symmetric_weights()
        assert sym[0, 1] == sym[1, 0] == pytest.approx(7.0)

    def test_self_reception_rejected(self):
        matrix = FragmentMatrix(["a", "b"])
        with pytest.raises(ValueError):
            matrix.record("a", "a")

    def test_negative_count_rejected(self):
        matrix = FragmentMatrix(["a", "b"])
        with pytest.raises(ValueError):
            matrix.record("a", "b", -1)

    def test_unknown_host_rejected(self):
        matrix = FragmentMatrix(["a", "b"])
        with pytest.raises(KeyError):
            matrix.record("a", "ghost")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FragmentMatrix(["a", "a"])

    def test_too_few_hosts_rejected(self):
        with pytest.raises(ValueError):
            FragmentMatrix(["only"])

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            FragmentMatrix(["a", "b"], counts=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            FragmentMatrix(["a", "b"], counts=-np.ones((2, 2)))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=1, max_value=50),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_total_fragments_equals_sum_of_records(records):
    labels = [f"h{i}" for i in range(5)]
    matrix = FragmentMatrix(labels)
    expected = 0
    for receiver, sender, count in records:
        if receiver == sender:
            continue
        matrix.record(labels[receiver], labels[sender], count)
        expected += count
    assert matrix.total_fragments() == pytest.approx(float(expected))
    # Symmetrised total is exactly twice the directed total.
    assert matrix.symmetric_weights().sum() == pytest.approx(2.0 * expected)
