"""Unit tests for seed derivation."""

from hypothesis import given, strategies as st

from repro.simulation.rng import derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_label_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_base_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_result_fits_in_63_bits(self):
        seed = derive_seed(123456789, "broadcast", 17)
        assert 0 <= seed < 2 ** 63

    @given(st.integers(min_value=0, max_value=2 ** 40), st.text(max_size=20))
    def test_always_non_negative(self, base, label):
        assert derive_seed(base, label) >= 0

