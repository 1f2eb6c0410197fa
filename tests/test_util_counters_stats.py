"""Unit tests for the statistics helpers."""

import pytest

from repro.util.stats import harmonic_mean_speedup


class TestMeans:
    def test_harmonic_mean_speedup(self):
        # HM of (1.0, 2.0) = 2 / (1 + 0.5) = 4/3
        assert harmonic_mean_speedup([1.0, 2.0]) == pytest.approx(4 / 3)

    def test_harmonic_mean_weights_slow_programs(self):
        """The HM sits below the arithmetic mean, pulled toward the slowest."""
        hm = harmonic_mean_speedup([1.01, 10.0])
        arithmetic = (1.01 + 10.0) / 2
        assert hm < arithmetic
        assert hm - 1.01 < arithmetic - hm

    def test_harmonic_mean_rejects_bad_input(self):
        with pytest.raises(ValueError):
            harmonic_mean_speedup([])
        with pytest.raises(ValueError):
            harmonic_mean_speedup([0.0, 1.0])
