"""Unit tests for the statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import linear_fit
from repro.errors import ConfigurationError


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = linear_fit([0, 1], [0, 2])
        assert fit.predict(5) == pytest.approx(10.0)

    def test_noisy_line_high_r2(self):
        rng = np.random.default_rng(0)
        x = np.arange(50, dtype=float)
        y = 3 * x + 1 + rng.normal(0, 0.5, size=50)
        fit = linear_fit(x, y)
        assert fit.r_squared > 0.99
        assert fit.slope == pytest.approx(3.0, abs=0.05)

    def test_pure_noise_low_r2(self):
        rng = np.random.default_rng(1)
        fit = linear_fit(np.arange(100.0), rng.normal(size=100))
        assert fit.r_squared < 0.3

    def test_constant_y_perfect(self):
        fit = linear_fit([1, 2, 3], [5, 5, 5])
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.slope == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            linear_fit([1], [2])
        with pytest.raises(ConfigurationError):
            linear_fit([1, 2], [1, 2, 3])
        with pytest.raises(ConfigurationError):
            linear_fit([4, 4, 4], [1, 2, 3])

