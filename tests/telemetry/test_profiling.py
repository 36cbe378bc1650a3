"""Unit tests for the shared nearest-rank percentile."""

from repro.telemetry import percentile


class TestPercentile:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 100) == 100.0

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0
