"""Unit tests for the simulator's link latency model."""

import pytest

from repro.net.latency import ConstantLatency


class TestConstantLatency:
    def test_components(self):
        model = ConstantLatency(rtt_seconds=0.02, bandwidth_bytes_per_s=1e6)
        assert model.delay_seconds(1_000_000, "a", "b") == pytest.approx(0.01 + 1.0)

    def test_zero_size(self):
        model = ConstantLatency(rtt_seconds=0.02)
        assert model.delay_seconds(0, "a", "b") == pytest.approx(0.01)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency().delay_seconds(-1, "a", "b")

    def test_monotone_in_size(self):
        model = ConstantLatency()
        assert model.delay_seconds(10_000, "a", "b") > model.delay_seconds(10, "a", "b")

