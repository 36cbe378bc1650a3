"""Unit tests for TV/WiFi channel plans."""

import pytest

from repro.errors import RadioError
from repro.radio.channel import (
    WIFI_CHANNEL_6,
    ChannelPlan,
    TvChannel,
)


class TestWifiChannels:
    def test_paper_channel_6(self):
        """§VI-B: channel 6, centre 2.437 GHz, 22 MHz."""
        assert WIFI_CHANNEL_6.number == 6
        assert WIFI_CHANNEL_6.center_frequency_hz == pytest.approx(2.437e9)
        assert WIFI_CHANNEL_6.bandwidth_hz == pytest.approx(22e6)


class TestTvChannel:
    def test_edges(self):
        ch = TvChannel(number=14, center_frequency_hz=473e6)
        assert ch.low_edge_hz == pytest.approx(470e6)
        assert ch.high_edge_hz == pytest.approx(476e6)


class TestChannelPlan:
    def test_physical_channel_count(self):
        plan = ChannelPlan(num_slots=10)
        assert len(plan.physical_channels) == 38  # US UHF 14-51

    def test_first_physical_frequency(self):
        plan = ChannelPlan(num_slots=10)
        ch14 = plan.physical_channels[0]
        assert ch14.number == 14
        assert ch14.center_frequency_hz == pytest.approx(473e6)

    def test_band_is_uhf(self):
        plan = ChannelPlan(num_slots=100)
        for slot in range(plan.num_slots):
            f = plan.frequency_for_slot(slot)
            assert 470e6 < f < 700e6

    def test_virtual_slots_wrap_round_robin(self):
        plan = ChannelPlan(num_slots=100)
        assert plan.physical_for_slot(0).number == plan.physical_for_slot(38).number
        assert plan.same_physical(0, 38)
        assert not plan.same_physical(0, 1)

    def test_slot_bounds(self):
        plan = ChannelPlan(num_slots=5)
        with pytest.raises(RadioError):
            plan.physical_for_slot(5)
        with pytest.raises(RadioError):
            plan.physical_for_slot(-1)

    def test_needs_a_slot(self):
        with pytest.raises(RadioError):
            ChannelPlan(num_slots=0)
