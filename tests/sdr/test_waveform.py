"""Unit tests for packet waveform synthesis."""

import numpy as np
import pytest

from repro.errors import RadioError
from repro.sdr.waveform import PacketBurst, packet_waveform, received_trace


class TestPacketBurst:
    def test_validation(self):
        with pytest.raises(RadioError):
            PacketBurst(start_s=0.0, duration_s=0.0, amplitude=1.0, source_id="x")
        with pytest.raises(RadioError):
            PacketBurst(start_s=0.0, duration_s=1e-6, amplitude=-1.0, source_id="x")


class TestPacketWaveform:
    def test_unit_peak(self):
        rng = np.random.default_rng(0)
        wf = packet_waveform(1000, rng)
        assert np.max(np.abs(wf)) <= 1.0 + 1e-9

    def test_ramps_attenuate_edges(self):
        rng = np.random.default_rng(0)
        wf = packet_waveform(1000, rng)
        assert abs(wf[0]) < 0.05
        assert abs(wf[-1]) < 0.05

    def test_too_short_rejected(self):
        with pytest.raises(RadioError):
            packet_waveform(2, np.random.default_rng(0))


class TestReceivedTrace:
    def test_sample_count(self):
        trace = received_trace([], window_s=1e-3, sample_rate_hz=20e6)
        assert len(trace) == 20_000

    def test_noise_floor_without_bursts(self):
        trace = received_trace([], window_s=1e-3, sample_rate_hz=1e6, noise_rms=1e-3)
        assert np.std(trace) == pytest.approx(1e-3, rel=0.2)

    def test_burst_raises_amplitude_in_window(self):
        burst = PacketBurst(start_s=0.2e-3, duration_s=0.1e-3, amplitude=0.5,
                            source_id="su1")
        trace = received_trace([burst], window_s=1e-3, sample_rate_hz=1e6,
                               noise_rms=1e-4)
        inside = trace[250:280]
        outside = trace[:150]
        assert np.max(np.abs(inside)) > 5 * np.max(np.abs(outside))

    def test_two_bursts_two_amplitudes(self):
        """Figure 8: two SUs at different distances → distinct amplitudes."""
        bursts = [
            PacketBurst(start_s=0.05e-3, duration_s=0.05e-3, amplitude=0.8,
                        source_id="su1"),
            PacketBurst(start_s=0.2e-3, duration_s=0.05e-3, amplitude=0.2,
                        source_id="su2"),
        ]
        trace = received_trace(bursts, window_s=0.35e-3, sample_rate_hz=20e6,
                               noise_rms=1e-4)
        peak_1 = np.max(np.abs(trace[1000:2000]))
        peak_2 = np.max(np.abs(trace[4000:5000]))
        assert peak_1 > 2 * peak_2

    def test_out_of_window_bursts_ignored(self):
        burst = PacketBurst(start_s=5.0, duration_s=1e-6, amplitude=10.0,
                            source_id="late")
        trace = received_trace([burst], window_s=1e-3, sample_rate_hz=1e6,
                               noise_rms=1e-4)
        assert np.max(np.abs(trace)) < 0.01

    def test_validation(self):
        with pytest.raises(RadioError):
            received_trace([], window_s=0.0, sample_rate_hz=1e6)
