"""Packet waveform synthesis.

Figure 8 of the paper shows the PU's received trace: two WiFi packets of
different amplitudes (the two SUs sit at different distances), sampled
at 20 MHz over ≈0.35 ms.  We synthesise equivalent traces: each packet
is an OFDM-like burst — a band-limited random payload with a short
preamble ramp — scaled by the link's amplitude gain and summed onto a
noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RadioError

__all__ = ["PacketBurst", "packet_waveform", "received_trace"]

#: Share of a packet's samples in each raised-cosine edge ramp.
RAMP_FRACTION = 0.05


@dataclass(frozen=True)
class PacketBurst:
    """One packet on the air.

    Attributes
    ----------
    start_s:
        Transmission start time within the observation window.
    duration_s:
        Burst length (802.11g data frames are tens to hundreds of µs).
    amplitude:
        Received amplitude (linear, relative to a unit transmitter).
    source_id:
        Transmitting device.
    """

    start_s: float
    duration_s: float
    amplitude: float
    source_id: str

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise RadioError("packet duration must be positive")
        if self.amplitude < 0:
            raise RadioError("amplitude cannot be negative")


def packet_waveform(num_samples: int, rng: np.random.Generator) -> np.ndarray:
    """A unit-amplitude packet envelope of ``num_samples`` samples.

    Band-limited Gaussian payload with raised-cosine ramps at both ends
    (the preamble/tail shape visible in scope traces).
    """
    if num_samples < 4:
        raise RadioError("packet too short to synthesise")
    payload = rng.standard_normal(num_samples)
    # Cheap band-limiting: moving average over 4 samples.
    kernel = np.ones(4) / 4.0
    payload = np.convolve(payload, kernel, mode="same")
    peak = np.max(np.abs(payload))
    if peak > 0:
        payload /= peak
    ramp_len = max(2, int(num_samples * RAMP_FRACTION))
    ramp = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, ramp_len)))
    envelope = np.ones(num_samples)
    envelope[:ramp_len] = ramp
    envelope[-ramp_len:] = ramp[::-1]
    return payload * envelope


def received_trace(
    bursts: list[PacketBurst],
    window_s: float,
    sample_rate_hz: float,
    noise_rms: float = 1e-3,
    seed: int = 0,
) -> np.ndarray:
    """Synthesise a receiver's sampled trace for an observation window.

    Matches the §VI-B monitoring setup: Figure 8 is this function with a
    0.35 ms window at 20 MHz and two bursts of unequal amplitude.
    """
    if window_s <= 0 or sample_rate_hz <= 0:
        raise RadioError("window and sample rate must be positive")
    rng = np.random.default_rng(seed)
    num_samples = int(window_s * sample_rate_hz)
    trace = rng.standard_normal(num_samples) * noise_rms
    for burst in bursts:
        start = int(burst.start_s * sample_rate_hz)
        length = int(burst.duration_s * sample_rate_hz)
        if start >= num_samples or start + length <= 0:
            continue
        shape = packet_waveform(max(4, length), rng)
        lo = max(0, start)
        hi = min(num_samples, start + length)
        trace[lo:hi] += burst.amplitude * shape[lo - start : hi - start]
    return trace
