"""Simulated USRP devices on a shared radio medium.

Models the §VI-B hardware: Ettus USRP N210 (the SUs) and X310 (the PU)
profiles with metric positions, a shared :class:`RadioMedium` carrying
packet bursts on WiFi channel 6, and free-space amplitude scaling so a
monitoring device observes distance-dependent amplitudes — the Figure 8
effect ("this difference stems from the fact that the distance of the
two SUs from PU is not equal").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import RadioError
from repro.radio.channel import WIFI_CHANNEL_6
from repro.radio.pathloss import FreeSpaceModel
from repro.sdr.waveform import PacketBurst, received_trace

__all__ = ["UsrpProfile", "SimulatedUSRP", "RadioMedium", "USRP_N210", "USRP_X310"]


@dataclass(frozen=True)
class UsrpProfile:
    """Static capabilities of a USRP model."""

    model: str
    max_sample_rate_hz: float
    max_tx_power_dbm: float


#: The paper's SU hardware.
USRP_N210 = UsrpProfile(model="N210", max_sample_rate_hz=25e6, max_tx_power_dbm=20.0)
#: The paper's PU hardware.
USRP_X310 = UsrpProfile(model="X310", max_sample_rate_hz=200e6, max_tx_power_dbm=20.0)


class RadioMedium:
    """A shared wireless medium for one WiFi channel.

    Devices register themselves; transmissions append
    :class:`~repro.sdr.waveform.PacketBurst` entries per *receiver* with
    free-space amplitude scaling by the transmitter→receiver distance.
    """

    def __init__(self) -> None:
        self._pathloss = FreeSpaceModel(WIFI_CHANNEL_6.center_frequency_hz)
        self.devices: dict[str, "SimulatedUSRP"] = {}
        #: Per-receiver burst logs: device_id → list of bursts heard.
        self.heard: dict[str, list[PacketBurst]] = {}
        self.clock_s = 0.0

    def register(self, device: "SimulatedUSRP") -> None:
        if device.device_id in self.devices:
            raise RadioError(f"duplicate device id {device.device_id!r}")
        self.devices[device.device_id] = device
        self.heard[device.device_id] = []

    def advance(self, seconds: float) -> None:
        """Advance the medium clock."""
        if seconds < 0:
            raise RadioError("time only moves forward")
        self.clock_s += seconds

    def amplitude_between(self, tx_id: str, rx_id: str) -> float:
        """Received amplitude for a unit-amplitude transmitter.

        Power gain ``h(d)`` maps to amplitude as ``sqrt(h(d))``.
        """
        tx = self.devices[tx_id]
        rx = self.devices[rx_id]
        distance = math.hypot(tx.x_m - rx.x_m, tx.y_m - rx.y_m)
        return math.sqrt(self._pathloss.gain_linear(distance))

    def channel_busy(self, listener_id: str, threshold: float = 1e-4) -> bool:
        """Carrier sense: is another device's burst audible right now?

        802.11's CSMA/CA listens before transmitting; a burst whose
        received amplitude at the listener exceeds ``threshold`` and
        whose airtime covers the current clock makes the channel busy.
        """
        if listener_id not in self.devices:
            raise RadioError(f"unknown device {listener_id!r}")
        for burst in self.heard[listener_id]:
            if (
                burst.start_s <= self.clock_s < burst.start_s + burst.duration_s
                and burst.amplitude >= threshold
            ):
                return True
        return False

    def transmit(
        self, tx_id: str, duration_s: float, carrier_sense: bool = False
    ) -> PacketBurst | None:
        """Broadcast one packet; every other device logs what it hears.

        With ``carrier_sense=True`` the device defers (returns ``None``,
        transmitting nothing) when the channel is busy at its location —
        the 802.11g listen-before-talk behaviour of the testbed radios.
        """
        if tx_id not in self.devices:
            raise RadioError(f"unknown device {tx_id!r}")
        tx = self.devices[tx_id]
        if not tx.transmitting_allowed:
            raise RadioError(f"{tx_id!r} has no transmission permission")
        if carrier_sense and self.channel_busy(tx_id):
            return None
        sent = PacketBurst(
            start_s=self.clock_s, duration_s=duration_s, amplitude=1.0, source_id=tx_id
        )
        for rx_id in self.devices:
            if rx_id == tx_id:
                continue
            self.heard[rx_id].append(
                PacketBurst(
                    start_s=self.clock_s,
                    duration_s=duration_s,
                    amplitude=tx.tx_amplitude * self.amplitude_between(tx_id, rx_id),
                    source_id=tx_id,
                )
            )
        self.advance(duration_s)
        return sent


@dataclass
class SimulatedUSRP:
    """One radio device with a position and a transmit-permission flag.

    ``transmitting_allowed`` models the SDC's control loop: §VI-B
    scenario 2 has the SDC request SUs to stop, and scenario 4 grants
    permission back to the non-interfering SU.
    """

    device_id: str
    profile: UsrpProfile
    x_m: float
    y_m: float
    tx_power_dbm: float = 10.0
    transmitting_allowed: bool = True

    def __post_init__(self) -> None:
        if self.tx_power_dbm > self.profile.max_tx_power_dbm:
            raise RadioError(
                f"{self.profile.model} cannot transmit at {self.tx_power_dbm} dBm"
            )

    @property
    def tx_amplitude(self) -> float:
        """Transmit amplitude relative to a 0 dBm reference."""
        return math.sqrt(10.0 ** (self.tx_power_dbm / 10.0))

    def observe(
        self,
        medium: RadioMedium,
        window_s: float,
        sample_rate_hz: float = 20e6,
        since_s: float = 0.0,
        seed: int = 0,
        noise_rms: float = 1e-5,
    ) -> np.ndarray:
        """Render this device's received sample trace for a window.

        §VI-B monitors with 20 MHz sample rate; bursts heard before
        ``since_s`` are excluded and times are shifted to the window.
        ``noise_rms`` defaults well below free-space amplitudes at the
        testbed's tens-of-metres ranges (≈1e-4..1e-2), so packets stand
        out of the floor as in the paper's scope traces.
        """
        if sample_rate_hz > self.profile.max_sample_rate_hz:
            raise RadioError(
                f"{self.profile.model} caps at {self.profile.max_sample_rate_hz} S/s"
            )
        bursts = [
            PacketBurst(
                start_s=b.start_s - since_s,
                duration_s=b.duration_s,
                amplitude=b.amplitude,
                source_id=b.source_id,
            )
            for b in medium.heard[self.device_id]
            if b.start_s >= since_s
        ]
        return received_trace(
            bursts, window_s, sample_rate_hz, noise_rms=noise_rms, seed=seed
        )

    def heard_sources(self, medium: RadioMedium, since_s: float = 0.0) -> list[str]:
        """Source ids of bursts heard since ``since_s`` (in arrival order)."""
        return [
            b.source_id for b in medium.heard[self.device_id] if b.start_s >= since_s
        ]
