"""TV and WiFi channel plans.

Two channel maps appear in the paper:

* the UHF TV band the protocol allocates (§I; US channels 14–51,
  6 MHz each, 470–698 MHz), including the physical/virtual channel
  distinction of §VI-A (PUs only notify the SDC when the *physical*
  channel changes);
* the 2.4 GHz IEEE 802.11g plan used in the real-world experiment
  (§VI-B; channel 6, centre 2.437 GHz, 22 MHz bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RadioError

__all__ = ["TvChannel", "WifiChannel", "ChannelPlan", "WIFI_CHANNEL_6"]


@dataclass(frozen=True)
class TvChannel:
    """A physical UHF TV channel."""

    number: int
    center_frequency_hz: float
    bandwidth_hz: float = 6e6

    @property
    def low_edge_hz(self) -> float:
        return self.center_frequency_hz - self.bandwidth_hz / 2.0

    @property
    def high_edge_hz(self) -> float:
        return self.center_frequency_hz + self.bandwidth_hz / 2.0


@dataclass(frozen=True)
class WifiChannel:
    """An IEEE 802.11 2.4 GHz channel."""

    number: int
    center_frequency_hz: float
    bandwidth_hz: float = 22e6


#: §VI-B: "We choose channel 6 (Center frequency 2.437GHz, bandwidth 22MHz)".
WIFI_CHANNEL_6 = WifiChannel(number=6, center_frequency_hz=2.437e9)


class ChannelPlan:
    """The UHF TV channel plan the SDC allocates over.

    The paper's simulation uses ``C = 100`` channel *slots* (Table I),
    which exceeds the 38 physical US UHF channels — slots map onto
    *virtual* channels multiplexed into physical ones (§VI-A).  The plan
    therefore takes an arbitrary slot count and distributes slots
    round-robin over physical channels.
    """

    #: US post-2009 UHF TV: channels 14-51, 470 MHz lower edge, 6 MHz wide.
    FIRST_PHYSICAL = 14
    LAST_PHYSICAL = 51
    BAND_START_HZ = 470e6
    CHANNEL_WIDTH_HZ = 6e6

    def __init__(self, num_slots: int = 100) -> None:
        if num_slots < 1:
            raise RadioError("a channel plan needs at least one slot")
        self.num_slots = num_slots
        self._physical = [
            TvChannel(
                number=number,
                center_frequency_hz=self.BAND_START_HZ
                + (number - self.FIRST_PHYSICAL + 0.5) * self.CHANNEL_WIDTH_HZ,
                bandwidth_hz=self.CHANNEL_WIDTH_HZ,
            )
            for number in range(self.FIRST_PHYSICAL, self.LAST_PHYSICAL + 1)
        ]

    @property
    def physical_channels(self) -> list[TvChannel]:
        """All physical UHF channels in the plan."""
        return list(self._physical)

    def physical_for_slot(self, slot: int) -> TvChannel:
        """Map a virtual channel slot to its physical channel (round-robin)."""
        if not 0 <= slot < self.num_slots:
            raise RadioError(f"slot {slot} outside [0, {self.num_slots})")
        return self._physical[slot % len(self._physical)]

    def frequency_for_slot(self, slot: int) -> float:
        """Centre frequency (Hz) of the physical channel carrying ``slot``."""
        return self.physical_for_slot(slot).center_frequency_hz

    def same_physical(self, slot_a: int, slot_b: int) -> bool:
        """True when two virtual slots share a physical channel.

        §VI-A: a PU switching between virtual channels on the same
        physical channel does *not* need to notify the SDC.
        """
        return (
            self.physical_for_slot(slot_a).number
            == self.physical_for_slot(slot_b).number
        )
