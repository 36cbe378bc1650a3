"""Workload generators for the deployment simulator.

* :class:`PoissonArrivals` — SU transmission requests as a Poisson
  process (the standard model for independent user arrivals);
* :class:`PuSwitchProcess` — PU channel switching.  §VI-A (citing [16])
  puts *virtual* channel switches at 2.3-2.7 per viewer-hour with
  physical switches "much lower"; only physical switches reach the SDC,
  so the process draws exponential inter-switch times at a configurable
  physical rate and flags which switches need an SDC update.

Both samplers draw exclusively through the injected
:class:`~repro.crypto.rand.RandomSource` (no ambient randomness), so a
journaled source replays a simulation byte-for-byte.  The richer
time-varying models (diurnal curves, flash crowds, mobility) live in
:mod:`repro.sim.traffic`; these two remain as the homogeneous
building blocks the simulator uses directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.rand import RandomSource
from repro.errors import ConfigurationError
from repro.sim.traffic import (
    VIRTUAL_SWITCHES_PER_HOUR,
    exponential_gap,
    unit_float,
)

__all__ = ["WorkloadConfig", "PoissonArrivals", "PuSwitchProcess"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Aggregate workload knobs for a simulated deployment."""

    #: Mean SU request arrivals per hour (whole population).
    su_requests_per_hour: float = 20.0
    #: Mean per-PU virtual switches per hour (paper: 2.3-2.7).
    pu_virtual_switches_per_hour: float = VIRTUAL_SWITCHES_PER_HOUR
    #: Fraction of virtual switches that cross a physical channel and
    #: therefore require an SDC update ("much lower" per the paper).
    physical_switch_fraction: float = 0.2
    #: Fraction of SU requests able to reuse a cached (refreshable) request.
    cached_request_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.su_requests_per_hour <= 0:
            raise ConfigurationError("need a positive SU arrival rate")
        if not 0 <= self.physical_switch_fraction <= 1:
            raise ConfigurationError("physical_switch_fraction must be in [0, 1]")
        if not 0 <= self.cached_request_fraction <= 1:
            raise ConfigurationError("cached_request_fraction must be in [0, 1]")


class PoissonArrivals:
    """Exponential inter-arrival sampler over an injected RandomSource."""

    def __init__(self, rate_per_hour: float, rng: RandomSource) -> None:
        if rate_per_hour <= 0:
            raise ConfigurationError("rate must be positive")
        self._rate_per_s = rate_per_hour / 3600.0
        self._rng = rng

    def next_gap_s(self) -> float:
        """Seconds until the next arrival."""
        return exponential_gap(self._rng, self._rate_per_s)


class PuSwitchProcess:
    """Per-PU switching with the virtual/physical distinction."""

    def __init__(
        self,
        virtual_rate_per_hour: float,
        physical_fraction: float,
        rng: RandomSource,
    ) -> None:
        if virtual_rate_per_hour <= 0:
            raise ConfigurationError("switch rate must be positive")
        self._rate_per_s = virtual_rate_per_hour / 3600.0
        self._physical_fraction = physical_fraction
        self._rng = rng

    def next_switch(self) -> tuple[float, bool]:
        """``(seconds_until_switch, needs_sdc_update)``.

        Virtual-only switches (same physical channel) do not notify the
        SDC — the §VI-A optimisation.
        """
        gap = exponential_gap(self._rng, self._rate_per_s)
        physical = unit_float(self._rng) < self._physical_fraction
        return gap, physical
