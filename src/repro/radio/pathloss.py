"""Path-loss models.

WATCH needs two path-loss functions (§III-A):

* ``h(d)`` — expected path *gain* of secondary signals over distance ``d``
  (eq. (2), (5));
* ``h_max(d)`` — the maximum path gain over distance ``d`` (eq. (1)),
  i.e. the most favourable propagation that could carry SU interference
  into a PU receiver, used to size the exclusion distance ``d^c``.

We model path loss in dB and expose linear gains.  Implemented models:

* :class:`FreeSpaceModel` — Friis free-space loss, the optimistic bound
  used for ``h_max``;
* :class:`LogDistanceModel` — generic exponent-``γ`` model;
* :class:`TwoRayGroundModel` — two-ray ground reflection (far field);
* :class:`HataModel` — classic Okumura–Hata (urban);
* :class:`ExtendedHataModel` — the Extended Hata model (sub-urban
  correction) cited by §IV-A1 for the SDC's initialisation precompute.

All models share the :class:`PathLossModel` interface:
``loss_db(distance_m)`` and ``gain_linear(distance_m)``; frequency and
antenna heights are constructor state.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import RadioError
from repro.radio.units import db_to_linear

__all__ = [
    "PathLossModel",
    "FreeSpaceModel",
    "LogDistanceModel",
    "TwoRayGroundModel",
    "HataModel",
    "Cost231HataModel",
    "ExtendedHataModel",
]

_SPEED_OF_LIGHT = 299_792_458.0


class PathLossModel(ABC):
    """Interface shared by every propagation model."""

    #: Minimum distance (m) below which the far-field model is invalid;
    #: queries closer than this are clamped to it.
    min_distance_m: float = 1.0

    @abstractmethod
    def loss_db(self, distance_m: float) -> float:
        """Path loss in dB (positive number) at ``distance_m`` metres."""

    def gain_linear(self, distance_m: float) -> float:
        """Linear path gain ``h(d) = 10^(−loss/10)`` — always in (0, 1]."""
        return db_to_linear(-self.loss_db(distance_m))

    def _clamp(self, distance_m: float) -> float:
        if distance_m < 0:
            raise RadioError("distance must be non-negative")
        return max(distance_m, self.min_distance_m)

    def solve_distance_for_gain(
        self, target_gain: float, d_low: float = 1.0, d_high: float = 1e7
    ) -> float:
        """Invert the model: smallest ``d`` with ``gain(d) ≤ target_gain``.

        Used to solve eq. (1) for the exclusion distance ``d^c``.  Gains
        are monotone non-increasing in distance for every model here, so a
        bisection over ``[d_low, d_high]`` suffices.
        """
        if target_gain <= 0:
            raise RadioError("target gain must be positive")
        if self.gain_linear(d_low) <= target_gain:
            return d_low
        if self.gain_linear(d_high) > target_gain:
            raise RadioError("target gain unreachable within the search range")
        for _ in range(200):
            mid = math.sqrt(d_low * d_high)
            if self.gain_linear(mid) > target_gain:
                d_low = mid
            else:
                d_high = mid
            if d_high / d_low < 1.0 + 1e-12:
                break
        return d_high


class FreeSpaceModel(PathLossModel):
    """Friis free-space path loss.

    ``L(d) = 20·log10(4πd/λ)``.  This is the most optimistic propagation
    and therefore the natural ``h_max`` when sizing exclusion zones.
    """

    def __init__(self, frequency_hz: float) -> None:
        if frequency_hz <= 0:
            raise RadioError("frequency must be positive")
        self.frequency_hz = frequency_hz
        self._wavelength_m = _SPEED_OF_LIGHT / frequency_hz

    def loss_db(self, distance_m: float) -> float:
        d = self._clamp(distance_m)
        return 20.0 * math.log10(4.0 * math.pi * d / self._wavelength_m)


#: The log-distance model's reference distance ``d0``: free space up to
#: 1 m, the anchor Rappaport uses for short-range and indoor links
#: (*Wireless Communications*, 2nd ed., §4.9.1).
REFERENCE_DISTANCE_M = 1.0


class LogDistanceModel(PathLossModel):
    """Log-distance model: free-space up to ``d0`` then exponent ``gamma``.

    ``L(d) = L_fs(d0) + 10·γ·log10(d/d0)`` with ``d0 = REFERENCE_DISTANCE_M``.
    """

    def __init__(self, frequency_hz: float, exponent: float = 3.0) -> None:
        if exponent < 1.0:
            raise RadioError("path-loss exponent below 1 is unphysical")
        self.exponent = exponent
        self._free_space = FreeSpaceModel(frequency_hz)
        self._l0_db = self._free_space.loss_db(REFERENCE_DISTANCE_M)

    def loss_db(self, distance_m: float) -> float:
        d = self._clamp(distance_m)
        if d <= REFERENCE_DISTANCE_M:
            return self._free_space.loss_db(d)
        return self._l0_db + 10.0 * self.exponent * math.log10(d / REFERENCE_DISTANCE_M)


class TwoRayGroundModel(PathLossModel):
    """Two-ray ground-reflection model (far-field approximation).

    ``L(d) = 40·log10(d) − 20·log10(h_t·h_r)`` beyond the crossover
    distance; free space before it.
    """

    def __init__(self, frequency_hz: float, tx_height_m: float, rx_height_m: float) -> None:
        if tx_height_m <= 0 or rx_height_m <= 0:
            raise RadioError("antenna heights must be positive")
        self.tx_height_m = tx_height_m
        self.rx_height_m = rx_height_m
        self._free_space = FreeSpaceModel(frequency_hz)
        wavelength = _SPEED_OF_LIGHT / frequency_hz
        self.crossover_m = 4.0 * math.pi * tx_height_m * rx_height_m / wavelength

    def loss_db(self, distance_m: float) -> float:
        d = self._clamp(distance_m)
        if d < self.crossover_m:
            return self._free_space.loss_db(d)
        return 40.0 * math.log10(d) - 20.0 * math.log10(
            self.tx_height_m * self.rx_height_m
        )


class HataModel(PathLossModel):
    """Okumura–Hata model for urban macro cells (150–1500 MHz).

    ``L = 69.55 + 26.16·log10(f) − 13.82·log10(h_b) − a(h_m)
    + (44.9 − 6.55·log10(h_b))·log10(d_km)``
    with the small/medium-city mobile-antenna correction ``a(h_m)``.
    """

    min_distance_m = 10.0

    def __init__(
        self,
        frequency_hz: float,
        base_height_m: float = 30.0,
        mobile_height_m: float = 1.5,
    ) -> None:
        f_mhz = frequency_hz / 1e6
        if not 100.0 <= f_mhz <= 2000.0:
            raise RadioError(f"Hata model is calibrated for 100-2000 MHz, got {f_mhz} MHz")
        if not 1.0 <= base_height_m <= 300.0:
            raise RadioError("base-station height must be in 1-300 m")
        if not 0.5 <= mobile_height_m <= 20.0:
            raise RadioError("mobile height must be in 0.5-20 m")
        self.frequency_mhz = f_mhz
        self.base_height_m = base_height_m
        self.mobile_height_m = mobile_height_m

    def _mobile_correction_db(self) -> float:
        f = self.frequency_mhz
        h = self.mobile_height_m
        return (1.1 * math.log10(f) - 0.7) * h - (1.56 * math.log10(f) - 0.8)

    def loss_db(self, distance_m: float) -> float:
        d_km = self._clamp(distance_m) / 1000.0
        d_km = max(d_km, 0.01)
        f = self.frequency_mhz
        hb = self.base_height_m
        return (
            69.55
            + 26.16 * math.log10(f)
            - 13.82 * math.log10(hb)
            - self._mobile_correction_db()
            + (44.9 - 6.55 * math.log10(hb)) * math.log10(d_km)
        )


class Cost231HataModel(HataModel):
    """COST-231 extension of Hata for 1500-2000 MHz.

    ``L = 46.3 + 33.9·log10(f) − 13.82·log10(h_b) − a(h_m)
    + (44.9 − 6.55·log10(h_b))·log10(d_km) + C_m``
    with ``C_m = 0`` dB for medium cities/suburbs and 3 dB for
    metropolitan centres.  Used for links near the 2.4 GHz ISM band
    (formally specified to 2 GHz; we allow up to 2.5 GHz with the usual
    engineering caveat) such as the §VI-B WiFi testbed.
    """

    def __init__(
        self,
        frequency_hz: float,
        base_height_m: float = 30.0,
        mobile_height_m: float = 1.5,
        metropolitan: bool = False,
    ) -> None:
        f_mhz = frequency_hz / 1e6
        if not 1500.0 <= f_mhz <= 2500.0:
            raise RadioError(
                f"COST-231 Hata is specified for 1500-2000 MHz "
                f"(accepted to 2500), got {f_mhz} MHz"
            )
        # Bypass HataModel's 100-2000 MHz check; share its corrections.
        self.frequency_mhz = f_mhz
        if not 1.0 <= base_height_m <= 300.0:
            raise RadioError("base-station height must be in 1-300 m")
        if not 0.5 <= mobile_height_m <= 20.0:
            raise RadioError("mobile height must be in 0.5-20 m")
        self.base_height_m = base_height_m
        self.mobile_height_m = mobile_height_m
        self.metropolitan = metropolitan

    def loss_db(self, distance_m: float) -> float:
        d_km = max(self._clamp(distance_m) / 1000.0, 0.01)
        f = self.frequency_mhz
        hb = self.base_height_m
        c_m = 3.0 if self.metropolitan else 0.0
        return (
            46.3
            + 33.9 * math.log10(f)
            - 13.82 * math.log10(hb)
            - self._mobile_correction_db()
            + (44.9 - 6.55 * math.log10(hb)) * math.log10(d_km)
            + c_m
        )


class ExtendedHataModel(HataModel):
    """Extended Hata model with environment corrections.

    §IV-A1 cites "the Extended Hata sub-urban model" (CEPT SE21/SEAMCAT
    extension of Okumura–Hata) for the SDC's precomputation of maximum SU
    EIRP per block.  Relative to urban Hata:

    * ``suburban``: ``L −= 2·(log10(f/28))² + 5.4``
    * ``rural`` (open): ``L −= 4.78·(log10 f)² − 18.33·log10 f + 40.94``
    * ``urban``: no correction (reduces to :class:`HataModel`).
    """

    ENVIRONMENTS = ("urban", "suburban", "rural")

    def __init__(
        self,
        frequency_hz: float,
        base_height_m: float = 30.0,
        mobile_height_m: float = 1.5,
        environment: str = "suburban",
    ) -> None:
        super().__init__(frequency_hz, base_height_m, mobile_height_m)
        if environment not in self.ENVIRONMENTS:
            raise RadioError(f"unknown environment {environment!r}")
        self.environment = environment

    def _environment_correction_db(self) -> float:
        f = self.frequency_mhz
        if self.environment == "suburban":
            return 2.0 * math.log10(f / 28.0) ** 2 + 5.4
        if self.environment == "rural":
            return 4.78 * math.log10(f) ** 2 - 18.33 * math.log10(f) + 40.94
        return 0.0

    def loss_db(self, distance_m: float) -> float:
        return super().loss_db(distance_m) - self._environment_correction_db()
