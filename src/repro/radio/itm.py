"""Simplified irregular-terrain (Longley–Rice flavoured) model.

WATCH computes the mean TV signal strength ``S^PU_{c,i}`` at each
receiver with "the L-R irregular terrain model" (§III-A, citing the
SenseLess whitespace database).  The reference ITM implementation is a
large Fortran-derived program keyed to proprietary terrain data; we
substitute a simplified model that keeps the three behaviours that
matter for the protocol:

1. free-space behaviour at short range;
2. additional median loss that grows with the terrain irregularity
   parameter Δh along the path (sampled from our synthetic terrain);
3. knife-edge diffraction loss when the direct path is blocked by an
   intermediate ridge.

This is *not* a metrology-grade ITM; it produces a plausible,
deterministic, terrain-dependent field strength surface, which is all
the protocol's public precomputation consumes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import RadioError
from repro.radio.pathloss import FreeSpaceModel, PathLossModel
from repro.radio.terrain import SyntheticTerrain

__all__ = ["IrregularTerrainModel"]

_SPEED_OF_LIGHT = 299_792_458.0

#: Extra median loss for the radio climate.  The model adds none: 0 dB
#: stands for the continental-temperate climate (ITM climate code 5,
#: Longley & Rice 1968) that the distance and terrain terms describe.
CLIMATE_LOSS_DB = 0.0


class IrregularTerrainModel(PathLossModel):
    """Terrain-aware point-to-point path loss.

    Unlike the distance-only models, this model is evaluated between two
    named endpoints on a terrain tile via :meth:`loss_between_db`; the
    :meth:`loss_db` interface falls back to a median Δh correction so the
    model can still be used where only a distance is known.
    """

    def __init__(
        self,
        frequency_hz: float,
        terrain: SyntheticTerrain,
        tx_height_m: float = 100.0,
        rx_height_m: float = 10.0,
    ) -> None:
        if tx_height_m <= 0 or rx_height_m <= 0:
            raise RadioError("antenna heights must be positive")
        self.frequency_hz = frequency_hz
        self.terrain = terrain
        self.tx_height_m = tx_height_m
        self.rx_height_m = rx_height_m
        self._free_space = FreeSpaceModel(frequency_hz)
        self._wavelength_m = _SPEED_OF_LIGHT / frequency_hz

    # -- distance-only interface -------------------------------------------

    def loss_db(self, distance_m: float) -> float:
        """Median loss at ``distance_m`` using the tile-wide Δh statistic."""
        d = self._clamp(distance_m)
        return (
            self._free_space.loss_db(d)
            + self._irregularity_loss_db(self.terrain.terrain_irregularity(), d)
            + CLIMATE_LOSS_DB
        )

    # -- point-to-point interface -------------------------------------------

    def loss_between_db(
        self, tx: tuple[float, float], rx: tuple[float, float], samples: int = 64
    ) -> float:
        """Path loss between two metric coordinates on the terrain tile."""
        distance = math.dist(tx, rx)
        d = self._clamp(distance)
        profile = self.terrain.profile(tx, rx, samples=samples)
        delta_h = float(np.percentile(profile, 90) - np.percentile(profile, 10))
        loss = (
            self._free_space.loss_db(d)
            + self._irregularity_loss_db(delta_h, d)
            + self._diffraction_loss_db(profile, d)
            + CLIMATE_LOSS_DB
        )
        return loss

    def gain_between(
        self, tx: tuple[float, float], rx: tuple[float, float], samples: int = 64
    ) -> float:
        """Linear gain between two points (``10^(−loss/10)``)."""
        return 10.0 ** (-self.loss_between_db(tx, rx, samples=samples) / 10.0)

    # -- components ----------------------------------------------------------

    @staticmethod
    def _irregularity_loss_db(delta_h_m: float, distance_m: float) -> float:
        """Median terrain-roughness loss.

        Empirical ITM behaviour: loss grows roughly logarithmically with
        Δh and with distance; calibrated so Δh = 90 m (ITM's "hilly")
        adds ≈ 10 dB at 10 km.
        """
        if delta_h_m <= 0 or distance_m <= 0:
            return 0.0
        return (
            4.0
            * math.log10(1.0 + delta_h_m / 10.0)
            * math.log10(1.0 + distance_m / 100.0)
        )

    def _diffraction_loss_db(self, profile: np.ndarray, distance_m: float) -> float:
        """Single knife-edge diffraction over the dominant obstruction.

        The line-of-sight ray runs from the transmit antenna tip to the
        receive antenna tip above the terrain endpoints; the worst
        Fresnel parameter ``v`` along the profile sets the loss via the
        standard approximation ``6.9 + 20·log10(√((v−0.1)²+1) + v − 0.1)``.
        """
        samples = len(profile)
        if samples < 3 or distance_m <= 0:
            return 0.0
        tx_alt = profile[0] + self.tx_height_m
        rx_alt = profile[-1] + self.rx_height_m
        worst_v = -math.inf
        for idx in range(1, samples - 1):
            frac = idx / (samples - 1)
            d1 = frac * distance_m
            d2 = distance_m - d1
            if d1 <= 0 or d2 <= 0:
                continue
            los_alt = tx_alt + (rx_alt - tx_alt) * frac
            clearance = profile[idx] - los_alt
            v = clearance * math.sqrt(2.0 * distance_m / (self._wavelength_m * d1 * d2))
            worst_v = max(worst_v, v)
        if worst_v <= -0.78:
            return 0.0
        return 6.9 + 20.0 * math.log10(
            math.sqrt((worst_v - 0.1) ** 2 + 1.0) + worst_v - 0.1
        )
