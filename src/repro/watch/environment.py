"""The shared public substrate of a WATCH/PISA deployment.

Everything in this module is *public data* in the paper's sense
(§III-D): the block grid, the channel plan, propagation models, the
exclusion distances ``d^c`` (eq. (1)), and the precomputed max-SU-EIRP
matrix ``E`` (§IV-A1).  Both the plaintext WATCH SDC and the
privacy-preserving PISA servers operate over one
:class:`SpectrumEnvironment`, which is what makes the two systems
decision-equivalent by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geo.grid import BlockGrid
from repro.radio.channel import ChannelPlan
from repro.radio.pathloss import ExtendedHataModel, FreeSpaceModel, LogDistanceModel, PathLossModel
from repro.watch.entities import TVTransmitter
from repro.watch.exclusion import exclusion_distance_m
from repro.watch.matrices import initialize_e_matrix
from repro.watch.params import WatchParameters

__all__ = ["SpectrumEnvironment"]

#: Path-loss exponent of the secondary-signal model ``h(·)``
#: (log-distance; 3.0 models suburban clutter).
SU_PATHLOSS_EXPONENT = 3.0

#: Extended-Hata environment for tower coverage: §IV-A1 computes TV
#: signal strength with the sub-urban Extended Hata model.
TV_ENVIRONMENT = "suburban"

#: TV tower height: 200 m, the top of the 30–200 m base-station range
#: Hata's formula is fitted over.
TOWER_HEIGHT_M = 200.0

#: Height of a TV receiving antenna, the victim of SU interference:
#: 10 m, the rooftop reference height of broadcast-coverage planning
#: (ITU-R P.1546).
TV_RECEIVER_HEIGHT_M = 10.0


class SpectrumEnvironment:
    """Public state shared by every party of the protocol.

    Parameters
    ----------
    grid:
        The service-area block grid (``B`` blocks).
    params:
        Physical-layer parameters (``C`` channels, thresholds, encoder).
    transmitters:
        Public TV tower registry used for the ``E`` precompute.
    terrain:
        Optional :class:`~repro.radio.terrain.SyntheticTerrain` tile.
        When given, tower coverage (and therefore the ``E`` precompute
        and PU signal strengths) uses the simplified Longley–Rice
        irregular-terrain model over it — the §III-A "L-R irregular
        terrain model" path — instead of distance-only Extended Hata.
    """

    def __init__(
        self,
        grid: BlockGrid,
        params: WatchParameters,
        transmitters: Sequence[TVTransmitter] = (),
        height_aware_su_model: bool = False,
        terrain=None,
    ) -> None:
        self.grid = grid
        self.params = params
        self.transmitters = list(transmitters)
        self.plan = ChannelPlan(num_slots=params.num_channels)
        self.height_aware_su_model = height_aware_su_model
        self.terrain = terrain
        self._su_models: dict[int, PathLossModel] = {}
        self._su_height_models: dict[tuple[int, float], PathLossModel] = {}
        self._tv_models: dict[int, PathLossModel] = {}
        self._hmax_models: dict[int, PathLossModel] = {}
        self._exclusion: dict[int, float] = {}
        self._e_matrix: np.ndarray | None = None

    # -- propagation models ----------------------------------------------------

    def su_pathloss(self, channel_slot: int) -> PathLossModel:
        """``h(·)``: expected path loss of secondary signals on a slot."""
        if channel_slot not in self._su_models:
            self._su_models[channel_slot] = LogDistanceModel(
                self.plan.frequency_for_slot(channel_slot), exponent=SU_PATHLOSS_EXPONENT
            )
        return self._su_models[channel_slot]

    def su_pathloss_for(self, su, channel_slot: int) -> PathLossModel:
        """Height-aware ``h(·)`` for a specific SU's antenna.

        §I counts the SU's antenna height among the sensitive operation
        parameters precisely because it shapes propagation: a taller
        antenna clears ground clutter and carries interference further.
        With ``height_aware_su_model=True`` the secondary-signal model
        becomes two-ray ground reflection parameterised by the SU's
        antenna height (a TV receiving antenna as the victim); the default keeps the
        height-independent log-distance model.

        Only the SU itself evaluates this — the height never leaves the
        client; the SDC sees the resulting ``F`` entries as ciphertext.
        """
        if not self.height_aware_su_model:
            return self.su_pathloss(channel_slot)
        from repro.radio.pathloss import TwoRayGroundModel

        key = (channel_slot, round(su.antenna.height_m, 3))
        if key not in self._su_height_models:
            self._su_height_models[key] = TwoRayGroundModel(
                self.plan.frequency_for_slot(channel_slot),
                tx_height_m=su.antenna.height_m,
                rx_height_m=TV_RECEIVER_HEIGHT_M,
            )
        return self._su_height_models[key]

    def tv_pathloss(self, channel_slot: int) -> PathLossModel:
        """Tower-coverage model for a slot's frequency.

        Extended Hata (sub-urban) by default; the simplified irregular-
        terrain model when the environment carries a terrain tile.
        """
        if channel_slot not in self._tv_models:
            frequency = self.plan.frequency_for_slot(channel_slot)
            if self.terrain is not None:
                from repro.radio.itm import IrregularTerrainModel

                self._tv_models[channel_slot] = IrregularTerrainModel(
                    frequency, self.terrain,
                    tx_height_m=TOWER_HEIGHT_M, rx_height_m=TV_RECEIVER_HEIGHT_M,
                )
            else:
                self._tv_models[channel_slot] = ExtendedHataModel(
                    frequency,
                    base_height_m=TOWER_HEIGHT_M,
                    mobile_height_m=TV_RECEIVER_HEIGHT_M,
                    environment=TV_ENVIRONMENT,
                )
        return self._tv_models[channel_slot]

    def hmax_pathloss(self, channel_slot: int) -> PathLossModel:
        """``h_max(·)``: the most favourable propagation (free space)."""
        if channel_slot not in self._hmax_models:
            self._hmax_models[channel_slot] = FreeSpaceModel(
                self.plan.frequency_for_slot(channel_slot)
            )
        return self._hmax_models[channel_slot]

    # -- public precomputation ---------------------------------------------------

    def exclusion_distance(self, channel_slot: int) -> float:
        """``d^c`` from eq. (1); cached per slot."""
        if channel_slot not in self._exclusion:
            self._exclusion[channel_slot] = exclusion_distance_m(
                self.params,
                self.plan.frequency_for_slot(channel_slot),
                hmax_model=self.hmax_pathloss(channel_slot),
            )
        return self._exclusion[channel_slot]

    @property
    def e_matrix(self) -> np.ndarray:
        """``E``: the §IV-A1 max-SU-EIRP precompute; built lazily once."""
        if self._e_matrix is None:
            self._e_matrix = initialize_e_matrix(
                self.grid,
                self.transmitters,
                self.params,
                tv_pathloss_for_channel=self.tv_pathloss,
                su_pathloss_for_channel=self.su_pathloss,
                channel_of_slot=lambda slot: self.plan.physical_for_slot(slot).number,
            )
        return self._e_matrix

    # -- convenience ---------------------------------------------------------------

    @property
    def num_channels(self) -> int:
        return self.params.num_channels

    @property
    def num_blocks(self) -> int:
        return self.grid.num_blocks

    def __repr__(self) -> str:
        return (
            f"SpectrumEnvironment(C={self.num_channels}, B={self.num_blocks}, "
            f"towers={len(self.transmitters)})"
        )
