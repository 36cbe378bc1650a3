"""Deterministic scenario generation for tests, examples, and benchmarks.

Generates populations of TV towers, PUs, and SUs over a service area,
seeded for reproducibility.  The default magnitudes follow the paper's
setting (Table I: 100 PUs, 600 blocks, 100 channels) scaled down by the
caller where 2048-bit Paillier makes full scale impractical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.grid import BlockGrid
from repro.radio.antenna import Antenna
from repro.watch.entities import PUReceiver, SUTransmitter, TVTransmitter
from repro.watch.environment import SpectrumEnvironment
from repro.watch.params import WatchParameters
from repro.watch.system import received_tv_signal_mw

__all__ = ["ScenarioConfig", "Scenario", "build_scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for :func:`build_scenario`.

    The defaults produce a small, fast scenario; pass
    ``ScenarioConfig.paper_scale()`` for Table I magnitudes.
    """

    grid_rows: int = 4
    grid_cols: int = 6
    block_size_m: float = 10.0
    num_channels: int = 5
    num_towers: int = 2
    num_pus: int = 3
    num_sus: int = 2
    #: 16 dBm sits near the grant/deny boundary of the default dense
    #: grid, so generated populations exercise both outcomes.
    su_tx_power_dbm: float = 16.0
    seed: int = 0

    @classmethod
    def paper_scale(cls, seed: int = 0) -> "ScenarioConfig":
        """Table I: 600 blocks (20x30), 100 channels, 100 PUs."""
        return cls(
            grid_rows=20,
            grid_cols=30,
            num_channels=100,
            num_towers=8,
            num_pus=100,
            num_sus=10,
            seed=seed,
        )

    def __post_init__(self) -> None:
        if self.num_pus > self.grid_rows * self.grid_cols:
            raise ConfigurationError("more PUs than blocks (one PU per block here)")


@dataclass
class Scenario:
    """A generated deployment: substrate plus entity populations."""

    config: ScenarioConfig
    environment: SpectrumEnvironment
    towers: list[TVTransmitter]
    pus: list[PUReceiver]
    sus: list[SUTransmitter]

    @property
    def grid(self) -> BlockGrid:
        return self.environment.grid

    @property
    def params(self) -> WatchParameters:
        return self.environment.params


def build_scenario(config: ScenarioConfig | None = None) -> Scenario:
    """Build a deterministic scenario from a config.

    * Towers sit just outside the service area (TV towers serve a city
      from its periphery) on distinct channel slots, with 100 kW-class
      EIRP.
    * Each PU occupies a distinct block (the paper assumes at most one
      PU per block for notation simplicity, §IV-A2) and tunes to a slot
      served by some tower; its mean signal strength comes from the
      coverage model.
    * SUs are placed uniformly at random with the configured power.
    """
    config = config or ScenarioConfig()
    rng = np.random.default_rng(config.seed)
    grid = BlockGrid(
        rows=config.grid_rows, cols=config.grid_cols, block_size_m=config.block_size_m
    )
    params = WatchParameters(num_channels=config.num_channels)

    towers = []
    for t in range(config.num_towers):
        angle = 2.0 * np.pi * t / max(1, config.num_towers) + rng.uniform(0, 0.3)
        # Broadcast towers serve the area from kilometres away; the
        # received TV signal then lands in the realistic -40..-25 dBm
        # range under the Extended Hata coverage model.
        radius = float(rng.uniform(5_000.0, 15_000.0))
        towers.append(
            TVTransmitter(
                transmitter_id=f"tower-{t}",
                x_m=grid.width_m / 2 + radius * float(np.cos(angle)),
                y_m=grid.height_m / 2 + radius * float(np.sin(angle)),
                channel_slot=int(rng.integers(0, config.num_channels)),
                eirp_dbm=float(rng.uniform(75.0, 85.0)),
            )
        )

    environment = SpectrumEnvironment(grid, params, transmitters=towers)

    tower_slots = sorted({tower.channel_slot for tower in towers})
    pu_blocks = rng.choice(grid.num_blocks, size=config.num_pus, replace=False)
    pus = []
    for index, block in enumerate(pu_blocks):
        slot = int(tower_slots[int(rng.integers(0, len(tower_slots)))])
        signal = received_tv_signal_mw(environment, int(block), slot)
        pus.append(
            PUReceiver(
                receiver_id=f"pu-{index}",
                block_index=int(block),
                channel_slot=slot,
                signal_strength_mw=signal,
            )
        )

    sus = [
        SUTransmitter(
            su_id=f"su-{index}",
            block_index=int(rng.integers(0, grid.num_blocks)),
            tx_power_dbm=config.su_tx_power_dbm,
            antenna=Antenna(gain_dbi=2.0, height_m=2.0 + float(rng.uniform(0, 8))),
        )
        for index in range(config.num_sus)
    ]

    return Scenario(
        config=config, environment=environment, towers=towers, pus=pus, sus=sus
    )
