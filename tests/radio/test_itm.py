"""Unit tests for the simplified irregular-terrain model."""

import numpy as np
import pytest

from repro.errors import RadioError
from repro.radio import itm
from repro.radio.itm import IrregularTerrainModel
from repro.radio.pathloss import FreeSpaceModel
from repro.radio.terrain import SyntheticTerrain

UHF = 600e6


@pytest.fixture(scope="module")
def terrain():
    return SyntheticTerrain(size_m=10_000.0, relief_m=120.0, seed=7)


@pytest.fixture(scope="module")
def model(terrain):
    return IrregularTerrainModel(UHF, terrain, tx_height_m=100.0, rx_height_m=10.0)


class TestDistanceInterface:
    def test_loss_at_least_free_space(self, model):
        fs = FreeSpaceModel(UHF)
        for d in (100.0, 1e3, 9e3):
            assert model.loss_db(d) >= fs.loss_db(d)

    def test_monotone_in_distance(self, model):
        losses = [model.loss_db(d) for d in (100.0, 1e3, 5e3, 9e3)]
        assert losses == sorted(losses)

    def test_climate_loss_adds(self, terrain, monkeypatch):
        model = IrregularTerrainModel(UHF, terrain)
        base = model.loss_db(1000.0)
        monkeypatch.setattr(itm, "CLIMATE_LOSS_DB", 3.0)
        assert model.loss_db(1000.0) == pytest.approx(base + 3.0)

    def test_rejects_bad_heights(self, terrain):
        with pytest.raises(RadioError):
            IrregularTerrainModel(UHF, terrain, tx_height_m=0.0)


class TestPointToPoint:
    def test_loss_at_least_free_space(self, model):
        fs = FreeSpaceModel(UHF)
        tx, rx = (1000.0, 1000.0), (8000.0, 7000.0)
        d = np.hypot(tx[0] - rx[0], tx[1] - rx[1])
        assert model.loss_between_db(tx, rx) >= fs.loss_db(d)

    def test_gain_is_consistent(self, model):
        tx, rx = (500.0, 500.0), (5000.0, 5000.0)
        loss = model.loss_between_db(tx, rx)
        assert model.gain_between(tx, rx) == pytest.approx(10 ** (-loss / 10))

    def test_blocked_path_loses_more_than_flat(self):
        """A ridge across the path should add diffraction loss."""
        flat = SyntheticTerrain(size_m=5000.0, relief_m=0.5, seed=0)
        hilly = SyntheticTerrain(size_m=5000.0, relief_m=300.0, seed=0)
        low = IrregularTerrainModel(UHF, flat, tx_height_m=10.0, rx_height_m=2.0)
        high = IrregularTerrainModel(UHF, hilly, tx_height_m=10.0, rx_height_m=2.0)
        tx, rx = (100.0, 2500.0), (4900.0, 2500.0)
        assert high.loss_between_db(tx, rx) > low.loss_between_db(tx, rx)


class TestDiffractionComponent:
    def test_clear_path_no_diffraction(self, model):
        profile = np.zeros(16)  # flat ground far below both antennas
        assert model._diffraction_loss_db(profile, 1000.0) == 0.0

    def test_obstruction_produces_loss(self, model):
        profile = np.zeros(17)
        profile[8] = 500.0  # a spike well above the LoS ray
        assert model._diffraction_loss_db(profile, 1000.0) > 6.0
