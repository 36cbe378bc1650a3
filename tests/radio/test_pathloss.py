"""Unit tests for the path-loss models."""

import math

import pytest

from repro.errors import RadioError
from repro.radio.pathloss import (
    ExtendedHataModel,
    FreeSpaceModel,
    HataModel,
    LogDistanceModel,
    TwoRayGroundModel,
)

UHF = 600e6  # a mid-band UHF TV frequency
WIFI = 2.437e9


class TestFreeSpace:
    def test_textbook_value(self):
        # FSPL at 2.4 GHz, 100 m: 20·log10(4π·100/0.1249) ≈ 80.1 dB.
        model = FreeSpaceModel(2.4e9)
        assert model.loss_db(100.0) == pytest.approx(80.1, abs=0.2)

    def test_inverse_square_law(self):
        model = FreeSpaceModel(UHF)
        assert model.loss_db(2000.0) - model.loss_db(1000.0) == pytest.approx(
            20.0 * math.log10(2.0)
        )

    def test_gain_in_unit_interval_far_field(self):
        model = FreeSpaceModel(UHF)
        for d in (10.0, 1e3, 1e6):
            assert 0.0 < model.gain_linear(d) < 1.0

    def test_clamps_below_min_distance(self):
        model = FreeSpaceModel(UHF)
        assert model.loss_db(0.0) == model.loss_db(model.min_distance_m)

    def test_negative_distance_raises(self):
        with pytest.raises(RadioError):
            FreeSpaceModel(UHF).loss_db(-1.0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(RadioError):
            FreeSpaceModel(0.0)


class TestSolveDistanceForGain:
    def test_inverts_the_model(self):
        model = FreeSpaceModel(UHF)
        for d in (100.0, 5e3, 2e5):
            gain = model.gain_linear(d)
            recovered = model.solve_distance_for_gain(gain)
            assert recovered == pytest.approx(d, rel=1e-6)

    def test_trivially_reached_at_lower_bound(self):
        model = FreeSpaceModel(UHF)
        assert model.solve_distance_for_gain(1.0, d_low=5.0) == 5.0

    def test_unreachable_gain_raises(self):
        model = FreeSpaceModel(UHF)
        with pytest.raises(RadioError):
            model.solve_distance_for_gain(1e-50, d_high=1e4)

    def test_rejects_non_positive_gain(self):
        with pytest.raises(RadioError):
            FreeSpaceModel(UHF).solve_distance_for_gain(0.0)


class TestLogDistance:
    def test_matches_free_space_at_reference(self):
        model = LogDistanceModel(UHF, exponent=3.5)
        fs = FreeSpaceModel(UHF)
        assert model.loss_db(1.0) == pytest.approx(fs.loss_db(1.0))
        assert model.loss_db(10.0) == pytest.approx(fs.loss_db(1.0) + 35.0)

    def test_exponent_slope(self):
        model = LogDistanceModel(UHF, exponent=3.0)
        assert model.loss_db(1000.0) - model.loss_db(100.0) == pytest.approx(30.0)

    def test_higher_exponent_more_loss(self):
        gentle = LogDistanceModel(UHF, exponent=2.0)
        harsh = LogDistanceModel(UHF, exponent=4.0)
        assert harsh.loss_db(500.0) > gentle.loss_db(500.0)

    def test_rejects_unphysical_exponent(self):
        with pytest.raises(RadioError):
            LogDistanceModel(UHF, exponent=0.5)


class TestTwoRay:
    def test_free_space_before_crossover(self):
        model = TwoRayGroundModel(UHF, tx_height_m=10.0, rx_height_m=2.0)
        fs = FreeSpaceModel(UHF)
        d = model.crossover_m / 2.0
        assert model.loss_db(d) == pytest.approx(fs.loss_db(d))

    def test_fourth_power_after_crossover(self):
        model = TwoRayGroundModel(UHF, tx_height_m=10.0, rx_height_m=2.0)
        d = model.crossover_m * 2.0
        assert model.loss_db(2 * d) - model.loss_db(d) == pytest.approx(
            40.0 * math.log10(2.0)
        )

    def test_rejects_bad_heights(self):
        with pytest.raises(RadioError):
            TwoRayGroundModel(UHF, tx_height_m=0.0, rx_height_m=2.0)


class TestHata:
    def test_monotone_in_distance(self):
        model = HataModel(UHF, base_height_m=100.0)
        losses = [model.loss_db(d) for d in (500, 1000, 5000, 20000)]
        assert losses == sorted(losses)

    def test_taller_base_less_loss(self):
        short = HataModel(UHF, base_height_m=30.0)
        tall = HataModel(UHF, base_height_m=200.0)
        assert tall.loss_db(5000.0) < short.loss_db(5000.0)

    def test_frequency_range_enforced(self):
        with pytest.raises(RadioError):
            HataModel(50e6)
        with pytest.raises(RadioError):
            HataModel(3e9)

    def test_height_ranges_enforced(self):
        with pytest.raises(RadioError):
            HataModel(UHF, base_height_m=500.0)
        with pytest.raises(RadioError):
            HataModel(UHF, mobile_height_m=0.1)


class TestExtendedHata:
    def test_environment_ordering(self):
        """Urban ≥ suburban ≥ rural loss at the same distance."""
        kwargs = dict(base_height_m=100.0, mobile_height_m=2.0)
        urban = ExtendedHataModel(UHF, environment="urban", **kwargs)
        suburban = ExtendedHataModel(UHF, environment="suburban", **kwargs)
        rural = ExtendedHataModel(UHF, environment="rural", **kwargs)
        d = 8000.0
        assert urban.loss_db(d) > suburban.loss_db(d) > rural.loss_db(d)

    def test_urban_reduces_to_hata(self):
        hata = HataModel(UHF, base_height_m=50.0)
        extended = ExtendedHataModel(UHF, base_height_m=50.0, environment="urban")
        assert extended.loss_db(3000.0) == pytest.approx(hata.loss_db(3000.0))

    def test_unknown_environment_rejected(self):
        with pytest.raises(RadioError):
            ExtendedHataModel(UHF, environment="orbital")

    def test_loss_exceeds_free_space_at_range(self):
        model = ExtendedHataModel(UHF, base_height_m=100.0)
        fs = FreeSpaceModel(UHF)
        assert model.loss_db(10_000.0) > fs.loss_db(10_000.0)


class TestCost231Hata:
    def test_frequency_range(self):
        from repro.radio.pathloss import Cost231HataModel

        with pytest.raises(RadioError):
            Cost231HataModel(600e6)  # UHF is classic Hata's territory
        with pytest.raises(RadioError):
            Cost231HataModel(3e9)
        Cost231HataModel(1.8e9)  # PCS band OK
        Cost231HataModel(2.437e9)  # the testbed's WiFi channel 6

    def test_monotone_in_distance(self):
        from repro.radio.pathloss import Cost231HataModel

        model = Cost231HataModel(1.8e9, base_height_m=40.0)
        losses = [model.loss_db(d) for d in (200, 1000, 5000)]
        assert losses == sorted(losses)

    def test_metropolitan_adds_3db(self):
        from repro.radio.pathloss import Cost231HataModel

        suburban = Cost231HataModel(1.8e9)
        metro = Cost231HataModel(1.8e9, metropolitan=True)
        assert metro.loss_db(2000.0) == pytest.approx(
            suburban.loss_db(2000.0) + 3.0
        )

    def test_more_loss_than_uhf_hata(self):
        """2 GHz propagates worse than UHF at the same geometry."""
        from repro.radio.pathloss import Cost231HataModel

        uhf = HataModel(900e6, base_height_m=40.0)
        pcs = Cost231HataModel(1.8e9, base_height_m=40.0)
        assert pcs.loss_db(3000.0) > uhf.loss_db(3000.0)

    def test_height_validation(self):
        from repro.radio.pathloss import Cost231HataModel

        with pytest.raises(RadioError):
            Cost231HataModel(1.8e9, base_height_m=0.5)
        with pytest.raises(RadioError):
            Cost231HataModel(1.8e9, mobile_height_m=30.0)
