"""Unit tests for the simulator's service-cost model."""

import pytest

from repro.analysis.scaling import PaillierCostProfile
from repro.errors import ConfigurationError
from repro.sim.costmodel import ServiceCostModel, paper_profile

#: Table II's GMP numbers — the "paper hardware" profile.
PAPER_PROFILE = PaillierCostProfile(
    key_bits=2048,
    encryption_s=0.030378,
    decryption_s=0.021170,
    hom_add_s=4e-6,
    hom_sub_s=7.3e-5,
    hom_scale_small_s=1.564e-3,
    hom_scale_full_s=0.018867,
    rerandomize_s=0.030,
)


class TestServiceCosts:
    def test_matches_paper_processing_time(self):
        """With Table II's primitives the modelled SDC time should land
        near the paper's ≈219 s Figure 6 number."""
        model = ServiceCostModel(PAPER_PROFILE, num_channels=100, num_blocks=600)
        assert 100 < model.costs.sdc_per_request_s < 400

    def test_preparation_matches_paper_order(self):
        """Fresh preparation ≈ cells × encryption ≈ 1800 s with Table II
        constants (the paper's 221 s additionally skips cells beyond
        d^c; see EXPERIMENTS.md)."""
        model = ServiceCostModel(PAPER_PROFILE, num_channels=100, num_blocks=600)
        assert model.costs.su_prepare_s == pytest.approx(
            60_000 * PAPER_PROFILE.encryption_s
        )

    def test_refresh_is_cheap(self):
        model = ServiceCostModel(PAPER_PROFILE, num_channels=100, num_blocks=600)
        assert model.costs.su_refresh_s < model.costs.su_prepare_s / 100

    def test_packing_divides_heavy_phases(self):
        base = ServiceCostModel(PAPER_PROFILE, 100, 600)
        packed = ServiceCostModel(PAPER_PROFILE, 100, 600, packing_factor=12)
        assert packed.costs.su_prepare_s == pytest.approx(
            base.costs.su_prepare_s / 12
        )
        # The baseline opens a cell with one CRT half, a packed chunk with
        # a full decryption (its slots span n).
        profile = PAPER_PROFILE
        assert base.costs.stp_convert_s == pytest.approx(
            60_000 * (profile.decryption_s / 2 + profile.encryption_s)
        )
        assert packed.costs.stp_convert_s == pytest.approx(
            60_000 / 12 * (profile.decryption_s + profile.encryption_s)
        )
        assert packed.request_bytes == base.request_bytes // 12

    def test_saturation_rate(self):
        model = ServiceCostModel(PAPER_PROFILE, 100, 600)
        assert model.saturation_rate_per_hour() == pytest.approx(
            3600.0 / model.costs.sdc_per_request_s
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceCostModel(PAPER_PROFILE, 100, 600, packing_factor=0)


class TestBenchSeeding:
    """The model's only seed is a cost profile; ``paper_profile()`` is Table II."""

    def test_paper_profile_matches_table_ii(self):
        profile = paper_profile()
        assert profile.key_bits == 2048
        assert profile.encryption_s == PAPER_PROFILE.encryption_s
        assert profile.rerandomize_s == PAPER_PROFILE.rerandomize_s
