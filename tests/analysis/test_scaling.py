"""Unit tests for cost profiling and full-scale extrapolation."""

import pytest

from repro.analysis.scaling import (
    PaillierCostProfile,
    estimate_full_scale,
    measure_cost_profile,
)
from repro.crypto.rand import DeterministicRandomSource


@pytest.fixture(scope="module")
def profile(keypair):
    return measure_cost_profile(
        keypair=keypair, iterations=5, rng=DeterministicRandomSource("profile")
    )


class TestProfileMeasurement:
    def test_all_positive(self, profile):
        assert profile.encryption_s > 0
        assert profile.decryption_s > 0
        assert profile.hom_add_s > 0
        assert profile.hom_scale_full_s > 0

    def test_cost_ordering(self, profile):
        """Table II's shape: addition ≪ scaling ≤ encryption-class ops."""
        assert profile.hom_add_s < profile.hom_scale_small_s
        assert profile.hom_scale_small_s < profile.hom_scale_full_s

    def test_key_bits_recorded(self, profile, keypair):
        assert profile.key_bits == keypair.public_key.key_bits

    def test_table_rows(self, profile):
        rows = dict(profile.as_table_rows())
        assert rows["Ciphertext size"] == f"{2 * profile.key_bits} bits"
        assert "ms" in rows["Encryption"]


class TestExtrapolation:
    def test_scales_linearly_in_cells(self, profile):
        small = estimate_full_scale(profile, num_channels=10, num_blocks=60)
        large = estimate_full_scale(profile, num_channels=100, num_blocks=60)
        assert large.request_preparation_s == pytest.approx(
            10 * small.request_preparation_s
        )

    def test_paper_shape(self, profile):
        """Figure 6's qualitative shape must survive extrapolation:
        preparation and processing are comparable and both dwarf the PU
        update; the response is a single ciphertext."""
        est = estimate_full_scale(profile)
        assert est.request_preparation_s > 50 * est.pu_update_prepare_s
        assert est.sdc_processing_s > 50 * est.sdc_pu_update_s
        ratio = est.sdc_processing_s / est.request_preparation_s
        assert 0.2 < ratio < 20.0
        assert est.response_bytes < 10_000
        assert est.su_request_bytes > 1_000_000

    def test_request_size_formula(self, profile):
        est = estimate_full_scale(profile, num_channels=100, num_blocks=600)
        ct_bytes = 4 + (2 * profile.key_bits + 7) // 8
        assert est.su_request_bytes == 60_000 * ct_bytes
        assert est.pu_update_bytes == 100 * ct_bytes

    def test_table_rows(self, profile):
        rows = estimate_full_scale(profile).as_table_rows()
        assert len(rows) == 9
