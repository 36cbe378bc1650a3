"""Unit tests for the FHE cost model."""

import pytest

from repro.baselines import fhe_costmodel
from repro.baselines.fhe_costmodel import (
    GHS_MB_PER_BLOCK,
    GHS_SECONDS_PER_BLOCK,
    FheCostModel,
)
from repro.errors import ConfigurationError


class TestBlocks:
    def test_exact_division(self):
        model = FheCostModel()
        # 100 channels × 600 blocks × 60 bits / 128 = 28125 blocks.
        assert model.blocks_for_matrix(100, 600, 60) == 28_125

    def test_rounds_up(self):
        model = FheCostModel()
        assert model.blocks_for_matrix(1, 1, 1) == 1
        assert model.blocks_for_matrix(1, 1, 129) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FheCostModel().blocks_for_matrix(0, 1, 1)


class TestEstimates:
    def test_paper_scale_is_impractical(self):
        """The point of §VI-A's comparison: generic FHE takes days/TBs."""
        est = FheCostModel().estimate_request(100, 600, 60)
        assert est.time_hours > 24  # vs PISA's ≈4 min processing
        assert est.memory_mb > 100_000  # hundreds of GB

    def test_linear_in_cells(self):
        model = FheCostModel()
        small = model.estimate_request(10, 60, 60)
        large = model.estimate_request(100, 60, 60)
        assert large.time_seconds == pytest.approx(10 * small.time_seconds, rel=0.01)

    def test_constants_from_citation(self):
        est = FheCostModel().estimate_request(1, 1, 128)
        assert est.time_seconds == pytest.approx(GHS_SECONDS_PER_BLOCK)
        assert est.memory_mb == pytest.approx(GHS_MB_PER_BLOCK)

    def test_custom_constants(self, monkeypatch):
        monkeypatch.setattr(fhe_costmodel, "GHS_SECONDS_PER_BLOCK", 1.0)
        monkeypatch.setattr(fhe_costmodel, "GHS_MB_PER_BLOCK", 2.0)
        est = FheCostModel().estimate_request(1, 1, 128)
        assert est.time_seconds == 1.0
        assert est.memory_mb == 2.0
