"""Service-time model for the deployment simulator.

Simulating thousands of requests cannot run real 2048-bit crypto per
event; instead, each protocol phase gets a *service time* derived from
the same measured primitive profile that the Figure 6 extrapolation
uses.  The phase decomposition mirrors
:func:`repro.analysis.scaling.estimate_full_scale` exactly, so simulator
capacity numbers and benchmark projections are mutually consistent.

A model is seeded by a :class:`PaillierCostProfile` and nothing else:
:func:`paper_profile` (Table II, the paper's hardware) or
:func:`repro.analysis.scaling.measure_cost_profile` (this machine, at
the real key size).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.scaling import PaillierCostProfile, estimate_full_scale
from repro.errors import ConfigurationError

__all__ = ["PhaseCosts", "ServiceCostModel", "paper_profile"]


def paper_profile() -> PaillierCostProfile:
    """Table II's measured primitive times on the paper's hardware."""
    return PaillierCostProfile(
        key_bits=2048, encryption_s=0.030378, decryption_s=0.021170,
        hom_add_s=4e-6, hom_sub_s=7.3e-5, hom_scale_small_s=1.564e-3,
        hom_scale_full_s=0.018867, rerandomize_s=0.030,
    )


@dataclass(frozen=True)
class PhaseCosts:
    """Seconds of service per protocol phase for one operation."""

    su_prepare_s: float
    su_refresh_s: float
    sdc_phase1_s: float
    stp_convert_s: float
    sdc_phase2_s: float
    su_decrypt_s: float
    pu_prepare_s: float
    sdc_pu_update_s: float

    @property
    def sdc_per_request_s(self) -> float:
        return self.sdc_phase1_s + self.sdc_phase2_s


class ServiceCostModel:
    """Derives per-phase service times from a measured cost profile.

    ``packing_factor`` models the packed-mode extension: phases that are
    per-cell (preparation, STP conversion) divide by ``k``; phases with
    per-cell *and* per-chunk parts use the same factor as a first-order
    model.  A packed chunk's slots span ``n``, so its STP opening is a
    full decryption, where the baseline opens a cell with one CRT half.
    """

    def __init__(
        self,
        profile: PaillierCostProfile,
        num_channels: int,
        num_blocks: int,
        packing_factor: int = 1,
    ) -> None:
        if packing_factor < 1:
            raise ConfigurationError("packing_factor must be ≥ 1")
        self.profile = profile
        self.num_channels = num_channels
        self.num_blocks = num_blocks
        self.packing_factor = packing_factor
        estimate = estimate_full_scale(
            profile, num_channels=num_channels, num_blocks=num_blocks
        )
        k = packing_factor
        stp_convert_s = estimate.stp_conversion_s
        if k > 1:
            cells = num_channels * num_blocks
            stp_convert_s = cells * (profile.decryption_s + profile.encryption_s) / k
        # Phase 2 is the cheap ΣQ̃ accumulation (one multiplication per
        # cell, one inverse per request) plus the license.
        phase2 = estimate.sdc_phase2_s
        self.costs = PhaseCosts(
            su_prepare_s=estimate.request_preparation_s / k,
            su_refresh_s=estimate.request_refresh_s / k,
            sdc_phase1_s=(estimate.sdc_processing_s - phase2) / k,
            stp_convert_s=stp_convert_s,
            sdc_phase2_s=phase2 / k,
            su_decrypt_s=profile.decryption_s,
            pu_prepare_s=estimate.pu_update_prepare_s,
            sdc_pu_update_s=estimate.sdc_pu_update_s,
        )
        self._estimate = estimate

    # -- wire sizes (for the simulator's link) -------------------------------

    @property
    def request_bytes(self) -> int:
        """One request's ciphertext matrix: what the SU sends the SDC and
        each of the SDC ↔ STP legs carries."""
        return self._estimate.su_request_bytes // self.packing_factor

    @property
    def pu_update_bytes(self) -> int:
        return self._estimate.pu_update_bytes

    @property
    def response_bytes(self) -> int:
        return self._estimate.response_bytes

    def saturation_rate_per_hour(self) -> float:
        """Arrival rate at which the busier server's utilisation reaches 1.

        Each request occupies the SDC for both of its phases and the STP
        for one conversion; the deployment saturates at whichever is
        slower (the STP at Table II, unpacked and packed alike).
        """
        return 3600.0 / max(self.costs.sdc_per_request_s, self.costs.stp_convert_s)
