"""Extrapolation of measured primitive costs to the paper's full scale.

The paper's Figure 6 numbers come from C·B = 60 000 Paillier operations
per request at n = 2048 on a GMP-backed prototype.  The same code path
here runs on libgmp where the host has it (:mod:`repro.crypto.backend`;
exponentiation-bound primitives ≈ 2-8x faster than Table II's on this
box) and on builtin ``pow`` where not (≈ 1.2-5x slower than Table II's);
either way a full-scale request is tens of minutes to hours, too long
for a benchmark suite.  Instead:

1. :func:`measure_cost_profile` times each Paillier primitive *at the
   real key size* (this is exactly Table II, and is fast — microseconds
   to ≈100 ms per op);
2. :func:`estimate_full_scale` multiplies the per-cell operation counts
   of each protocol phase by the measured primitive costs and the target
   matrix size.

Every estimate is reported next to the actually-measured small-scale
end-to-end time, so the reader can see both the real measurement and
the projection.  The per-phase operation counts below mirror the
implementation in :mod:`repro.pisa` one-to-one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto.paillier import PaillierKeypair, generate_keypair
from repro.crypto.rand import RandomSource, default_rng
from repro.watch.params import PaperSettings

__all__ = [
    "PaillierCostProfile",
    "ScaledSystemEstimate",
    "measure_cost_profile",
    "estimate_full_scale",
]


@dataclass(frozen=True)
class PaillierCostProfile:
    """Measured per-operation costs (seconds) at a given key size.

    The fields map onto Table II of the paper.
    """

    key_bits: int
    encryption_s: float
    decryption_s: float
    hom_add_s: float
    hom_sub_s: float
    hom_scale_small_s: float  # 100-bit constant (Table II's "100-bit")
    hom_scale_full_s: float   # full-width constant
    rerandomize_s: float

    def as_table_rows(self) -> list[tuple[str, str]]:
        rows = [
            ("Public key size", f"{2 * self.key_bits} bits"),
            ("Secret key size", f"{2 * self.key_bits} bits"),
            ("Plaintext message size", f"{self.key_bits} bits"),
            ("Ciphertext size", f"{2 * self.key_bits} bits"),
            ("Encryption", f"{self.encryption_s * 1e3:.3f} ms"),
            ("Decryption", f"{self.decryption_s * 1e3:.3f} ms"),
            ("Homomorphic addition", f"{self.hom_add_s * 1e3:.3f} ms"),
            ("Homomorphic subtraction", f"{self.hom_sub_s * 1e3:.3f} ms"),
            ("Homomorphic scale (100-bit constant)", f"{self.hom_scale_small_s * 1e3:.3f} ms"),
            ("Homomorphic scale", f"{self.hom_scale_full_s * 1e3:.3f} ms"),
            ("Re-randomisation", f"{self.rerandomize_s * 1e3:.3f} ms"),
        ]
        return rows


def _time_op(fn, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def measure_cost_profile(
    key_bits: int = 2048,
    iterations: int = 30,
    keypair: PaillierKeypair | None = None,
    rng: RandomSource | None = None,
) -> PaillierCostProfile:
    """Benchmark the Paillier primitives — Table II's methodology.

    The paper averages 30 iterations; heavier ops are scaled down
    proportionally so the whole profile completes in seconds.
    """
    rng = default_rng(rng)
    keypair = keypair or generate_keypair(key_bits, rng=rng)
    pk, sk = keypair.public_key, keypair.private_key
    heavy_iters = max(3, iterations // 6)

    ct_a = pk.encrypt(123456789, rng=rng)
    ct_b = pk.encrypt(987654321, rng=rng)
    small_scalar = rng.randbits(100) | 1
    full_scalar = rng.randbits(pk.key_bits) | 1

    return PaillierCostProfile(
        key_bits=pk.key_bits,
        encryption_s=_time_op(lambda: pk.encrypt(42, rng=rng), heavy_iters),
        decryption_s=_time_op(lambda: sk.decrypt(ct_a), iterations),
        hom_add_s=_time_op(lambda: ct_a.add(ct_b), iterations),
        hom_sub_s=_time_op(lambda: ct_a.subtract(ct_b), iterations),
        hom_scale_small_s=_time_op(lambda: ct_a.scalar_mul(small_scalar), iterations),
        hom_scale_full_s=_time_op(lambda: ct_a.scalar_mul(full_scalar), heavy_iters),
        rerandomize_s=_time_op(lambda: ct_a.rerandomize(rng), heavy_iters),
    )


@dataclass(frozen=True)
class ScaledSystemEstimate:
    """Projected full-scale costs of each Figure 6 phase (seconds/bytes)."""

    num_channels: int
    num_blocks: int
    key_bits: int
    request_preparation_s: float
    request_refresh_s: float
    sdc_processing_s: float
    #: The phase-2 share of ``sdc_processing_s`` (ΣQ̃, SG̃ and η ⊗ ΣQ̃).
    sdc_phase2_s: float
    stp_conversion_s: float
    pu_update_prepare_s: float
    sdc_pu_update_s: float
    su_request_bytes: int
    pu_update_bytes: int
    response_bytes: int

    def as_table_rows(self) -> list[tuple[str, str]]:
        return [
            ("SU request preparation", f"{self.request_preparation_s:.1f} s"),
            ("SU request refresh (re-randomise)", f"{self.request_refresh_s:.1f} s"),
            ("SDC request processing", f"{self.sdc_processing_s:.1f} s"),
            ("STP sign extraction + conversion", f"{self.stp_conversion_s:.1f} s"),
            ("PU update preparation", f"{self.pu_update_prepare_s:.2f} s"),
            ("SDC per PU update", f"{self.sdc_pu_update_s:.2f} s"),
            ("SU request size", f"{self.su_request_bytes / 1e6:.1f} MB"),
            ("PU update size", f"{self.pu_update_bytes / 1e6:.3f} MB"),
            ("Response size", f"{self.response_bytes * 8 / 1e3:.1f} kbit"),
        ]


def estimate_full_scale(
    profile: PaillierCostProfile,
    num_channels: int = 100,
    num_blocks: int = 600,
) -> ScaledSystemEstimate:
    """Project Figure 6's phases from a measured primitive profile.

    Per-cell operation counts (mirroring :mod:`repro.pisa.kernel`, which
    executes eqs. (10)-(16) in closed form):

    * SU preparation: 1 encryption per cell (eq. (5) arithmetic is
      negligible next to the exponentiation);
    * SU refresh: 1 re-randomisation per cell;
    * SDC phase 1: ``F^{−εαΔ}`` — one ≈110-bit scaling, with a
      subtraction-cost inverse inside it on the half of the cells where
      ε = +1 — and one multiplication by ``g^{ε(αE−β)}``, no encryption;
      on each PU-occupied cell (at most Table I's 100 PUs' blocks × every
      channel) ``W^{εα}`` adds another scaling, an inverse where ε = −1
      and a multiplication;
    * SDC phase 2: one multiplication per cell into ``Π₊X`` or ``Π₋X``,
      then per request one inverse, one plain addition (``g^{−k}``), the
      SG̃ encryption and one full-width η-scale;
    * STP: one CRT half (half a decryption: ``c^{p−1} mod p²``) and one
      encryption per cell — the blinding keeps ``|V|`` below ``p/2``;
    * PU update: one encryption per channel client-side; SDC folds it in
      with one addition per channel (plus one subtraction when
      replacing).
    """
    cells = num_channels * num_blocks
    occupied = min(PaperSettings.num_pus, num_blocks) * num_channels
    ct_bytes = 4 + (2 * profile.key_bits + 7) // 8

    exponentiation = (
        profile.hom_scale_small_s      # (εα) ⊗, α ≈ 100 bits
        + profile.hom_sub_s / 2        # its inverse, on half the cells
        + profile.hom_add_s            # one multiplication into the cell
    )
    sdc_phase1 = (cells + occupied) * exponentiation
    sdc_phase2 = (
        cells * profile.hom_add_s      # × X into Π₊X or Π₋X
        + profile.hom_sub_s            # (Π₋X)^{−1}
        + profile.hom_add_s            # ⊖ k·1̃, a plaintext constant
        + profile.encryption_s         # SG̃
        + profile.hom_scale_full_s     # η ⊗ ΣQ̃
    )
    return ScaledSystemEstimate(
        num_channels=num_channels,
        num_blocks=num_blocks,
        key_bits=profile.key_bits,
        request_preparation_s=cells * profile.encryption_s,
        # Refresh with PRECOMPUTED obfuscators is one multiplication per
        # ciphertext — the same cost class as homomorphic addition
        # (§VI-A); the h_n^s exponentiations happen offline.
        request_refresh_s=cells * profile.hom_add_s,
        sdc_processing_s=sdc_phase1 + sdc_phase2,
        sdc_phase2_s=sdc_phase2,
        stp_conversion_s=cells * (profile.decryption_s / 2 + profile.encryption_s),
        pu_update_prepare_s=num_channels * profile.encryption_s,
        sdc_pu_update_s=num_channels * (profile.hom_add_s + profile.hom_sub_s),
        su_request_bytes=cells * ct_bytes,
        pu_update_bytes=num_channels * ct_bytes,
        response_bytes=ct_bytes,
    )
