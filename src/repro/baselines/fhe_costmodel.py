"""Generic-FHE cost model.

§VI-A argues PISA's ≈minutes-scale costs are "acceptable and practical"
*compared to generic methods based on fully homomorphic encryptions*,
citing the homomorphic-AES measurements of Gentry–Halevi–Smart [21]:
"computing AES circuit over encrypted data will take ≈5.8 seconds and
will use ≈21 MB of memory per 128-bit input message".

We cannot run an FHE library offline (and the paper didn't either — it
cites published constants), so the comparison benchmark uses this cost
model: it counts the 128-bit blocks a generic FHE evaluation of the
spectrum-allocation circuit would process, and scales the cited per-block
constants.  The model is deliberately *generous* to FHE — it charges one
AES-equivalent circuit per block of the input matrix and nothing for the
comparison sub-circuits, so the reported gap is a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["FheCostEstimate", "FheCostModel"]

#: [21] Gentry, Halevi, Smart, "Homomorphic evaluation of the AES
#: circuit": ≈5.8 s amortised per 128-bit block.
GHS_SECONDS_PER_BLOCK = 5.8
#: [21]: ≈21 MB of memory per 128-bit input message.
GHS_MB_PER_BLOCK = 21.0
BITS_PER_BLOCK = 128


@dataclass(frozen=True)
class FheCostEstimate:
    """Estimated cost of one generic-FHE protocol execution."""

    input_blocks: int
    time_seconds: float
    memory_mb: float

    @property
    def time_hours(self) -> float:
        return self.time_seconds / 3600.0


class FheCostModel:
    """Scale the cited per-block constants to a PISA-sized workload."""


    def blocks_for_matrix(self, num_channels: int, num_blocks: int, value_bits: int) -> int:
        """128-bit blocks needed to carry a C × B matrix of ℓ-bit values."""
        if num_channels < 1 or num_blocks < 1 or value_bits < 1:
            raise ConfigurationError("matrix dimensions must be positive")
        total_bits = num_channels * num_blocks * value_bits
        return math.ceil(total_bits / BITS_PER_BLOCK)

    def estimate_request(
        self, num_channels: int, num_blocks: int, value_bits: int
    ) -> FheCostEstimate:
        """Cost to process one SU transmission request under generic FHE.

        One circuit evaluation per input block of the request matrix —
        the budget matrix, blinding, and comparison circuits are charged
        nothing, so this under-estimates real FHE cost.
        """
        blocks = self.blocks_for_matrix(num_channels, num_blocks, value_bits)
        return FheCostEstimate(
            input_blocks=blocks,
            time_seconds=blocks * GHS_SECONDS_PER_BLOCK,
            memory_mb=blocks * GHS_MB_PER_BLOCK,
        )
