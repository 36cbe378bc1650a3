"""The link latency model of the deployment simulator.

The protocol's round-trip structure (SU → SDC → STP → SDC → SU) makes
communication rounds a first-class cost — the paper's future work
explicitly targets "a protocol that requires less communication rounds
and latency".  :class:`repro.sim.simulator.DeploymentSimulator` turns
the byte counts of a round into transfer time with this model.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConstantLatency"]


@dataclass(frozen=True)
class ConstantLatency:
    """Fixed propagation delay plus bandwidth-limited serialisation.

    ``delay = rtt/2 + size / bandwidth`` — the classic first-order model.
    Defaults approximate a broadband WAN hop: 20 ms RTT, 100 Mbit/s.
    """

    rtt_seconds: float = 0.020
    bandwidth_bytes_per_s: float = 100e6 / 8

    def delay_seconds(self, size_bytes: int, sender: str, receiver: str) -> float:
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        return self.rtt_seconds / 2.0 + size_bytes / self.bandwidth_bytes_per_s
