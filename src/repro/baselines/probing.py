"""The Bahrak et al. probing attack (§II) — and what PISA changes.

Related work the paper builds on: "a malicious SU can determine the
types and locations of a PU in a given region of interest by sending
seemingly innocuous queries" to the spectrum database.  This module
implements that attack against our substrate to make the threat model
concrete:

* :class:`ProbingAttack` issues probe requests over a (block × channel)
  sweep and reconstructs active-PU locations and channels from the
  grant/deny pattern — near-perfect against any system that answers
  honest queries, because the *decisions themselves* carry the
  information.
* :func:`sdc_breach_view` contrasts what a *breached database* leaks:
  the plaintext WATCH SDC stores every PU's channel and signal in the
  clear; the PISA SDC stores only ciphertexts, so the same breach
  yields nothing (demonstrated by a guess-the-channel experiment).

The honest conclusion, matching the paper's scope: PISA eliminates the
*database* as an information source (its §V guarantee), while
decision-probing by a licensed adversary remains possible in any
allocation system and must be handled by policy (licensing cost,
rate limiting, obfuscation à la Bahrak).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.watch.entities import PUReceiver, SUTransmitter
from repro.watch.environment import SpectrumEnvironment
from repro.watch.sdc import PlaintextSDC

__all__ = ["ProbeReport", "ProbingAttack", "sdc_breach_view"]


@dataclass(frozen=True)
class ProbeReport:
    """What the probing adversary reconstructed."""

    probes_used: int
    #: (channel, block) cells the attacker believes host an active PU.
    inferred_cells: frozenset[tuple[int, int]]
    #: Ground-truth active cells, for scoring.
    true_cells: frozenset[tuple[int, int]]

    @property
    def precision(self) -> float:
        if not self.inferred_cells:
            return 1.0 if not self.true_cells else 0.0
        return len(self.inferred_cells & self.true_cells) / len(self.inferred_cells)

    @property
    def recall(self) -> float:
        if not self.true_cells:
            return 1.0
        return len(self.inferred_cells & self.true_cells) / len(self.true_cells)


class ProbingAttack:
    """Decision-oracle probing: infer PU cells from grant/deny patterns.

    Strategy (a simplified Bahrak sweep): for every channel, probe each
    block at a power low enough not to trip empty-block caps but high
    enough to trip a co-located PU's budget.  A deny at (c, b) with the
    calibration probe granted elsewhere marks a suspected PU.  The
    decision oracle is whatever answers requests — for PISA that means
    the attacker must be an *enrolled SU* actually receiving licenses;
    the breached-SDC path this attack needs in the plaintext system is
    gone (see :func:`sdc_breach_view`).
    """

    def __init__(
        self,
        environment: SpectrumEnvironment,
        decision_oracle,
        probe_power_dbm: float = 10.0,
    ) -> None:
        self.environment = environment
        self._decide = decision_oracle
        self.probe_power_dbm = probe_power_dbm
        self.probes_used = 0

    def _probe(self, block: int, channel: int) -> bool:
        self.probes_used += 1
        su = SUTransmitter(
            su_id=f"attacker-{self.probes_used}",
            block_index=block,
            tx_power_dbm=self.probe_power_dbm,
        )
        return self._decide(su, channel)

    def sweep(self, active_pus: list[PUReceiver]) -> ProbeReport:
        """Probe every (channel, block) cell and reconstruct PU cells.

        A denial is attributed to the nearest block actually hosting the
        budget violation — since a probe's interference is strongest in
        its own block, a deny at (c, b) flags (c, b) itself.
        """
        env = self.environment
        inferred = set()
        for channel in range(env.num_channels):
            for block in range(env.num_blocks):
                if not self._probe(block, channel):
                    inferred.add((channel, block))
        # Denials cluster around PUs; keep local minima (the block whose
        # neighbours are also denied is interior — the PU cell).  For
        # the simplified scorer we report the raw denial set.
        true_cells = frozenset(
            (pu.channel_slot, pu.block_index)
            for pu in active_pus
            if pu.is_active
        )
        return ProbeReport(
            probes_used=self.probes_used,
            inferred_cells=frozenset(inferred),
            true_cells=true_cells,
        )


def sdc_breach_view(
    environment: SpectrumEnvironment,
    pus: list[PUReceiver],
    coordinator=None,
    guesses: int = 1,
) -> dict[str, float]:
    """Compare what a breached SDC learns under WATCH vs under PISA.

    Returns per-system channel-recovery accuracy for the first PU:

    * ``watch``: read the budget matrix; the PU's channel is the cell
      differing from ``E`` — accuracy 1.0 by construction.
    * ``pisa``: the stored state is ciphertext; the best available
      strategy is guessing among C channels — expected accuracy 1/C,
      measured here by literally attempting the read.
    """
    env = environment
    target = pus[0]

    watch_sdc = PlaintextSDC(env)
    for pu in pus:
        watch_sdc.pu_update(pu)
    budget = watch_sdc.budget
    watch_recovered = None
    for c in range(env.num_channels):
        if budget[c, target.block_index] != env.e_matrix[c, target.block_index]:
            watch_recovered = c
            break
    watch_accuracy = 1.0 if watch_recovered == target.channel_slot else 0.0

    pisa_accuracy = 0.0
    if coordinator is not None:
        # The breached PISA SDC holds one ciphertext per channel at the
        # PU's block; without sk_G every candidate looks alike.  Emulate
        # the best generic attack: pick the lexicographically-smallest
        # ciphertext (any fixed rule does equally well) — success only
        # by luck.
        cells = {
            c: coordinator.sdc.kernel.cell(c, target.block_index).ciphertext
            for c in range(env.num_channels)
        }
        guess = min(cells, key=cells.get)
        pisa_accuracy = 1.0 if guess == target.channel_slot else 0.0
    return {
        "watch": watch_accuracy,
        "pisa": pisa_accuracy,
        "pisa_baseline": 1.0 / env.num_channels,
    }
