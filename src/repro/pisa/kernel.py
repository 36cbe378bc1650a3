"""The SDC block kernel: the part of the SDC that decomposes over blocks.

Everything the spectrum controller computes per ``(channel, block)``
cell lives here, once:

* **PU state** (Figure 4, step 4): the encrypted aggregate
  ``W̃' = ⊕_i W̃_i`` (eq. (9)), maintained incrementally — a
  re-submitting PU's old contribution is homomorphically subtracted and
  the new one added — plus each PU's latest update.
* **Phase 1** (Figure 5, steps 3-5): the indicator
  ``Ĩ = Ñ ⊖ R̃`` (eqs. (10)-(12)) and its blinding
  ``Ṽ = ε ⊗ ((α ⊗ Ĩ) ⊖ β)`` (eq. (14), β a plaintext blind), with the
  α exponentiations batched through the executor seam.
* **Phase 2** (steps 9-10): the ``Q̃`` gadget and a partial ``ΣQ̃``
  (eq. (16)).

The kernel draws **no randomness**: every ``(α, β, ε)`` is handed in by
the request front (:class:`~repro.pisa.sdc_server.SdcFront`), which is
what makes the transcript independent of how blocks are spread over
kernels.  A single :class:`~repro.pisa.sdc_server.SdcServer` runs one
kernel owning every block; a cluster shard
(:class:`repro.cluster.shard.SdcShard`) wraps one kernel with ownership,
liveness, fencing and locking.  Paillier addition is ciphertext
multiplication mod ``n²`` — commutative and associative — so partial
sums over any partition of the cells merge into exactly the integer one
loop over all of them produces.

The kernel is not thread-safe; a caller that shares one across threads
serialises the state-touching calls (everything except :meth:`blind`
and :func:`partial_q_sum`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey, hom_sum
from repro.crypto.parallel import Executor, default_executor
from repro.errors import ProtocolError
from repro.pisa.blinding import CellBlinding
from repro.pisa.messages import PUUpdateMessage
from repro.watch.environment import SpectrumEnvironment

__all__ = ["BlockKernel", "partial_q_sum", "require_key"]


def require_key(
    ciphertexts: Iterable[EncryptedNumber], key: PaillierPublicKey, what: str
) -> None:
    """Reject any ciphertext not encrypted under ``key``."""
    for ct in ciphertexts:
        if ct.public_key != key:
            raise ProtocolError(f"{what} not under the expected key")


class BlockKernel:
    """Per-block encrypted PU state plus the deterministic cell arithmetic."""

    def __init__(
        self,
        environment: SpectrumEnvironment,
        group_public_key: PaillierPublicKey,
        executor: Executor | None = None,
    ) -> None:
        self.environment = environment
        self.group_public_key = group_public_key
        self._executor = default_executor(executor)
        #: pu_id → (block, per-channel cts) — latest update per PU.
        self._pu_updates: dict[str, tuple[int, tuple[EncryptedNumber, ...]]] = {}
        #: Incrementally maintained W̃'(c, b) for cells with contributions.
        self._w_sum: dict[tuple[int, int], EncryptedNumber] = {}

    # -- Figure 4 step 4: PU state --------------------------------------------------

    def fold_pu_update(self, message: PUUpdateMessage) -> None:
        """Fold a PU's encrypted ``W̃_i`` into the aggregate (eq. (9)).

        A PU that re-submits (it switched channels) has its previous
        vector subtracted first, so the aggregate always equals
        ``⊕_{i∈PUs} W̃_i`` over each PU's *latest* state.  A malformed
        update is rejected before any state changes.
        """
        env = self.environment
        if len(message.ciphertexts) != env.num_channels:
            raise ProtocolError("PU update must carry one ciphertext per channel")
        if not 0 <= message.block_index < env.num_blocks:
            raise ProtocolError(f"PU block {message.block_index} outside the area")
        require_key(message.ciphertexts, self.group_public_key, "PU update")
        self.remove_pu(message.pu_id)  # ⊖ old
        for c, ct in enumerate(message.ciphertexts):  # ⊕ new
            cell = (c, message.block_index)
            held = self._w_sum.get(cell)
            self._w_sum[cell] = ct if held is None else held.add(ct)
        self._pu_updates[message.pu_id] = (message.block_index, message.ciphertexts)

    def remove_pu(self, pu_id: str) -> PUUpdateMessage | None:
        """Detach one PU's contribution; returns its update, if it had one."""
        previous = self._pu_updates.pop(pu_id, None)
        if previous is None:
            return None
        block, cts = previous
        for c, ct in enumerate(cts):
            cell = (c, block)
            self._w_sum[cell] = self._w_sum[cell].subtract(ct)
        return PUUpdateMessage(pu_id=pu_id, block_index=block, ciphertexts=cts)

    def pus_on_blocks(self, blocks: Iterable[int]) -> tuple[str, ...]:
        """PU ids whose latest update sits on one of ``blocks``."""
        wanted = set(blocks)
        return tuple(
            sorted(
                pu_id
                for pu_id, (block, _) in self._pu_updates.items()
                if block in wanted
            )
        )

    def pu_update_messages(self) -> tuple[PUUpdateMessage, ...]:
        """Every tracked PU's latest update, sorted by PU id (snapshots)."""
        return tuple(
            PUUpdateMessage(pu_id=pu_id, block_index=block, ciphertexts=cts)
            for pu_id, (block, cts) in sorted(self._pu_updates.items())
        )

    @property
    def num_tracked_pus(self) -> int:
        return len(self._pu_updates)

    def cell(self, channel: int, block: int) -> EncryptedNumber | None:
        """``W̃'(channel, block)``, or ``None`` where no PU ever contributed."""
        return self._w_sum.get((channel, block))

    # -- Figure 5 steps 3-5: phase 1 ------------------------------------------------

    def _indicator_cell(
        self, f_ct: EncryptedNumber, channel: int, block: int
    ) -> EncryptedNumber:
        """``Ĩ(c, i) = Ñ(c, i) ⊖ R̃(c, i)`` for one cell (eqs. (10)-(12)).

        ``Ñ = W̃' ⊕ Ẽ`` with the public ``E`` added as a plaintext
        constant (one multiplication, no fresh encryption); cells without
        PU contributions reduce to ``E − R`` directly.
        """
        params = self.environment.params
        r_ct = f_ct.scalar_mul(params.sinr_plus_redn_int)  # eq. (11)
        e_value = int(self.environment.e_matrix[channel, block])
        indicator = r_ct.scalar_mul(-1).add_plain(e_value)  # E − R
        w_ct = self._w_sum.get((channel, block))
        if w_ct is not None:
            indicator = indicator.add(w_ct)  # + (T − E) where a PU sits
        return indicator

    def indicators(
        self,
        blocks: Sequence[int],
        matrix: Sequence[Sequence[EncryptedNumber]],
    ) -> list[list[EncryptedNumber]]:
        """``Ĩ`` for a channels × columns request; column ``k`` is ``blocks[k]``.

        A kernel behind a wire is its own trust boundary, so the group
        key is checked here as well as at the front.
        """
        rows = []
        for c, row in enumerate(matrix):
            require_key(row, self.group_public_key, "request entry")
            rows.append(
                [self._indicator_cell(f_ct, c, blocks[k]) for k, f_ct in enumerate(row)]
            )
        return rows

    def blind(
        self,
        indicators: Sequence[Sequence[EncryptedNumber]],
        blindings: Sequence[Sequence[CellBlinding]],
    ) -> tuple[tuple[EncryptedNumber, ...], ...]:
        """Eq. (14) over every cell, with handed-down randomness.

        β is a plaintext blind: ``(α ⊗ Ĩ) ⊖ β`` costs one exponentiation
        (the α) and one multiplication by ``g^{−β}`` per cell.  The α
        exponentiations go to the executor as one batch; its results are
        deterministic, so the output does not depend on which executor
        ran them.
        """
        pk = self.group_public_key
        powers = iter(
            self._executor.pow_many(
                [
                    (indicator.ciphertext, cell.alpha, pk.n_sq)  # α ⊗ Ĩ
                    for indicator_row, blinding_row in zip(indicators, blindings)
                    for indicator, cell in zip(indicator_row, blinding_row)
                ]
            )
        )
        return tuple(
            tuple(
                EncryptedNumber(pk, next(powers))
                .add_plain(-cell.beta)  # ⊖ β
                .scalar_mul(cell.epsilon)  # ε ⊗ (…)
                for cell in blinding_row
            )
            for blinding_row in blindings
        )


# -- Figure 5 steps 9-10: phase 2 (block-state-free) --------------------------------


def partial_q_sum(
    matrix: Sequence[Sequence[EncryptedNumber]],
    epsilons: Sequence[Sequence[int]],
) -> EncryptedNumber:
    """``Σ Q̃`` over the given cells, ``Q̃ = (ε ⊗ X̃) ⊖ 1̃`` (eq. (16)).

    Each ``Q`` is 0 where the cell's budget holds and −2 where it does
    not, so the sum is the zero plaintext exactly when every cell grants.
    """
    if not any(len(x_row) for x_row in matrix):
        raise ProtocolError("phase 2 needs at least one cell")
    return hom_sum(
        x_ct.scalar_mul(epsilon).add_plain(-1)
        for x_row, epsilon_row in zip(matrix, epsilons)
        for x_ct, epsilon in zip(x_row, epsilon_row)
    )
