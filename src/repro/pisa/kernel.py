"""The SDC block kernel: the part of the SDC that decomposes over blocks.

Everything the spectrum controller computes per ``(channel, block)``
cell lives here, once:

* **PU state** (Figure 4, step 4): the encrypted aggregate
  ``W̃' = ⊕_i W̃_i`` (eq. (9)), maintained incrementally — a
  re-submitting PU's old contribution is homomorphically subtracted and
  the new one added — plus each PU's latest update.
* **Phase 1** (Figure 5, steps 3-5): ``Ṽ = ε ⊗ ((α ⊗ Ĩ) ⊖ β)``
  (eq. (14), β a plaintext blind) of ``Ĩ = Ẽ ⊖ (Δ ⊗ F̃) ⊕ W̃'`` (eqs. (10)-(12)).
* **Phase 2** (steps 9-10): ``ΣQ̃`` of ``Q̃ = (ε ⊗ X̃) ⊖ 1̃`` (eq. (16)) —
  block-state-free, so the request front calls it on every deployment.

Both run in closed form — the residue of ``Z*_{n²}`` each operator chain
computes (``g = n + 1`` has order ``n``), so the bytes are the chain's.

The kernel reads one thing of the map, a :class:`CellTable`: the shape,
the threshold ``Δ`` and the public matrix ``E`` as plain ints.  That is
what lets a shard worker boot from its bootstrap without building the
map (towers, terrain, numpy) the table was computed from.

The kernel draws **no randomness**: every ``(α, β, ε)`` is handed in by
the request front (:class:`~repro.pisa.sdc_server.SdcFront`), which is
what makes the transcript independent of how blocks are spread over
kernels.  A single :class:`~repro.pisa.sdc_server.SdcServer` runs one
kernel owning every block; a cluster shard
(:class:`repro.cluster.shard.SdcShard`) wraps one kernel with ownership,
liveness, fencing and locking, and serves phase 1 for its blocks.

The kernel is not thread-safe; a caller that shares one across threads
serialises the state-touching calls (everything except :meth:`blind`
and :func:`partial_q_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.crypto.numtheory import modinv
from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey
from repro.crypto.parallel import Executor, default_executor
from repro.errors import ProtocolError
from repro.pisa.blinding import CellBlinding
from repro.pisa.messages import PUUpdateMessage

if TYPE_CHECKING:  # an annotation only; the map's module loads numpy
    from repro.watch.environment import SpectrumEnvironment

__all__ = ["BlockKernel", "CellTable", "partial_q_sum", "require_key", "require_units"]


@dataclass(frozen=True)
class CellTable:
    """Everything phase 1 reads of the map: ``C × B``, ``Δ`` and ``E``.

    ``e[c][b]`` is ``E(c, b)`` (§IV-A1) as a Python int and ``delta`` is
    ``X = SINR + REDN`` in the integer form the scalar multiplications
    use (eq. (11)).  Both are public; nothing here is drawn.
    """

    num_channels: int
    num_blocks: int
    delta: int
    e: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, environment: SpectrumEnvironment) -> CellTable:
        """The table of one map (builds its ``E`` if nothing has yet)."""
        return cls(
            num_channels=environment.num_channels,
            num_blocks=environment.num_blocks,
            delta=environment.params.sinr_plus_redn_int,
            e=tuple(tuple(int(v) for v in row) for row in environment.e_matrix.tolist()),
        )


def require_key(
    ciphertexts: Iterable[EncryptedNumber], key: PaillierPublicKey, what: str
) -> None:
    """Reject any ciphertext not encrypted under ``key``."""
    for ct in ciphertexts:
        if ct.public_key != key:
            raise ProtocolError(f"{what} not under the expected key")


def require_units(
    ciphertexts: Iterable[EncryptedNumber], key: PaillierPublicKey, what: str
) -> None:
    """:func:`require_key`, and reject a ciphertext that is 0 or shares a factor with
    ``n`` (no inverse for the closed forms): one ``gcd`` of the product mod ``n``."""
    product = 1
    for ct in ciphertexts:
        if ct.public_key != key:
            raise ProtocolError(f"{what} not under the expected key")
        product = product * ct.ciphertext % key.n
    if math.gcd(product, key.n) != 1:
        raise ProtocolError(f"{what} is not a unit mod n²")


def _require_signs(epsilons: Iterable[int]) -> None:
    """Reject any ε outside {−1, +1}: the closed forms assume it."""
    if not all(epsilon in (1, -1) for epsilon in epsilons):  # audit-ok: SEC002 — range check
        raise ProtocolError("ε outside {−1, +1}")


class BlockKernel:
    """Per-block encrypted PU state plus the deterministic cell arithmetic."""

    def __init__(
        self,
        cells: CellTable,
        group_public_key: PaillierPublicKey,
        executor: Executor | None = None,
    ) -> None:
        self.cells = cells
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
        update (a non-unit ciphertext included) is rejected before any state changes.
        """
        if len(message.ciphertexts) != self.cells.num_channels:
            raise ProtocolError("PU update must carry one ciphertext per channel")
        if not 0 <= message.block_index < self.cells.num_blocks:
            raise ProtocolError(f"PU block {message.block_index} outside the area")
        require_units(message.ciphertexts, self.group_public_key, "PU update")
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

    def phase1_cells(
        self,
        blocks: Sequence[int],
        matrix: Sequence[Sequence[EncryptedNumber]],
    ) -> list[list[tuple[EncryptedNumber, EncryptedNumber | None, int]]]:
        """``(F̃, W̃' or None, E)`` per cell of a channels × columns request,
        column ``k`` being block ``blocks[k]``: the only state phase 1 reads
        (a shard holds its lock for this, not for :meth:`blind`).  A kernel
        behind a wire is its own trust boundary, so the group key and the
        unit check run here as well as at the front.
        """
        require_units((ct for row in matrix for ct in row), self.group_public_key, "request entry")
        e = self.cells.e
        return [
            [
                (f_ct, self._w_sum.get((c, blocks[k])), e[c][blocks[k]])
                for k, f_ct in enumerate(row)
            ]
            for c, row in enumerate(matrix)
        ]

    def blind(
        self,
        cells: Sequence[Sequence[tuple]],
        blindings: Sequence[Sequence[CellBlinding]],
    ) -> tuple[tuple[EncryptedNumber, ...], ...]:
        """Eqs. (10)-(14) over :meth:`phase1_cells`, with handed-down randomness:
        ``F^{−εαΔ} · W^{εα} · g^{ε(αE−β)}``, the exponentiations (``F`` per cell,
        ``W`` where a PU sits) one executor batch whose results are deterministic,
        so the output does not depend on which executor ran them."""
        _require_signs(cell.epsilon for row in blindings for cell in row)
        pk = self.group_public_key
        delta = self.cells.delta
        jobs = []
        for cell_row, blinding_row in zip(cells, blindings):
            for (f_ct, w_ct, _), cell in zip(cell_row, blinding_row):
                scale = cell.epsilon * cell.alpha
                jobs.append((f_ct.ciphertext, -scale * delta, pk.n_sq))
                if w_ct is not None:
                    jobs.append((w_ct.ciphertext, scale, pk.n_sq))
        powers = iter(self._executor.pow_many(jobs))
        return tuple(
            tuple(
                EncryptedNumber(
                    pk, next(powers) if w_ct is None else next(powers) * next(powers)
                ).add_plain(cell.epsilon * (cell.alpha * e_value - cell.beta))
                for (_, w_ct, e_value), cell in zip(cell_row, blinding_row)
            )
            for cell_row, blinding_row in zip(cells, blindings)
        )


# -- Figure 5 steps 9-10: phase 2 (block-state-free) --------------------------------


def partial_q_sum(
    matrix: Sequence[Sequence[EncryptedNumber]],
    epsilons: Sequence[Sequence[int]],
) -> EncryptedNumber:
    """``Σ Q̃`` over the given cells, ``Q̃ = (ε ⊗ X̃) ⊖ 1̃`` (eq. (16)).

    Each ``Q`` is 0 where the cell's budget holds and −2 where it does
    not, so the sum is the zero plaintext exactly when every cell grants.
    Executed as ``g^{−k} · Π_{ε=+1} X · (Π_{ε=−1} X)^{−1}``: one inverse
    per sum, one multiplication per cell into the product its ε indexes.
    """
    cells = [x_ct for x_row in matrix for x_ct in x_row]
    signs = [epsilon for epsilon_row in epsilons for epsilon in epsilon_row]
    if not cells or [len(row) for row in matrix] != [len(row) for row in epsilons]:
        raise ProtocolError("phase 2 needs at least one cell, each with its ε")
    pk = cells[0].public_key
    require_key(cells, pk, "converted sign")
    _require_signs(signs)
    products = [1, 1]  # Π over ε = −1, Π over ε = +1
    for cell, epsilon in zip(cells, signs):
        side = (epsilon + 1) >> 1
        products[side] = products[side] * cell.ciphertext % pk.n_sq
    return EncryptedNumber(pk, products[1] * modinv(products[0], pk.n_sq)).add_plain(-len(cells))
