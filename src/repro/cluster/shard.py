"""One SDC shard: a block-partition of the spectrum controller.

A shard owns a subset of the map's block ids and wraps one
:class:`~repro.pisa.kernel.BlockKernel` — the same per-block state and
cell arithmetic the single SDC runs over the whole map — with what only
a fleet member needs: block ownership, liveness, fencing, a lock, and
the sub-query wire messages.  Everything *cross-block* — randomness,
round bookkeeping, the license — stays on the request front
(:class:`repro.cluster.coordinator.ClusterSdc`).

The division of labour is chosen so the cluster's transcript is
**byte-identical** to one SDC's:

* the coordinator draws every ``(α, β, ε)`` centrally, in the
  single-SDC cell order, and hands them down inside the sub-query;
* the shard's kernel performs only *deterministic* homomorphic
  arithmetic — the per-cell indicator (eqs. (10)-(12)) and blinding
  (eq. (14), β a plaintext blind) — so each of its columns is exactly
  the column one kernel over every block produces.

Phase 2 (eq. (16)) reads no block state and stays on the front: a shard
never sees the STP's ``X̃``.  What a shard learns is strictly a
projection of what the single SDC learns (its own blocks' ciphertexts
and blinding material, never a decryption key) — see
``docs/cluster.md`` for the threat-model mapping.

Sub-query messages implement ``wire_size()`` arithmetically (via
:func:`~repro.crypto.serialization.encoded_int_size`) so the modelled
transport accounts coordinator↔shard traffic without serialising
big-int payloads on the hot path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey
from repro.crypto.parallel import Executor
from repro.crypto.serialization import ciphertext_wire_size, encoded_int_size
from repro.errors import FencedError, ProtocolError, ShardDownError
from repro.pisa.blinding import CellBlinding
from repro.pisa.kernel import BlockKernel, CellTable
from repro.pisa.messages import PUUpdateMessage
from repro.pisa.storage import decode_shard_state, restore_shard_state

__all__ = [
    "ShardPhase1Request",
    "ShardPhase1Response",
    "SdcShard",
    "boot_shard",
]


def _str_size(value: str) -> int:
    return 4 + len(value.encode("utf-8"))


@dataclass(frozen=True)
class ShardPhase1Request:
    """Coordinator → shard: one round's columns owned by this shard.

    ``matrix``/``blindings`` are channels × columns, column ``k`` of
    this sub-query being column ``columns[k]`` (block ``blocks[k]``) of
    the full request.  The blinding material is SDC
    randomness in transit between parts of the SDC trust domain — it is
    never visible to the STP or any client.
    """

    round_id: str
    su_id: str
    shard_id: str
    columns: tuple[int, ...]
    blocks: tuple[int, ...]
    matrix: tuple[tuple[EncryptedNumber, ...], ...]
    blindings: tuple[tuple[CellBlinding, ...], ...]
    #: Router's current lease for this shard; 0 = never fenced.
    fence_token: int = 0

    def wire_size(self) -> int:
        size = _str_size(self.round_id) + _str_size(self.su_id)
        size += _str_size(self.shard_id)
        size += encoded_int_size(self.fence_token)
        size += sum(encoded_int_size(c) for c in self.columns)
        size += sum(encoded_int_size(b) for b in self.blocks)
        for row, blinding_row in zip(self.matrix, self.blindings):
            for ct, cell in zip(row, blinding_row):
                size += ciphertext_wire_size(ct.public_key)
                size += encoded_int_size(cell.alpha)
                size += encoded_int_size(cell.beta)
                # ε travels as a one-byte sign flag; both values encode to
                # the same width, so size it without branching on the sign.
                size += encoded_int_size(1)
        return size


@dataclass(frozen=True)
class ShardPhase1Response:
    """Shard → coordinator: the blinded ``Ṽ`` cells for its columns."""

    round_id: str
    shard_id: str
    columns: tuple[int, ...]
    matrix: tuple[tuple[EncryptedNumber, ...], ...]

    def wire_size(self) -> int:
        size = _str_size(self.round_id) + _str_size(self.shard_id)
        size += sum(encoded_int_size(c) for c in self.columns)
        for row in self.matrix:
            for ct in row:
                size += ciphertext_wire_size(ct.public_key)
        return size


class SdcShard:
    """The per-block-partition worker of the sharded SDC plane."""

    def __init__(
        self,
        shard_id: str,
        cells: CellTable,
        group_public_key: PaillierPublicKey,
        blocks: tuple[int, ...] = (),
        executor: Executor | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.group_public_key = group_public_key
        self._kernel = BlockKernel(cells, group_public_key, executor=executor)
        self.alive = True
        self.last_committed_epoch = -1
        #: Highest fencing token ever observed; lower-token writes die.
        self.fence_token = 0
        # Ownership and the kernel's PU state are touched from router
        # scatter threads and the rebalancer; every access takes the lock.
        self._lock = threading.Lock()
        self._blocks: set[int] = set(blocks)

    # -- lifecycle / ownership ---------------------------------------------------

    @property
    def blocks(self) -> tuple[int, ...]:
        return tuple(sorted(self._blocks))

    def owns(self, block: int) -> bool:
        return block in self._blocks

    def assign_blocks(self, blocks: tuple[int, ...]) -> None:
        with self._lock:
            self._blocks.update(blocks)

    def release_blocks(self, blocks: tuple[int, ...]) -> None:
        with self._lock:
            self._blocks.difference_update(blocks)

    def _check_owned(self, blocks) -> None:
        """A routing bug must fail loudly, not corrupt a sibling's budget."""
        for block in blocks:
            if block not in self._blocks:
                raise ProtocolError(
                    f"shard {self.shard_id!r} does not own block {block}"
                )

    def kill(self) -> None:
        """Simulated crash: every subsequent sub-query raises."""
        self.alive = False

    def _check_alive(self) -> None:
        if not self.alive:
            raise ShardDownError(f"shard {self.shard_id!r} is down")

    def observe_fence(self, token: int) -> None:
        """Ratchet the shard's lease; reject anything older.

        Tokens only move forward — a request stamped below the highest
        token this replica has *ever* seen comes from a deposed writer
        and raises :class:`~repro.errors.FencedError` before any state
        is touched.  Token 0 means the shard was never fenced and
        always passes.
        """
        if token == 0:
            return
        with self._lock:
            if token < self.fence_token:
                raise FencedError(
                    f"shard {self.shard_id!r} is fenced at token "
                    f"{self.fence_token}; request carried stale token {token}"
                )
            self.fence_token = token

    def commit_epoch(self, epoch_id: int, fence_token: int = 0) -> None:
        """Record that every round of ``epoch_id`` has completed."""
        self._check_alive()
        self.observe_fence(fence_token)
        with self._lock:
            if epoch_id > self.last_committed_epoch:
                self.last_committed_epoch = epoch_id

    # -- Figure 4 step 4, restricted to owned blocks -------------------------------

    def handle_pu_update(
        self, message: PUUpdateMessage, fence_token: int = 0
    ) -> None:
        """Fold one PU's encrypted update into this shard's aggregate.

        The kernel's ``⊖ old ⊕ new`` maintenance (eq. (9)), behind the
        shard's own gates: liveness, the fence, and block ownership.
        ``fence_token`` travels beside the message (not inside it —
        ``PUUpdateMessage`` is a protocol message whose bytes the
        transcript fingerprints) and is checked first.
        """
        self._check_alive()
        self.observe_fence(fence_token)
        with self._lock:
            self._check_owned((message.block_index,))
            self._kernel.fold_pu_update(message)

    def detach_block(self, block: int) -> tuple[PUUpdateMessage, ...]:
        """Handoff, source side: drop ``block`` and the PUs on it (``⊖``
        from the aggregate); returns their latest updates, by PU id."""
        moved = tuple(self.remove_pu(pu_id) for pu_id in self.pus_on_blocks((block,)))
        self.release_blocks((block,))
        return moved

    def remove_pu(self, pu_id: str) -> PUUpdateMessage | None:
        """Detach one PU's contribution (block handoff); returns its update."""
        with self._lock:
            return self._kernel.remove_pu(pu_id)

    def pus_on_blocks(self, blocks: tuple[int, ...]) -> tuple[str, ...]:
        """PU ids whose latest update sits on one of ``blocks``."""
        with self._lock:
            return self._kernel.pus_on_blocks(blocks)

    def pu_update_messages(self) -> tuple[PUUpdateMessage, ...]:
        """Every tracked PU's latest update, by PU id (snapshots)."""
        with self._lock:
            return self._kernel.pu_update_messages()

    @property
    def num_tracked_pus(self) -> int:
        return self._kernel.num_tracked_pus

    # -- Figure 5 phase 1, this shard's columns -------------------------------------

    def process_phase1(self, request: ShardPhase1Request) -> ShardPhase1Response:
        """Blind this shard's cells (eq. (14)) with handed-down randomness."""
        self._check_alive()
        self.observe_fence(request.fence_token)
        with self._lock:
            self._check_owned(request.blocks)
            cells = self._kernel.phase1_cells(request.blocks, request.matrix)
        # The exponentiations run outside the lock: they read no state.
        return ShardPhase1Response(
            round_id=request.round_id,
            shard_id=self.shard_id,
            columns=request.columns,
            matrix=self._kernel.blind(cells, request.blindings),
        )

    def __repr__(self) -> str:
        return (
            f"SdcShard({self.shard_id!r}, blocks={len(self._blocks)}, "
            f"alive={self.alive})"
        )


def boot_shard(
    blob: bytes,
    cells: CellTable,
    group_public_key: PaillierPublicKey,
    fence_token: int = 0,
    executor: Executor | None = None,
) -> SdcShard:
    """A fresh shard serving a ``PISA-SHARD-STATE-v1`` blob under a lease.

    The one way a shard comes up, in the broker's process or in a
    worker's: fold the blob's latest update per PU onto an empty shard
    (``⊕`` commutes, so this is the aggregate the blob's writer held),
    then learn the lease before the first request can arrive.
    """
    shard = SdcShard(
        decode_shard_state(blob)[0], cells, group_public_key, executor=executor
    )
    restore_shard_state(shard, blob)
    shard.observe_fence(fence_token)
    return shard
