"""The one rule by which a shard gets its state back.

``ClusterCoordinator.cold_start_shard`` rebuilds a fresh, empty shard
this way, on either plane, and the fresh replica set boots its one
replica from the result's ``PISA-SHARD-STATE-v1`` blob:

1. start from the newest stored snapshot, if the store has one;
2. fold the caller's *live view* — a blob built from the ring's
   blocks and the store's PU rows.  Its blocks are
   the shard's ownership (blocks the snapshot lists but a handoff has
   since moved away are dropped) and every update in it is folded;
3. replay the journal tail's PU updates for owned blocks;
4. commit the highest epoch any of the three named.

No epoch comparison decides whether updates are replayed — epoch numbers
do not order a snapshot against the PU updates that followed it.  PU
state is latest-per-PU, so folding an update the snapshot already
absorbed is the eq. (9) no-op ``⊖ old ⊕ new`` with ``old == new``, and
everything goes through the ``handle_pu_update`` path a live shard uses.

A promotion needs no rule of its own: the replica set's blob is the
shard's whole state, so a successor — in process, or a restarted
worker — is :func:`~repro.cluster.shard.boot_shard` of that blob.
"""

from __future__ import annotations

from repro.pisa.messages import PUUpdateMessage
from repro.pisa.storage import decode_shard_state, restore_shard_state
from repro.resilience.journal import JournalReadResult
from repro.store.base import StateStore

__all__ = ["rebuild_shard", "tail_epoch_commits"]


def tail_epoch_commits(tail: JournalReadResult, shard_id: str) -> tuple[int, ...]:
    """Epoch ids the journal tail committed for ``shard_id``, in order."""
    epochs = []
    for record in tail.of_kind("epoch-commit"):
        recorded_shard, _, epoch = record.body.decode("utf-8").rpartition(":")
        if recorded_shard == shard_id:
            epochs.append(int(epoch))
    return tuple(epochs)


def rebuild_shard(
    shard,
    live: bytes,
    store: StateStore,
    tail: JournalReadResult | None = None,
) -> tuple[bool, int]:
    """Rebuild a freshly constructed, empty shard (module docstring).

    Returns ``(from_snapshot, tail_records_applied)``.
    """
    latest = store.latest_snapshot(shard.shard_id)
    if latest is not None:
        restore_shard_state(shard, latest[1])
    _, live_epoch, blocks, updates = decode_shard_state(live)
    handed_off = tuple(set(shard.blocks).difference(blocks))
    for pu_id in shard.pus_on_blocks(handed_off):
        shard.remove_pu(pu_id)
    shard.release_blocks(handed_off)
    shard.assign_blocks(blocks)
    group_key = shard.group_public_key
    for raw in updates:
        shard.handle_pu_update(PUUpdateMessage.from_bytes(raw, group_key))
    shard.commit_epoch(live_epoch)  # never regresses the snapshot's epoch
    applied = 0
    if tail is not None:
        for record in tail.of_kind("pu-update"):
            message = PUUpdateMessage.from_bytes(record.body, group_key)
            if shard.owns(message.block_index):
                shard.handle_pu_update(message)
                applied += 1
        for epoch in tail_epoch_commits(tail, shard.shard_id):
            if epoch > shard.last_committed_epoch:
                shard.commit_epoch(epoch)
                applied += 1
    return latest is not None, applied
