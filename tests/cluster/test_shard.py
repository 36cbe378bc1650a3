"""Unit tests for the per-partition SDC shard worker."""

import pytest

from repro.cluster.shard import SdcShard
from repro.errors import ProtocolError, SerializationError, ShardDownError
from repro.pisa.kernel import CellTable
from repro.pisa.storage import restore_shard_state, serialize_shard_state


def make_shard(small_scenario, keypair, blocks=(), shard_id="shard-0"):
    return SdcShard(
        shard_id,
        CellTable.of(small_scenario.environment),
        keypair.public_key,
        blocks=tuple(blocks),
    )


class TestOwnership:
    def test_assign_and_release(self, small_scenario, keypair):
        shard = make_shard(small_scenario, keypair)
        shard.assign_blocks((3, 1, 2))
        assert shard.blocks == (1, 2, 3)
        assert shard.owns(2)
        shard.release_blocks((2,))
        assert not shard.owns(2)
        assert shard.blocks == (1, 3)

    def test_update_for_unowned_block_rejected(
        self, small_scenario, keypair, pu_updates
    ):
        update = pu_updates[0]
        blocks = set(range(small_scenario.environment.num_blocks))
        blocks.discard(update.block_index)
        shard = make_shard(small_scenario, keypair, blocks=blocks)
        with pytest.raises(ProtocolError, match="does not own"):
            shard.handle_pu_update(update)

    def test_update_for_owned_block_accepted(
        self, small_scenario, keypair, pu_updates
    ):
        update = pu_updates[0]
        shard = make_shard(small_scenario, keypair, blocks=(update.block_index,))
        shard.handle_pu_update(update)
        assert shard.num_tracked_pus == 1
        assert shard.pus_on_blocks((update.block_index,)) == (update.pu_id,)


class TestPuState:
    def test_remove_pu_returns_its_update(
        self, small_scenario, keypair, pu_updates
    ):
        update = pu_updates[0]
        shard = make_shard(small_scenario, keypair, blocks=(update.block_index,))
        shard.handle_pu_update(update)
        removed = shard.remove_pu(update.pu_id)
        assert removed is not None
        assert removed.pu_id == update.pu_id
        assert removed.block_index == update.block_index
        assert shard.num_tracked_pus == 0

    def test_remove_unknown_pu_is_noop(self, small_scenario, keypair):
        shard = make_shard(small_scenario, keypair)
        assert shard.remove_pu("nobody") is None

    def test_resubmitted_update_replaces_previous(
        self, small_scenario, keypair, pu_updates
    ):
        update = pu_updates[0]
        shard = make_shard(small_scenario, keypair, blocks=(update.block_index,))
        shard.handle_pu_update(update)
        shard.handle_pu_update(update)
        assert shard.num_tracked_pus == 1
        # ⊖ old ⊕ new leaves the aggregate describing exactly one update.
        messages = shard.pu_update_messages()
        assert len(messages) == 1


class TestLifecycle:
    def test_killed_shard_raises_on_every_entry_point(
        self, small_scenario, keypair, pu_updates
    ):
        update = pu_updates[0]
        shard = make_shard(small_scenario, keypair, blocks=(update.block_index,))
        shard.kill()
        with pytest.raises(ShardDownError):
            shard.handle_pu_update(update)
        with pytest.raises(ShardDownError):
            shard.commit_epoch(0)

    def test_commit_epoch_watermark_is_monotone(self, small_scenario, keypair):
        shard = make_shard(small_scenario, keypair)
        assert shard.last_committed_epoch == -1
        shard.commit_epoch(2)
        shard.commit_epoch(1)  # stale commit must not regress
        assert shard.last_committed_epoch == 2


class TestSnapshotRoundTrip:
    def test_round_trip_restores_blocks_epoch_and_pu_state(
        self, small_scenario, keypair, pu_updates
    ):
        blocks = tuple(sorted({u.block_index for u in pu_updates} | {0, 7}))
        shard = make_shard(small_scenario, keypair, blocks=blocks)
        for update in pu_updates:
            shard.handle_pu_update(update)
        shard.commit_epoch(4)

        blob = serialize_shard_state(shard)
        restored = make_shard(small_scenario, keypair)
        epoch = restore_shard_state(restored, blob)

        assert epoch == 4
        assert restored.last_committed_epoch == 4
        assert restored.blocks == shard.blocks
        assert restored.num_tracked_pus == shard.num_tracked_pus
        # The replayed aggregate matches ciphertext for ciphertext.
        assert [m.to_bytes() for m in restored.pu_update_messages()] == [
            m.to_bytes() for m in shard.pu_update_messages()
        ]

    def test_serialization_is_deterministic(
        self, small_scenario, keypair, pu_updates
    ):
        shard = make_shard(
            small_scenario,
            keypair,
            blocks=tuple(range(small_scenario.environment.num_blocks)),
        )
        for update in pu_updates:
            shard.handle_pu_update(update)
        assert serialize_shard_state(shard) == serialize_shard_state(shard)

    def test_restore_refuses_wrong_shard_id(
        self, small_scenario, keypair
    ):
        shard = make_shard(small_scenario, keypair, blocks=(0,), shard_id="a")
        blob = serialize_shard_state(shard)
        other = make_shard(small_scenario, keypair, shard_id="b")
        with pytest.raises(SerializationError):
            restore_shard_state(other, blob)

    def test_restore_refuses_nonempty_target(
        self, small_scenario, keypair, pu_updates
    ):
        update = pu_updates[0]
        shard = make_shard(small_scenario, keypair, blocks=(update.block_index,))
        blob = serialize_shard_state(shard)
        target = make_shard(small_scenario, keypair, blocks=(update.block_index,))
        target.handle_pu_update(update)
        with pytest.raises(SerializationError):
            restore_shard_state(target, blob)

    def test_restore_refuses_garbage(self, small_scenario, keypair):
        target = make_shard(small_scenario, keypair)
        with pytest.raises(SerializationError):
            restore_shard_state(target, b"not a snapshot")

    def test_restore_refuses_trailing_bytes(
        self, small_scenario, keypair
    ):
        shard = make_shard(small_scenario, keypair, blocks=(0,))
        blob = serialize_shard_state(shard) + b"\x00"
        target = make_shard(small_scenario, keypair)
        with pytest.raises(SerializationError):
            restore_shard_state(target, blob)
