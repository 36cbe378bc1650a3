"""Unit tests for replica sets, snapshots, heartbeats, and promotion.

A set is one replica plus the blob it boots from; "both replicas" below
are those two copies of the shard's state.
"""

import pytest

from repro.cluster.replica import ShardReplicaSet
from repro.cluster.shard import boot_shard
from repro.pisa.kernel import CellTable
from repro.pisa.pu_client import PUClient
from repro.pisa.storage import serialize_shard_state
from repro.store import MemoryStateStore


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture()
def replica_set(small_scenario, keypair):
    clock = FakeClock()
    cells = CellTable.of(small_scenario.environment)

    def boot(replica_set):
        return boot_shard(
            replica_set.blob(), cells, keypair.public_key, replica_set.fence_token
        )

    rs = ShardReplicaSet("shard-0", boot, store=MemoryStateStore(), clock=clock)
    rs.clock = clock  # test handle
    return rs


class TestMirroring:
    def test_updates_land_on_both_replicas(self, replica_set, pu_updates):
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        assert replica_set.primary.num_tracked_pus == len(pu_updates)
        assert replica_set.blob() == serialize_shard_state(replica_set.primary)

    def test_block_fanout(self, replica_set):
        replica_set.assign_blocks((1, 2))
        assert replica_set.primary.blocks == (1, 2)
        assert replica_set.blocks == (1, 2)
        replica_set.detach_block(1)
        assert replica_set.primary.blocks == (2,)
        assert replica_set.blocks == (2,)

    def test_commit_epoch_snapshots_the_primary(self, replica_set):
        replica_set.assign_blocks((0,))
        replica_set.commit_epoch(3)
        assert replica_set.store.latest_snapshot("shard-0") == (3, replica_set.blob())
        assert replica_set.primary.last_committed_epoch == 3


class TestHeartbeats:
    def test_fresh_set_is_alive(self, replica_set):
        assert replica_set.is_alive()

    def test_stale_heartbeat_marks_dead(self, replica_set):
        replica_set.clock.advance(5.0)
        assert not replica_set.is_alive()
        replica_set.record_heartbeat()
        assert replica_set.is_alive()

    def test_killed_primary_is_dead_despite_heartbeat(self, replica_set):
        replica_set.record_heartbeat()
        replica_set.primary.kill()
        assert not replica_set.is_alive()


class TestPromotion:
    def test_promote_uses_snapshot_when_current(self, replica_set, pu_updates):
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        replica_set.commit_epoch(0)
        dead = replica_set.primary
        dead.kill()
        event = replica_set.promote()
        assert replica_set.primary is not dead and replica_set.primary.alive
        assert replica_set.is_alive()
        assert event.shard_id == "shard-0"
        assert event.resumed_epoch == 0
        assert replica_set.failovers == [event]
        # The successor booted from the blob the commit stored.
        assert replica_set.store.latest_snapshot("shard-0") == (
            0,
            serialize_shard_state(replica_set.primary),
        )

    def test_promote_warm_mirrors_without_snapshot(
        self, replica_set, pu_updates
    ):
        """No commit yet: the set's blob alone brings every update back."""
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        replica_set.primary.kill()
        replica_set.promote()
        assert replica_set.store.latest_snapshot("shard-0") is None
        assert replica_set.primary.num_tracked_pus == len(pu_updates)

    def test_promote_folds_updates_newer_than_the_snapshot(
        self, replica_set, pu_updates, small_scenario, keypair, fresh_rng
    ):
        # Epoch numbers do not order a snapshot against PU updates: a PU
        # that switched after the commit is in the set's blob but not in
        # the epoch-0 snapshot, and the successor needs both.
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        replica_set.commit_epoch(0)
        switched = PUClient(
            small_scenario.pus[0],
            small_scenario.environment,
            keypair.public_key,
            rng=fresh_rng.fork("switch"),
        ).build_update()
        replica_set.apply_pu_update(switched)
        before = serialize_shard_state(replica_set.primary)
        replica_set.primary.kill()
        replica_set.promote()
        assert serialize_shard_state(replica_set.primary) == before

    def test_double_failover_survives(self, replica_set, pu_updates):
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        replica_set.commit_epoch(0)
        for _ in range(2):
            replica_set.primary.kill()
            replica_set.promote()
        assert len(replica_set.failovers) == 2
        assert replica_set.primary.alive
        assert replica_set.primary.num_tracked_pus == len(pu_updates)

    def test_successor_boots_under_the_fence(self, replica_set):
        """Fence, then promote: the deposed replica and its successor
        both hold the new lease before the successor serves."""
        replica_set.assign_blocks((0,))
        deposed = replica_set.primary
        replica_set.install_fence(5)
        replica_set.promote()
        assert deposed.fence_token == replica_set.primary.fence_token == 5
