"""Unit tests for replica sets, snapshots, heartbeats, and promotion."""

import pytest

from repro.cluster.replica import ShardReplicaSet
from repro.cluster.shard import SdcShard
from repro.errors import ClusterError
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

    def factory(role: str) -> SdcShard:
        return SdcShard("shard-0", CellTable.of(small_scenario.environment), keypair.public_key)

    rs = ShardReplicaSet(
        "shard-0",
        shard_factory=factory,
        store=MemoryStateStore(),
        clock=clock,
    )
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
        assert replica_set.standby.num_tracked_pus == len(pu_updates)

    def test_block_fanout(self, replica_set):
        replica_set.assign_blocks((1, 2))
        assert replica_set.primary.blocks == (1, 2)
        assert replica_set.standby.blocks == (1, 2)
        replica_set.release_blocks((1,))
        assert replica_set.primary.blocks == (2,)
        assert replica_set.standby.blocks == (2,)

    def test_commit_epoch_snapshots_the_primary(self, replica_set):
        replica_set.assign_blocks((0,))
        replica_set.commit_epoch(3)
        latest = replica_set.store.latest_snapshot("shard-0")
        assert latest is not None
        assert latest[0] == 3
        assert replica_set.standby.last_committed_epoch == 3


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
        replica_set.kill_primary()
        assert not replica_set.is_alive()


class TestPromotion:
    def test_promote_swaps_standby_in(self, replica_set, pu_updates):
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        old_standby = replica_set.standby
        replica_set.kill_primary()
        event = replica_set.promote()
        assert replica_set.primary is old_standby
        assert replica_set.primary.alive
        assert replica_set.is_alive()
        assert event.shard_id == "shard-0"
        assert replica_set.failovers == [event]

    def test_promote_uses_snapshot_when_current(self, replica_set, pu_updates):
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        replica_set.commit_epoch(0)
        replica_set.kill_primary()
        event = replica_set.promote()
        assert event.from_snapshot
        assert event.resumed_epoch == 0
        # The rebuilt standby replayed the snapshot's PU state.
        assert replica_set.standby.num_tracked_pus == len(pu_updates)
        assert replica_set.standby.blocks == replica_set.primary.blocks

    def test_promote_warm_mirrors_without_snapshot(
        self, replica_set, pu_updates
    ):
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        replica_set.kill_primary()
        event = replica_set.promote()
        assert not event.from_snapshot
        assert replica_set.standby.num_tracked_pus == len(pu_updates)

    def test_promote_folds_updates_newer_than_the_snapshot(
        self, replica_set, pu_updates, small_scenario, keypair, fresh_rng
    ):
        # Epoch numbers do not order a snapshot against PU updates: a PU
        # that switched after the commit is in the promoted primary but
        # not in the epoch-0 snapshot, and the fresh standby needs both.
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
        replica_set.kill_primary()
        event = replica_set.promote()
        assert event.from_snapshot
        assert serialize_shard_state(replica_set.standby) == (
            serialize_shard_state(replica_set.primary)
        )

    def test_promote_without_live_standby_fails(self, replica_set):
        replica_set.kill_primary()
        replica_set.standby.kill()
        with pytest.raises(ClusterError):
            replica_set.promote()

    def test_double_failover_survives(self, replica_set, pu_updates):
        replica_set.assign_blocks(
            tuple({u.block_index for u in pu_updates})
        )
        for update in pu_updates:
            replica_set.apply_pu_update(update)
        replica_set.commit_epoch(0)
        for _ in range(2):
            replica_set.kill_primary()
            replica_set.promote()
        assert len(replica_set.failovers) == 2
        assert replica_set.primary.alive
        assert replica_set.primary.num_tracked_pus == len(pu_updates)
