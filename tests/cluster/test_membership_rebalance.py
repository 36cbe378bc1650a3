"""Unit tests for membership versioning and block handoff."""

import pytest

from repro.cluster.membership import (
    STATUS_ACTIVE,
    STATUS_LEFT,
    ClusterMembership,
)
from repro.cluster.rebalance import execute_handoff, plan_handoff
from repro.cluster.replica import ShardReplicaSet
from repro.cluster.shard import SdcShard
from repro.errors import ClusterError, MembershipError
from repro.pisa.kernel import CellTable
from repro.pisa.storage import serialize_shard_state
from repro.store import MemoryStateStore

from tests.cluster.conftest import build_cluster


class TestMembership:
    def test_initial_members_are_active(self):
        membership = ClusterMembership(("a", "b"))
        assert membership.active_members() == ("a", "b")
        assert len(membership) == 2
        assert membership.is_active("a")

    def test_join_bumps_version_and_ring(self):
        membership = ClusterMembership(("a",))
        version = membership.version
        old_ring = membership.ring
        membership.join("b")
        assert membership.version == version + 1
        assert "b" in membership.ring
        assert "b" not in old_ring  # old ring object untouched

    def test_double_join_rejected(self):
        membership = ClusterMembership(("a",))
        with pytest.raises(MembershipError):
            membership.join("a")

    def test_leave_marks_historical_record(self):
        membership = ClusterMembership(("a", "b"))
        membership.leave("b")
        assert membership.active_members() == ("a",)
        record = membership.record("b")
        assert record.status == STATUS_LEFT
        assert record.left_version == membership.version
        assert membership.record("a").status == STATUS_ACTIVE

    def test_left_id_is_not_reusable(self):
        membership = ClusterMembership(("a", "b"))
        membership.leave("b")
        with pytest.raises(MembershipError, match="not reusable"):
            membership.join("b")

    def test_last_member_cannot_leave(self):
        membership = ClusterMembership(("a",))
        with pytest.raises(MembershipError):
            membership.leave("a")

    def test_leaving_nonmember_rejected(self):
        membership = ClusterMembership(("a",))
        with pytest.raises(MembershipError):
            membership.leave("ghost")

    def test_unknown_record_rejected(self):
        membership = ClusterMembership(("a",))
        with pytest.raises(MembershipError):
            membership.record("ghost")


class TestHandoffPlanning:
    def test_plan_matches_ring_diff(self):
        membership = ClusterMembership(("a", "b"))
        old_ring = membership.ring
        new_ring = membership.join("c")
        plan = plan_handoff(old_ring, new_ring, 120)
        assert plan.blocks_moved > 0
        for move in plan.moves:
            assert move.source != move.target
            assert old_ring.node_for(move.block) == move.source
            assert new_ring.node_for(move.block) == move.target
            # A join only ever pulls blocks onto the new shard.
            assert move.target == "c"
        assert plan.moves_to("c") == plan.moves
        assert plan.moves_from("c") == ()

    def test_identical_rings_need_no_moves(self):
        membership = ClusterMembership(("a", "b"))
        ring = membership.ring
        assert plan_handoff(ring, ring, 120).blocks_moved == 0


class TestHandoffExecution:
    @pytest.fixture()
    def cluster_state(self, small_scenario, keypair, pu_updates):
        """Two replica sets with every block and PU placed by the ring."""
        membership = ClusterMembership(("a", "b"))
        num_blocks = small_scenario.environment.num_blocks

        def make_set(shard_id: str) -> ShardReplicaSet:
            return ShardReplicaSet(
                shard_id,
                shard_factory=lambda role: SdcShard(
                    shard_id, CellTable.of(small_scenario.environment), keypair.public_key
                ),
                store=MemoryStateStore(),
            )

        replica_sets = {sid: make_set(sid) for sid in ("a", "b")}
        assignment = membership.ring.assignment(tuple(range(num_blocks)))
        for shard_id, blocks in assignment.items():
            replica_sets[shard_id].assign_blocks(blocks)
        ring = membership.ring
        for update in pu_updates:
            replica_sets[ring.node_for(update.block_index)].apply_pu_update(
                update
            )
        return membership, replica_sets, num_blocks

    def test_join_transfers_blocks_and_pus(self, cluster_state, small_scenario,
                                           keypair):
        membership, replica_sets, num_blocks = cluster_state
        total_pus_before = sum(
            rs.primary.num_tracked_pus for rs in replica_sets.values()
        )
        old_ring = membership.ring
        replica_sets["c"] = ShardReplicaSet(
            "c",
            shard_factory=lambda role: SdcShard(
                "c", CellTable.of(small_scenario.environment), keypair.public_key
            ),
            store=MemoryStateStore(),
        )
        new_ring = membership.join("c")
        plan = plan_handoff(old_ring, new_ring, num_blocks)
        execute_handoff(plan, replica_sets)

        # Ownership now matches the new ring exactly, on both replicas.
        for block in range(num_blocks):
            owner = new_ring.node_for(block)
            for shard_id, rs in replica_sets.items():
                expected = shard_id == owner
                assert rs.primary.owns(block) == expected
                assert rs.standby.owns(block) == expected
        # No PU contribution was lost or duplicated.
        assert (
            sum(rs.primary.num_tracked_pus for rs in replica_sets.values())
            == total_pus_before
        )
        for rs in replica_sets.values():
            assert rs.primary.num_tracked_pus == rs.standby.num_tracked_pus

    def test_leave_pushes_blocks_back_to_survivors(
        self, cluster_state, small_scenario, keypair
    ):
        membership, replica_sets, num_blocks = cluster_state
        old_ring = membership.ring
        new_ring = membership.leave("b")
        plan = plan_handoff(old_ring, new_ring, num_blocks)
        for move in plan.moves:
            assert move.source == "b"
        execute_handoff(plan, replica_sets)
        assert replica_sets["b"].primary.blocks == ()
        assert replica_sets["b"].primary.num_tracked_pus == 0
        assert len(replica_sets["a"].primary.blocks) == num_blocks

    def test_missing_target_fails_loudly(self, cluster_state):
        membership, replica_sets, num_blocks = cluster_state
        old_ring = membership.ring
        new_ring = membership.join("ghost")
        plan = plan_handoff(old_ring, new_ring, num_blocks)
        with pytest.raises(ClusterError, match="no replica set"):
            execute_handoff(plan, replica_sets)


class TestHandoffMovesStoreRows:
    """A handoff moves the store's PU rows with the PUs, so every shard
    stays cold-startable across membership changes (scenario seed 6:
    2 → 3 shards moves two PUs onto the joiner)."""

    @staticmethod
    def _assert_store_matches_live(coordinator):
        store = coordinator.store
        for shard_id, replica_set in coordinator.replica_sets.items():
            live = replica_set.primary.pu_update_messages()
            assert [pu_id for _, pu_id, _ in store.pu_updates(shard_id)] == [
                message.pu_id for message in live
            ]
        assert len(store.pu_updates()) == sum(
            rs.primary.num_tracked_pus for rs in coordinator.replica_sets.values()
        )

    @staticmethod
    def _assert_every_shard_cold_starts(coordinator):
        for shard_id in coordinator.router.shard_ids:
            replica_set = coordinator.replica_sets[shard_id]
            live = serialize_shard_state(replica_set.primary)
            replica_set.primary.kill()
            replica_set.standby.kill()
            coordinator.cold_start_shard(shard_id)
            rebuilt = coordinator.replica_sets[shard_id]
            assert serialize_shard_state(rebuilt.primary) == live
            assert serialize_shard_state(rebuilt.standby) == live

    def test_join_then_leave_keep_rows_with_their_pus(self):
        scenario, coordinator = build_cluster(
            scenario_seed=6, num_shards=2, store=MemoryStateStore()
        )
        try:
            # Committed before the join: the snapshots predate the moves.
            coordinator.sdc.commit_epoch(0)
            coordinator.join_shard("shard-2")
            assert coordinator.replica_sets["shard-2"].primary.num_tracked_pus == 2
            self._assert_store_matches_live(coordinator)
            self._assert_every_shard_cold_starts(coordinator)

            coordinator.leave_shard("shard-2")
            assert coordinator.store.pu_updates("shard-2") == ()
            self._assert_store_matches_live(coordinator)
            self._assert_every_shard_cold_starts(coordinator)
        finally:
            coordinator.close()
