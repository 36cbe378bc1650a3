"""Unit tests for scatter-gather routing, retries, and failover.

The router is exercised against real (tiny) shards via a
:class:`~repro.cluster.ClusterCoordinator`, plus a few direct
constructions where the scenario-free surface suffices.
"""

import pytest

from repro.cluster.fencing import LeaseAuthority
from repro.cluster.membership import ClusterMembership
from repro.cluster.replica import ShardReplicaSet
from repro.cluster.router import ShardRouter
from repro.cluster.shard import SdcShard
from repro.errors import ClusterError, ShardDownError
from repro.net.transport import InMemoryTransport, resolve_transport
from repro.pisa.kernel import CellTable
from repro.store import MemoryStateStore
from repro.telemetry import MetricsRegistry

from tests.cluster.conftest import build_cluster


@pytest.fixture()
def cluster():
    _, coordinator = build_cluster(num_shards=2, num_sus=1)
    yield coordinator
    coordinator.close()


def make_router(small_scenario, keypair, shard_ids=("a", "b"), **kwargs):
    membership = ClusterMembership(tuple(shard_ids))
    store = MemoryStateStore()
    replica_sets = {}
    for shard_id in shard_ids:
        replica_sets[shard_id] = ShardReplicaSet(
            shard_id,
            shard_factory=lambda role, sid=shard_id: SdcShard(
                sid, CellTable.of(small_scenario.environment), keypair.public_key
            ),
            store=store,
        )
    assignment = membership.ring.assignment(
        tuple(range(small_scenario.environment.num_blocks))
    )
    for shard_id, blocks in assignment.items():
        replica_sets[shard_id].assign_blocks(blocks)
    kwargs.setdefault("transport", InMemoryTransport())
    kwargs.setdefault("fencing", LeaseAuthority(store=store))
    return ShardRouter(membership, replica_sets, **kwargs)


class TestPlacement:
    def test_split_columns_partitions_the_request(self, cluster):
        blocks = tuple(range(cluster.environment.num_blocks))
        split = cluster.router.split_columns(blocks)
        seen = sorted(k for cols in split.values() for k in cols)
        assert seen == list(range(len(blocks)))
        ring = cluster.membership.ring
        for shard_id, cols in split.items():
            assert cols == tuple(sorted(cols))
            for k in cols:
                assert ring.node_for(blocks[k]) == shard_id

    def test_split_skips_shards_without_disclosed_blocks(self, cluster):
        ring = cluster.membership.ring
        # Pick one block owned by shard-0 only.
        block = next(
            b
            for b in range(cluster.environment.num_blocks)
            if ring.node_for(b) == "shard-0"
        )
        split = cluster.router.split_columns((block,))
        assert split == {"shard-0": (0,)}


class TestPuRouting:
    def test_update_lands_on_owning_shard_and_both_replicas(
        self, small_scenario, keypair, pu_updates
    ):
        router = make_router(small_scenario, keypair)
        try:
            update = pu_updates[0]
            owner = router.membership.ring.node_for(update.block_index)
            routed_to = router.route_pu_update(update)
            assert routed_to == owner
            replica_set = router.replica_set(owner)
            assert replica_set.primary.num_tracked_pus == 1
            assert replica_set.standby.num_tracked_pus == 1
            assert router.stats.pu_updates_routed == 1
        finally:
            router.close()


class TestFailover:
    def test_dead_primary_is_promoted_and_retried(
        self, small_scenario, keypair, pu_updates
    ):
        router = make_router(small_scenario, keypair)
        try:
            update = pu_updates[0]
            owner = router.membership.ring.node_for(update.block_index)
            router.replica_set(owner).kill_primary()
            router.route_pu_update(update)
            assert router.stats.failovers == 1
            assert router.stats.subquery_failures == 1
            assert router.replica_set(owner).primary.alive
        finally:
            router.close()

    def test_retries_are_bounded(self, small_scenario, keypair, pu_updates):
        router = make_router(small_scenario, keypair, max_attempts=2)
        try:

            def always_down(primary, request):
                raise ShardDownError("injected")

            with pytest.raises(ShardDownError, match="failed 2 attempts"):
                router._call_shard("a", pu_updates[0], always_down)
            # Promotion happened between the two attempts.
            assert router.stats.subquery_failures == 2
            assert router.stats.failovers == 1
        finally:
            router.close()

    def test_unrecoverable_shard_fails_loudly(
        self, small_scenario, keypair, pu_updates
    ):
        router = make_router(small_scenario, keypair, max_attempts=2)
        try:
            update = pu_updates[0]
            owner = router.membership.ring.node_for(update.block_index)
            replica_set = router.replica_set(owner)
            # Both replicas dead: there is nothing left to promote.
            replica_set.kill_primary()
            replica_set.standby.kill()
            with pytest.raises(ShardDownError, match="cannot be recovered"):
                router.route_pu_update(update)
        finally:
            router.close()

    def test_cut_wire_counts_as_shard_failure(
        self, small_scenario, keypair, pu_updates
    ):
        transport = InMemoryTransport()
        router = make_router(small_scenario, keypair, transport=transport)
        try:
            update = pu_updates[0]
            owner = router.membership.ring.node_for(update.block_index)
            transport.fail_endpoint(owner)
            router.route_pu_update(update)
            # Recovery restored the endpoint along with the promotion.
            assert router.stats.failovers == 1
            assert transport.link_is_up("router", owner)
        finally:
            router.close()

    def test_check_liveness_promotes_idle_crashed_shard(
        self, small_scenario, keypair
    ):
        router = make_router(small_scenario, keypair)
        try:
            replica_set = router.replica_set("a")
            replica_set.kill_primary()
            later = replica_set.heartbeat_age() + 10.0
            promoted = router.check_liveness(now=later)
            assert promoted == ("a",)
            assert router.replica_set("a").primary.alive
        finally:
            router.close()


class TestTransportAccounting:
    def test_subqueries_are_accounted_per_link(
        self, small_scenario, keypair, pu_updates
    ):
        transport = InMemoryTransport()
        metrics = MetricsRegistry()
        transport.attach_metrics(metrics)
        router = make_router(small_scenario, keypair, transport=transport)
        try:
            update = pu_updates[0]
            owner = router.route_pu_update(update)
            counters = metrics.snapshot()["counters"]
            for link in (f"router->{owner}", f"{owner}->router"):
                assert counters[f"transport_bytes_total{{link={link}}}"] == update.wire_size()
        finally:
            router.close()

    def test_no_router_message_after_phase1(self):
        # Phase 2 is the front's own arithmetic: once phase 1 has
        # gathered, the round sends no sub-query of any kind.
        scenario, cluster = build_cluster(num_shards=2, num_sus=1)
        try:
            transport = resolve_transport(cluster.transport)
            client = cluster.su_client(scenario.sus[0].su_id)
            sign_request = cluster.sdc.start_request(client.prepare_request())
            after_phase1 = transport.by_kind()
            assert after_phase1["ShardPhase1Request"][0] >= 1
            sign_response = cluster.stp.handle_sign_extraction(sign_request)
            cluster.sdc.finish_request(sign_response)
            assert transport.by_kind() == after_phase1
        finally:
            cluster.close()


class TestAdministration:
    def test_unknown_shard_rejected(self, small_scenario, keypair):
        router = make_router(small_scenario, keypair)
        try:
            with pytest.raises(ClusterError):
                router.replica_set("ghost")
        finally:
            router.close()

    def test_invalid_max_attempts_rejected(self, small_scenario, keypair):
        with pytest.raises(ClusterError):
            make_router(small_scenario, keypair, max_attempts=0)

    def test_commit_epoch_reaches_every_shard(self, small_scenario, keypair):
        router = make_router(small_scenario, keypair)
        try:
            router.commit_epoch(7)
            for shard_id in router.shard_ids:
                replica_set = router.replica_set(shard_id)
                assert replica_set.primary.last_committed_epoch == 7
                assert replica_set.standby.last_committed_epoch == 7
                latest = replica_set.store.latest_snapshot(shard_id)
                assert latest is not None and latest[0] == 7
        finally:
            router.close()
