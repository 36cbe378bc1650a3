"""Cold start: rebuild a dead shard from store + journal tail, byte-exact.

The invariant under test is the tentpole's acceptance bar: a shard
rebuilt from its durable snapshot (or raw PU rows) plus the unconsumed
journal tail serializes to *exactly* the bytes of the shard that never
died.  Byte equality of ``serialize_shard_state`` implies transcript
equality for every later round, since phase-1/phase-2 arithmetic is a
pure function of that state and centrally drawn randomness.

The same rule (:func:`repro.store.rebuild_shard`) also rebuilds a
promoted set's fresh standby and a restarted shard worker, so
``TestOneRebuildRule`` holds all three callers to the same bar.
"""

import io
from types import SimpleNamespace

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.netd.remote import RemoteShardSet
from repro.netd.worker import ShardState
from repro.pisa.pu_client import PUClient
from repro.pisa.storage import encode_shard_state, serialize_shard_state
from repro.resilience.journal import (
    EpochJournal,
    JournalWriter,
    read_journal,
)
from repro.store import (
    Checkpointer,
    MemoryStateStore,
    SqliteStateStore,
    rebuild_shard,
    recover,
    tail_epoch_commits,
)

from tests.cluster.conftest import build_cluster, run_round


def _kill_replica_set(coordinator, shard_id):
    replica_set = coordinator.replica_sets[shard_id]
    replica_set.primary.kill()
    replica_set.standby.kill()
    return replica_set


class TestTailEpochCommits:
    def _tail(self, *bodies):
        buffer = io.BytesIO()
        writer = JournalWriter(fileobj=buffer, fsync_every=1)
        for body in bodies:
            writer.append("epoch-commit", body)
        writer.barrier()
        return read_journal(buffer.getvalue())

    def test_filters_by_shard_in_order(self):
        tail = self._tail(b"shard-0:0", b"shard-1:0", b"shard-0:2")
        assert tail_epoch_commits(tail, "shard-0") == (0, 2)
        assert tail_epoch_commits(tail, "shard-1") == (0,)
        assert tail_epoch_commits(tail, "shard-9") == ()

    def test_shard_ids_containing_colons_parse(self):
        tail = self._tail(b"rack:0/shard:1:7")
        assert tail_epoch_commits(tail, "rack:0/shard:1") == (7,)


class TestColdStartShard:
    def test_snapshot_cold_start_is_byte_identical(self):
        store = MemoryStateStore()
        scenario, coordinator = build_cluster(num_shards=2, store=store)
        coordinator.sdc.commit_epoch(0)
        victim = coordinator.router.shard_ids[0]
        before = serialize_shard_state(coordinator.replica_sets[victim].primary)

        _kill_replica_set(coordinator, victim)
        applied = coordinator.cold_start_shard(victim)

        replica_set = coordinator.replica_sets[victim]
        assert replica_set.primary.alive
        assert serialize_shard_state(replica_set.primary) == before
        assert serialize_shard_state(replica_set.standby) == before
        assert applied == 0  # everything was inside the snapshot

    def test_pu_row_cold_start_without_snapshot(self):
        # No epoch ever committed: the store holds only raw PU rows, and
        # the cold start replays them onto ring-assigned blocks.
        store = MemoryStateStore()
        scenario, coordinator = build_cluster(num_shards=2, store=store)
        assert store.snapshot_shards() == ()
        victim = coordinator.router.shard_ids[0]
        before = serialize_shard_state(coordinator.replica_sets[victim].primary)

        _kill_replica_set(coordinator, victim)
        coordinator.cold_start_shard(victim)
        after = serialize_shard_state(coordinator.replica_sets[victim].primary)
        assert after == before

    def test_rounds_continue_after_cold_start(self):
        store = MemoryStateStore()
        scenario, coordinator = build_cluster(num_shards=2, store=store)
        coordinator.sdc.commit_epoch(0)
        su_id = scenario.sus[0].su_id
        control = run_round(coordinator, su_id)

        victim = coordinator.router.shard_ids[0]
        _kill_replica_set(coordinator, victim)
        coordinator.cold_start_shard(victim)
        replay = run_round(coordinator, su_id)
        # Different rounds draw different randomness, but both complete
        # and agree on the (deterministic) admission outcome.
        assert replay["granted"] == control["granted"]


class TestJournalTailReplay:
    def test_post_checkpoint_pu_update_replays_from_tail(self, tmp_path):
        store = MemoryStateStore()
        path = str(tmp_path / "journal.wal")
        writer = JournalWriter(path, fsync_every=1)
        journal = EpochJournal(writer)
        scenario, coordinator = build_cluster(
            num_shards=2, store=store, journal=journal
        )
        coordinator.sdc.commit_epoch(0)
        Checkpointer(store).checkpoint(writer)

        # A PU update the snapshot has NOT absorbed: it lands in the
        # journal tail (and the store row), not in any snapshot.
        pu = scenario.pus[0]
        client = PUClient(
            pu,
            scenario.environment,
            coordinator.stp.group_public_key,
            rng=DeterministicRandomSource(99),
        )
        update = client.build_update()
        coordinator.sdc.handle_pu_update(update)
        writer.barrier()

        owner = coordinator.router.route_pu_update(update)
        live = serialize_shard_state(coordinator.replica_sets[owner].primary)

        recovered = recover(store, path)
        assert [r.kind for r in recovered.tail.records].count("pu-update") == 1

        _kill_replica_set(coordinator, owner)
        applied = coordinator.cold_start_shard(owner, recovered.tail)
        assert applied >= 1
        rebuilt = serialize_shard_state(coordinator.replica_sets[owner].primary)
        assert rebuilt == live

    def test_tail_replay_is_idempotent_for_absorbed_updates(self):
        # Replaying an update the restore source already holds is the
        # no-op ⊖ old ⊕ new with old == new: latest-per-PU semantics.
        store = MemoryStateStore()
        scenario, coordinator = build_cluster(num_shards=2, store=store)
        victim = coordinator.router.shard_ids[0]
        primary = coordinator.replica_sets[victim].primary
        before = serialize_shard_state(primary)

        rows = store.pu_updates(victim)
        buffer = io.BytesIO()
        tail_writer = JournalWriter(fileobj=buffer, fsync_every=1)
        for _, _, raw in rows:
            tail_writer.append("pu-update", raw)
        tail_writer.barrier()
        tail = read_journal(buffer.getvalue())

        fresh = coordinator._build_replica_set(victim).primary
        live = encode_shard_state(
            victim, -1, primary.blocks, (raw for _, _, raw in rows)
        )
        from_snapshot, applied = rebuild_shard(fresh, live, store, tail)
        assert not from_snapshot
        assert applied == len(rows)
        assert serialize_shard_state(fresh) == before


# -- the one rebuild rule, through each of its three callers ----------------------
#
# Every case runs *commit epoch 0 → one PU switches → rebuild* and returns
# ``(live bytes, rebuilt bytes)``.  The switch lands after the snapshot,
# so a rebuild that lets the snapshot's epoch number stand in for "has
# everything" comes back without it.


def _commit_then_switch(**cluster_kwargs):
    scenario, coordinator = build_cluster(num_shards=2, **cluster_kwargs)
    coordinator.sdc.commit_epoch(0)
    pu = scenario.pus[0]
    assert coordinator.pu_switch_channel(pu.receiver_id, None)
    return coordinator, coordinator.membership.ring.node_for(pu.block_index)


def _by_promote(tmp_path):
    coordinator, owner = _commit_then_switch()
    replica_set = coordinator.replica_sets[owner]
    replica_set.kill_primary()
    assert replica_set.promote().from_snapshot
    return (
        serialize_shard_state(replica_set.primary),
        serialize_shard_state(replica_set.standby),
    )


def _by_cold_start(tmp_path):
    store = SqliteStateStore(tmp_path / "state.sqlite")
    path = str(tmp_path / "journal.wal")
    writer = JournalWriter(path, fsync_every=1)
    coordinator, owner = _commit_then_switch(
        store=store, journal=EpochJournal(writer)
    )
    live = serialize_shard_state(coordinator.replica_sets[owner].primary)
    # The checkpoint makes the journal forget the switch: only the
    # store's PU row still holds it.
    Checkpointer(store).checkpoint(writer)
    tail = recover(store, path).tail
    assert not tail.of_kind("pu-update")
    _kill_replica_set(coordinator, owner)
    coordinator.cold_start_shard(owner, tail)
    rebuilt = serialize_shard_state(coordinator.replica_sets[owner].primary)
    store.close()
    return live, rebuilt


class _LoopbackTransport:
    """A RemoteShardSet's frames, served by an in-process ShardState."""

    state = None

    def transact(self, endpoint, kind, payload):
        kind, payload = self.state.handle(kind, payload)
        assert kind == "ok"
        return SimpleNamespace(kind=kind, payload=payload)


def _by_worker_restart(tmp_path, with_store):
    # Feed one shard's blocks and PU updates through the socket plane's
    # broker-side proxy into a worker, then restart the worker the way
    # the supervisor would: a fresh ShardState on the current bootstrap.
    scenario, coordinator = build_cluster(num_shards=2)
    pu = scenario.pus[0]
    owner = coordinator.membership.ring.node_for(pu.block_index)
    seed = coordinator.replica_sets[owner].primary
    transport = _LoopbackTransport()
    remote = RemoteShardSet(
        owner,
        transport,
        supervisor=None,
        authority=SimpleNamespace(register_bootstrap=lambda name, provider: None),
        cells=coordinator.cells,
        group_public_key=coordinator.stp.group_public_key,
    )

    def boot():
        store = SqliteStateStore(tmp_path / "shard.sqlite") if with_store else None
        return ShardState(remote.bootstrap_payload(), store=store)

    transport.state = boot()
    remote.assign_blocks(seed.blocks)
    for message in seed.pu_update_messages():
        remote.apply_pu_update(message)
    remote.commit_epoch(0)
    remote.apply_pu_update(coordinator.pu_client(pu.receiver_id).switch_channel(None))
    live = serialize_shard_state(transport.state.shard)
    if with_store:
        transport.state.store.close()
    return live, serialize_shard_state(boot().shard)


class TestOneRebuildRule:
    @pytest.mark.parametrize(
        "rebuild",
        [
            pytest.param(_by_promote, id="promote"),
            pytest.param(
                lambda tmp: _by_worker_restart(tmp, with_store=True),
                id="worker-restart-from-store",
            ),
            pytest.param(
                lambda tmp: _by_worker_restart(tmp, with_store=False),
                id="worker-restart-no-store",
            ),
            pytest.param(_by_cold_start, id="checkpoint-cold-start"),
        ],
    )
    def test_update_after_commit_survives_rebuild(self, rebuild, tmp_path):
        live, rebuilt = rebuild(tmp_path)
        assert rebuilt == live

    def test_snapshot_blocks_handed_off_since_are_dropped(self):
        # A snapshot may predate a handoff; the caller's live view is the
        # ownership, so the moved block and its PU must not come back.
        store = MemoryStateStore()
        scenario, coordinator = build_cluster(num_shards=2, store=store)
        coordinator.sdc.commit_epoch(0)
        pu = scenario.pus[0]
        owner = coordinator.membership.ring.node_for(pu.block_index)
        primary = coordinator.replica_sets[owner].primary
        kept = tuple(b for b in primary.blocks if b != pu.block_index)
        live = encode_shard_state(
            owner,
            0,
            kept,
            (
                m.to_bytes()
                for m in primary.pu_update_messages()
                if m.block_index != pu.block_index
            ),
        )
        fresh = coordinator._build_replica_set(owner).primary
        from_snapshot, _ = rebuild_shard(fresh, live, store)
        assert from_snapshot
        assert serialize_shard_state(fresh) == live
