"""Model-based test of the shard lifecycle (ROADMAP model-based item, strand b).

One store-backed, journaled 2-shard cluster driven by random
interleavings of everything that touches a shard's state at rest: PU
switches, epoch commits, journal checkpoints, promotions, cold starts,
joins and leaves.  The model is just the latest update per PU; after
every step

* a restart boots what serves: a shard booted from any set's blob
  serializes to the same bytes as the set's serving replica, and
* the store's PU rows are exactly that latest-per-PU map, each row under
  the shard the ring says owns the PU's block

— the two facts a promotion and :func:`repro.store.rebuild_shard` need
to give any shard its state back.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.shard import boot_shard
from repro.pisa.storage import serialize_shard_state
from repro.resilience.journal import EpochJournal, JournalWriter
from repro.store import Checkpointer, MemoryStateStore, recover

from tests.cluster.conftest import build_cluster

MAX_SHARDS = 3


class ShardLifecycleMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="shard-lifecycle-")
        self.journal_path = f"{self.workdir}/journal.wal"
        self.writer = JournalWriter(self.journal_path, fsync_every=1)
        self.store = MemoryStateStore()
        self.scenario, self.coordinator = build_cluster(
            num_shards=2, store=self.store, journal=EpochJournal(self.writer)
        )
        self.epoch = -1
        self.shards_ever = 2
        #: The model: pu_id → bytes of the latest update that PU sent.
        self.latest = {
            message.pu_id: message.to_bytes()
            for replica_set in self.coordinator.replica_sets.values()
            for message in replica_set.primary.pu_update_messages()
        }

    def teardown(self) -> None:
        self.coordinator.close()
        self.writer.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _pick_shard(self, index: int) -> str:
        shard_ids = self.coordinator.router.shard_ids
        return shard_ids[index % len(shard_ids)]

    # -- rules -----------------------------------------------------------------

    @rule(pu=st.integers(0, 7), slot=st.one_of(st.none(), st.integers(0, 4)))
    def pu_switch(self, pu, slot):
        pus = self.scenario.pus
        pu_id = pus[pu % len(pus)].receiver_id
        update = self.coordinator.pu_client(pu_id).switch_channel(slot, 1.0)
        if update is not None:  # a virtual-channel move sends nothing
            self.coordinator.sdc.handle_pu_update(update)
            self.latest[pu_id] = update.to_bytes()

    @rule()
    def commit_epoch(self):
        self.epoch += 1
        self.coordinator.sdc.commit_epoch(self.epoch)

    @rule()
    def checkpoint(self):
        Checkpointer(self.store).checkpoint(self.writer)

    @rule(index=st.integers(0, MAX_SHARDS))
    def promote(self, index):
        replica_set = self.coordinator.replica_sets[self._pick_shard(index)]
        replica_set.primary.kill()
        replica_set.promote()

    @rule(index=st.integers(0, MAX_SHARDS))
    def cold_start(self, index):
        shard_id = self._pick_shard(index)
        self.coordinator.replica_sets[shard_id].primary.kill()
        self.writer.barrier()
        tail = recover(self.store, self.journal_path).tail
        self.coordinator.cold_start_shard(shard_id, tail)

    @precondition(lambda self: len(self.coordinator.replica_sets) < MAX_SHARDS)
    @rule()
    def join(self):
        # Ids are never reused: a left shard's id stays retired.
        self.coordinator.join_shard(f"shard-{self.shards_ever}")
        self.shards_ever += 1

    @precondition(lambda self: len(self.coordinator.replica_sets) > 1)
    @rule(index=st.integers(0, MAX_SHARDS))
    def leave(self, index):
        self.coordinator.leave_shard(self._pick_shard(index))

    # -- invariants ------------------------------------------------------------

    @invariant()
    def a_restart_boots_what_serves(self):
        coordinator = self.coordinator
        for replica_set in coordinator.replica_sets.values():
            booted = boot_shard(
                replica_set.blob(), coordinator.cells, coordinator.stp.group_public_key
            )
            assert serialize_shard_state(booted) == (
                serialize_shard_state(replica_set.primary)
            )

    @invariant()
    def store_rows_are_the_latest_update_per_pu(self):
        ring = self.coordinator.membership.ring
        blocks = {pu.receiver_id: pu.block_index for pu in self.scenario.pus}
        expected = sorted(
            (ring.node_for(blocks[pu_id]), pu_id, raw)
            for pu_id, raw in self.latest.items()
        )
        assert list(self.store.pu_updates()) == expected
        for shard_id, replica_set in self.coordinator.replica_sets.items():
            assert [
                (shard_id, message.pu_id, message.to_bytes())
                for message in replica_set.primary.pu_update_messages()
            ] == [row for row in expected if row[0] == shard_id]


TestShardLifecycle = ShardLifecycleMachine.TestCase
TestShardLifecycle.settings = settings(
    max_examples=12,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
