"""The cluster coordinator: a sharded SDC with a single-SDC transcript.

:class:`ClusterSdc` is the same request front as
:class:`~repro.pisa.sdc_server.SdcServer`
(:class:`~repro.pisa.sdc_server.SdcFront`: validation, every random
draw, pending rounds, license issuance), so the STP, the SU clients, the
epoch batcher, and the broker all drive it unchanged.  Where the single
SDC hands phase 1's per-cell arithmetic to one in-process kernel, this
front splits each request by block ownership, scatters it to the shards'
kernels, and reassembles the blinded matrix.  Phase 2 reads no block
state, so the front computes ``ΣQ̃`` itself from the ε it drew, exactly
as the single SDC does.  One invariant the test suite asserts
byte-for-byte:

**Transcript equivalence.**  Seeded identically, the N-shard cluster
emits the *same bytes* as one SDC — the same ``Ṽ`` matrix to the STP,
the same license, the same perturbed signature — because:

* all randomness (per-cell ``(α, β, ε)``, the signature nonce, η) is
  drawn by the shared front, in cell order, before anything is
  scattered;
* shards perform only deterministic homomorphic arithmetic on that
  handed-down randomness (:mod:`repro.pisa.kernel` behind
  :mod:`repro.cluster.shard`), and the reassembled ``Ṽ`` is
  column-for-column the matrix one kernel produces;
* phase 2 is the single SDC's own code path.

So sharding changes *where* phase 1's multiplications run and nothing else —
the same argument (and the same test pattern) that made the executor
seam safe in the service runtime.

:class:`ClusterCoordinator` is a :class:`~repro.pisa.protocol.PisaCoordinator`
(same construction-time RNG draw order, same enrolment flows, the same
round driver) whose SDC build hook stands up the shard fleet, and adds
the cluster operations: ``kill_shard`` / ``slow_shard`` (the chaos
harness's fault surface), ``join_shard`` / ``leave_shard`` with block
handoff, and epoch commit with per-shard snapshots.
"""

from __future__ import annotations

import time

from repro.crypto.paillier import EncryptedNumber, PaillierKeypair
from repro.crypto.rand import RandomSource, default_rng
from repro.crypto.signatures import RsaFdhSigner
from repro.errors import ConfigurationError, ProtocolError
from repro.geo.region import PrivacyRegion
from repro.net.transport import InMemoryTransport, resolve_transport
from repro.pisa.kernel import CellTable
from repro.pisa.messages import PUUpdateMessage
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.sdc_server import SdcFront
from repro.pisa.storage import (
    encode_shard_state,
    restore_directory,
    serialize_directory,
    serialize_shard_state,
)
from repro.pisa.su_client import SUClient
from repro.resilience.journal import JournaledClock, JournalingRandomSource
from repro.store.coldstart import rebuild_shard
from repro.store.memory import MemoryStateStore
from repro.watch.entities import SUTransmitter
from repro.watch.environment import SpectrumEnvironment

from repro.cluster.fencing import LeaseAuthority
from repro.cluster.membership import ClusterMembership
from repro.cluster.rebalance import HandoffPlan, execute_handoff, plan_handoff
from repro.cluster.replica import ShardReplicaSet
from repro.cluster.router import ROUTER_ENDPOINT, ShardRouter
from repro.cluster.shard import SdcShard, ShardPhase1Request, boot_shard

__all__ = ["ClusterSdc", "ClusterCoordinator"]


class ClusterSdc(SdcFront):
    """The SDC request front over the shard fleet."""

    def __init__(
        self,
        environment: SpectrumEnvironment,
        directory,
        signer: RsaFdhSigner,
        router: ShardRouter,
        issuer_id: str = "sdc",
        rng: RandomSource | None = None,
        clock=time.time,
        journal=None,
    ) -> None:
        super().__init__(
            environment, directory, signer, issuer_id=issuer_id, rng=rng, clock=clock
        )
        self.router = router
        #: Optional :class:`repro.resilience.journal.EpochJournal`.  When
        #: set, protocol-step markers are write-ahead logged and each
        #: phase's randomness — which the front has fully drawn by the
        #: time it calls :meth:`_blind` / :meth:`_q_sum` — is put behind
        #: a durability barrier before anything derived from it leaves,
        #: so a crash mid-phase replays byte-identically.
        self.journal = journal

    # -- Figure 4 step 4 ---------------------------------------------------------

    def handle_pu_update(self, message: PUUpdateMessage) -> None:
        """Route the update to the owning shard (validated — and its
        store row written — by that shard's replica set)."""
        if self.journal is not None:
            self.journal.pu_update(message.to_bytes())
        self.router.route_pu_update(message)

    # -- Figure 5 phase 1 --------------------------------------------------------

    def _blind(self, round_id, request, blindings, span):
        """Scatter phase 1 and reassemble the exact single-SDC ``Ṽ``.

        ``span`` becomes the parent of the per-shard scatter spans.
        """
        if self.journal is not None:
            # Every phase-1 random input is drawn; barrier before the
            # first message derived from it can leave the process.
            self.journal.phase1_committed(round_id)
        split = self.router.split_columns(request.region_blocks)
        subqueries = {}
        for shard_id, columns in split.items():
            subqueries[shard_id] = ShardPhase1Request(
                round_id=round_id,
                su_id=request.su_id,
                shard_id=shard_id,
                columns=columns,
                blocks=tuple(request.region_blocks[k] for k in columns),
                matrix=tuple(
                    tuple(row[k] for k in columns) for row in request.matrix
                ),
                blindings=tuple(
                    tuple(row[k] for k in columns) for row in blindings
                ),
            )
        if span is not None:
            span.set_attribute("shards", len(subqueries))
        responses = self.router.scatter_phase1(subqueries, parent=span)
        # Gather: place each shard's columns back at their request
        # positions — the reassembled matrix is column-for-column the
        # matrix one kernel over every block produces.
        num_channels = self.environment.num_channels
        width = len(request.region_blocks)
        grid: list[list[EncryptedNumber | None]] = [
            [None] * width for _ in range(num_channels)
        ]
        for response in responses.values():
            for j, k in enumerate(response.columns):
                for c in range(num_channels):
                    grid[c][k] = response.matrix[c][j]
        return tuple(tuple(row) for row in grid)

    # -- Figure 5 phase 2 --------------------------------------------------------

    def _q_sum(self, pending, response) -> EncryptedNumber:
        """``ΣQ̃`` in the front, behind the phase-2 randomness barrier.

        No shard is asked: the product needs only ``X̃`` and the ε the
        front drew, so a shard lost between the phases costs the round
        nothing, and no shard ever sees ``X̃``.
        """
        if self.journal is not None:
            # The signature obfuscator, η and the license clock are
            # drawn; a coordinator killed anywhere past this barrier
            # replays the round byte-identically from the journal alone.
            self.journal.phase2_committed(response.round_id)
        return super()._q_sum(pending, response)

    # -- epoch control -----------------------------------------------------------

    def commit_epoch(self, epoch_id: int) -> None:
        """Commit on every shard; snapshot each primary at the new epoch."""
        self.router.commit_epoch(epoch_id)


class ClusterCoordinator(PisaCoordinator):
    """Builds and drives a complete sharded PISA deployment.

    A :class:`~repro.pisa.protocol.PisaCoordinator` whose SDC is the
    shard fleet: construction draws randomness in exactly the base
    order (group keypair, then signing keypair; shards draw nothing), so
    the same seed yields the same keys — the precondition of the
    transcript-equivalence test.
    """

    def __init__(
        self,
        environment: SpectrumEnvironment,
        num_shards: int = 2,
        key_bits: int = 2048,
        rng: RandomSource | None = None,
        transport: InMemoryTransport | None = None,
        stp_executor=None,
        shard_executor_factory=None,
        max_attempts: int = 2,
        scatter_threads: int | None = None,
        journal=None,
        clock=time.time,
        metrics=None,
        store=None,
    ) -> None:
        if num_shards < 1:
            raise ProtocolError("num_shards must be positive")
        # The build hooks run inside super().__init__; stash their
        # dependencies first.
        self.journal = journal
        if journal is not None:
            # Journal the shared draw stream at the root: key generation,
            # blinding triples, client randomness — everything the
            # deployment ever draws goes through this one wrapper, so one
            # journal replays the whole deployment.
            rng = JournalingRandomSource(default_rng(rng), journal)
            clock = JournaledClock(journal, base=clock)
        self._clock = clock
        self._num_shards = num_shards
        self._shard_executor_factory = shard_executor_factory
        self._max_attempts = max_attempts
        self._scatter_threads = scatter_threads
        self._metrics = metrics
        #: The deployment's :class:`~repro.store.base.StateStore` (in
        #: memory unless a durable one is passed): epoch snapshots, PU
        #: rows, leases and the key directory all live in it, which is
        #: what makes any shard cold-startable.
        self.store = store if store is not None else MemoryStateStore()
        super().__init__(
            environment,
            key_bits=key_bits,
            rng=rng,
            transport=transport if transport is not None else InMemoryTransport(),
            executor=stp_executor,
        )
        self._persist_directory()

    def _build_sdc(self, signer, executor) -> ClusterSdc:
        """Stand up the shard fleet and the front over it.

        Control plane only — deterministic, no RNG draws.
        """
        environment, store, metrics = self.environment, self.store, self._metrics
        # A reopened store must be this deployment's: its snapshots and
        # PU rows are ciphertexts under the group key it persisted.
        stored = store.get_directory()
        if stored and restore_directory(stored).group_public_key != self.stp.group_public_key:
            raise ConfigurationError("the state store belongs to another deployment")
        #: What every shard's kernel reads of the map, in memory or shipped
        #: in a worker's bootstrap.
        self.cells = CellTable.of(environment)
        shard_ids = tuple(f"shard-{i}" for i in range(self._num_shards))
        self.membership = ClusterMembership(shard_ids)
        self.replica_sets: dict[str, ShardReplicaSet] = {
            shard_id: self._build_replica_set(shard_id) for shard_id in shard_ids
        }
        assignment = self.membership.ring.assignment(
            tuple(range(environment.num_blocks))
        )
        for shard_id, blocks in assignment.items():
            self.replica_sets[shard_id].assign_blocks(blocks)
        #: The deployment's single lease issuer.  Durable through the
        #: store (tokens survive kill9-and-coldstart) and journaled, so
        #: the exactly-one-writer audit can reconstruct every handover.
        self.fencing = LeaseAuthority(
            store=store, journal=self.journal, metrics=metrics
        )
        self.router = ShardRouter(
            self.membership,
            self.replica_sets,
            # Unwrap decorator transports (the sanitizer) so link
            # accounting and fault handling reach the transport itself
            # regardless of stacking order.
            transport=resolve_transport(self.transport),
            max_attempts=self._max_attempts,
            scatter_threads=self._scatter_threads,
            metrics=metrics,
            fencing=self.fencing,
        )
        # A durable store may already hold fenced leases from a previous
        # incarnation; replicas must adopt them before serving.
        for shard_id in shard_ids:
            token = self.fencing.token(shard_id)
            if token:
                self.replica_sets[shard_id].install_fence(token)
        if metrics is not None:
            self.transport.attach_metrics(metrics)
        return ClusterSdc(
            environment,
            directory=self.stp.directory,
            signer=signer,
            router=self.router,
            rng=self._rng,
            clock=self._clock,
            journal=self.journal,
        )

    def _build_replica_set(
        self, shard_id: str, blob: bytes | None = None
    ) -> ShardReplicaSet:
        return ShardReplicaSet(
            shard_id, self._boot_shard, self.store, journal=self.journal, blob=blob
        )

    def _boot_shard(self, replica_set: ShardReplicaSet) -> SdcShard:
        """A replica set's ``boot``: a fresh in-process shard from its blob."""
        executor = (
            self._shard_executor_factory(replica_set.shard_id)
            if self._shard_executor_factory is not None
            else None
        )
        return boot_shard(
            replica_set.blob(),
            self.cells,
            self.stp.group_public_key,
            fence_token=replica_set.fence_token,
            executor=executor,
        )

    def close(self) -> None:
        """Release the scatter threads (executors stay the caller's)."""
        self.router.close()

    # -- enrolment -------------------------------------------------------------------

    def enroll_su(
        self,
        su: SUTransmitter,
        region: PrivacyRegion | None = None,
        keypair: PaillierKeypair | None = None,
    ) -> SUClient:
        client = super().enroll_su(su, region=region, keypair=keypair)
        self._persist_directory()
        return client

    def _persist_directory(self) -> None:
        """Mirror the key directory into the store."""
        self.store.put_directory(serialize_directory(self.stp.directory))

    # -- cluster operations ------------------------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """Crash a shard's replica and cut its wire (failover drill)."""
        self.replica_sets[shard_id].primary.kill()
        wire = resolve_transport(self.transport)
        if wire is not None:
            wire.fail_endpoint(shard_id)

    def slow_shard(self, shard_id: str, delay_s: float) -> None:
        """Delay every router→shard send by ``delay_s`` (gray-failure
        drill: the shard is slow, never dead)."""
        wire = resolve_transport(self.transport)
        if wire is not None:
            wire.inject_faults(
                ROUTER_ENDPOINT, shard_id, delay_s=delay_s, delay_count=-1
            )

    def cold_start_shard(self, shard_id: str, tail=None) -> int:
        """Rebuild a shard replica set from the store alone.

        The disaster path ``kill9-then-coldstart`` drills: the shard was
        SIGKILLed and nothing of the dead set is read.  The one rule
        (:func:`~repro.store.coldstart.rebuild_shard`) rebuilds the shard
        from the store's latest snapshot, its PU rows on the ring's
        blocks, and the unconsumed journal ``tail`` (a
        :class:`~repro.resilience.journal.JournalReadResult` from
        :func:`repro.store.checkpoint.recover`), and a fresh set boots
        its replica from the result's blob.  Returns the number of tail
        records applied.
        """
        assignment = self.membership.ring.assignment(
            tuple(range(self.environment.num_blocks))
        )
        live = encode_shard_state(
            shard_id,
            -1,
            assignment.get(shard_id, ()),
            (raw for _, _, raw in self.store.pu_updates(shard_id)),
        )
        shard = SdcShard(shard_id, self.cells, self.stp.group_public_key)
        _, applied = rebuild_shard(shard, live, self.store, tail)
        replica_set = self._build_replica_set(shard_id, serialize_shard_state(shard))
        # The new set is reachable again, as after a failover.
        resolve_transport(self.transport).restore_endpoint(shard_id)
        # A cold start is a new writer generation: re-adopt the persisted
        # lease (which survived the kill) and bump past it, so anything
        # the dead incarnation still has in flight is fenced out.
        self.fencing.register(shard_id)
        lease = self.fencing.bump(shard_id, "cold-start")
        replica_set.install_fence(lease.token)
        self.replica_sets[shard_id] = replica_set
        self.router.add_replica_set(shard_id, replica_set)
        replica_set.record_heartbeat()
        if self.journal is not None:
            self.journal.note(f"cold-start:{shard_id}")
        return applied

    def join_shard(self, shard_id: str) -> HandoffPlan:
        """Admit a new shard mid-epoch: ring swap + block handoff."""
        old_ring = self.membership.ring
        replica_set = self._build_replica_set(shard_id)
        self.replica_sets[shard_id] = replica_set
        self.router.add_replica_set(shard_id, replica_set)
        new_ring = self.membership.join(shard_id)
        plan = plan_handoff(old_ring, new_ring, self.environment.num_blocks)
        execute_handoff(plan, self.replica_sets)
        return plan

    def leave_shard(self, shard_id: str) -> HandoffPlan:
        """Retire a shard: ring swap + handoff of its blocks to survivors."""
        old_ring = self.membership.ring
        new_ring = self.membership.leave(shard_id)
        plan = plan_handoff(old_ring, new_ring, self.environment.num_blocks)
        execute_handoff(plan, self.replica_sets)
        self.router.remove_replica_set(shard_id)
        del self.replica_sets[shard_id]
        return plan
