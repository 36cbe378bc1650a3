"""Replica sets: a warm standby, heartbeats, and failover promotion.

Each shard runs as a *replica set*: a primary :class:`SdcShard` serving
sub-queries and a warm standby mirroring every PU update as it is
applied.  Losing a shard therefore loses no durable state — the standby
holds the same encrypted aggregate, and the set keeps the shard's rows
of the deployment's :class:`~repro.store.base.StateStore` current: one
``pu_updates`` row per tracked PU (written on every update, deleted when
a handoff moves the PU away) and the epoch snapshot written at commit.

Failure detection is heartbeat-based and clock-injectable: the router
records a heartbeat on every successful sub-query, and
:meth:`ReplicaSetBase.is_alive` treats a primary as dead once its
heartbeat is older than ``DEFAULT_HEARTBEAT_TIMEOUT_S`` (or once a sub-query
raised :class:`~repro.errors.ShardDownError` outright).  Promotion swaps
the standby in as primary and rebuilds a fresh standby behind it with
:func:`repro.store.coldstart.rebuild_shard` — the same rule, fed from
the same store, a cold operator restart uses.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ClusterError
from repro.pisa.messages import PUUpdateMessage
from repro.pisa.storage import serialize_shard_state
from repro.store.coldstart import rebuild_shard

from repro.cluster.shard import SdcShard

__all__ = [
    "ReplicaSetBase",
    "ShardReplicaSet",
    "FailoverEvent",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
]

#: How old a live primary's last heartbeat may be before the router's
#: liveness sweep treats it as stale.
DEFAULT_HEARTBEAT_TIMEOUT_S = 1.0


@dataclass(frozen=True)
class FailoverEvent:
    """One promotion, for the evaluation harness and the bench probe."""

    shard_id: str
    at: float
    resumed_epoch: int
    from_snapshot: bool
    #: Lease the successor serves under (0 for a shard never fenced).
    fence_token: int = 0


class ReplicaSetBase:
    """What the broker tracks about one shard, wherever its replicas run.

    Heartbeats, gray-failure suspicion, the fence ratchet and the
    failover log — shared by the in-process :class:`ShardReplicaSet` and
    the socket plane's :class:`~repro.netd.remote.RemoteShardSet`.
    Subclasses provide ``primary`` (anything with an ``alive`` flag).
    """

    def __init__(self, shard_id: str, clock) -> None:
        self.shard_id = shard_id
        self._clock = clock
        # Promotion and heartbeat bookkeeping race with the router's
        # scatter threads; all mutations hold the lock.
        self._lock = threading.Lock()
        self._last_heartbeat = clock()
        self.failovers: list[FailoverEvent] = []
        #: Current lease for this shard (0 = never fenced).
        self.fence_token = 0
        #: Gray-failure flag: primary is alive but degraded; the router
        #: routes around it instead of promoting.
        self.suspect = False

    def mark_suspect(self, suspect: bool = True) -> None:
        self.suspect = suspect

    def record_heartbeat(self, now: float | None = None) -> None:
        with self._lock:
            self._last_heartbeat = self._clock() if now is None else now

    def heartbeat_age(self, now: float | None = None) -> float:
        with self._lock:
            reference = self._clock() if now is None else now
            return reference - self._last_heartbeat

    def is_alive(self, now: float | None = None) -> bool:
        """Primary liveness: not crashed and heartbeat within timeout."""
        return (
            self.primary.alive
            and self.heartbeat_age(now) <= DEFAULT_HEARTBEAT_TIMEOUT_S
        )

    def _ratchet_fence(self, token: int) -> None:
        """Leases only move forward."""
        with self._lock:
            if token > self.fence_token:
                self.fence_token = token

    def _log_failover(self, resumed_epoch: int, from_snapshot: bool) -> FailoverEvent:
        """Record one promotion; the caller holds ``self._lock``."""
        self.suspect = False
        self._last_heartbeat = self._clock()
        event = FailoverEvent(
            shard_id=self.shard_id,
            at=self._clock(),
            resumed_epoch=resumed_epoch,
            from_snapshot=from_snapshot,
            fence_token=self.fence_token,
        )
        self.failovers.append(event)
        return event

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.shard_id!r}, "
            f"primary_alive={self.primary.alive}, "
            f"failovers={len(self.failovers)})"
        )


class ShardReplicaSet(ReplicaSetBase):
    """Primary + warm standby for one shard, with promote-on-failure."""

    def __init__(
        self,
        shard_id: str,
        shard_factory,
        store,
        clock=time.monotonic,
        journal=None,
    ) -> None:
        super().__init__(shard_id, clock)
        #: ``shard_factory(role: str) -> SdcShard`` — builds an empty
        #: shard (the replica layer assigns blocks and replays state).
        self._factory = shard_factory
        #: The deployment's :class:`~repro.store.base.StateStore`.  This
        #: set is the only writer of its shard's PU rows and snapshots.
        self.store = store
        #: Optional :class:`repro.resilience.journal.EpochJournal`; when
        #: set, epoch commits and promotions are write-ahead logged.
        self.journal = journal
        self.primary: SdcShard = self._factory("a")
        self.standby: SdcShard = self._factory("b")

    # -- state fan-out -------------------------------------------------------------

    def assign_blocks(self, blocks: tuple[int, ...]) -> None:
        self.primary.assign_blocks(blocks)
        self.standby.assign_blocks(blocks)

    def release_blocks(self, blocks: tuple[int, ...]) -> None:
        self.primary.release_blocks(blocks)
        self.standby.release_blocks(blocks)

    @property
    def blocks(self) -> tuple[int, ...]:
        return self.primary.blocks

    def apply_pu_update(
        self, message: PUUpdateMessage, fence_token: int = 0
    ) -> None:
        """Warm mirroring: every PU update lands on primary *and* standby.

        The store row is written *after* both replicas accepted the
        update (ownership and fence checked), under this shard's id, so
        a cold start restores one shard without scanning the fleet's.
        """
        token = fence_token or self.fence_token
        self.primary.handle_pu_update(message, fence_token=token)
        self.standby.handle_pu_update(message, fence_token=token)
        self.store.put_pu_update(self.shard_id, message.pu_id, message.to_bytes())

    def detach_block(self, block: int) -> tuple[PUUpdateMessage, ...]:
        """Handoff, source side: give up ``block`` and the PUs on it.

        Both replicas drop each PU's contribution (``⊖`` from the
        aggregate) and the store forgets its row; the returned updates
        are for the new owner's :meth:`apply_pu_update`.
        """
        moved = []
        for pu_id in self.primary.pus_on_blocks((block,)):
            moved.append(self.primary.remove_pu(pu_id))
            self.standby.remove_pu(pu_id)
            self.store.delete_pu_update(self.shard_id, pu_id)
        self.release_blocks((block,))
        return tuple(moved)

    def commit_epoch(
        self, epoch_id: int, snapshot: bool = True, fence_token: int = 0
    ) -> None:
        """Mark the epoch committed on both replicas; snapshot the primary."""
        token = fence_token or self.fence_token
        self.primary.commit_epoch(epoch_id, fence_token=token)
        self.standby.commit_epoch(epoch_id, fence_token=token)
        if snapshot:
            self.store.put_snapshot(
                self.shard_id,
                self.primary.last_committed_epoch,
                serialize_shard_state(self.primary),
            )
        if self.journal is not None:
            self.journal.epoch_commit(self.shard_id, epoch_id)
            if token:
                self.journal.writer_commit(self.shard_id, epoch_id, token)

    # -- fencing -------------------------------------------------------------------

    def install_fence(self, token: int) -> None:
        """Ratchet the set's lease and push it to every reachable replica.

        Called during fence-then-promote *before* the swap: the zombie
        primary (still the ``primary`` slot at that point) learns the new
        token too, so its next write attempt dies with
        :class:`~repro.errors.FencedError` instead of landing.
        """
        self._ratchet_fence(token)
        self.primary.observe_fence(token)
        self.standby.observe_fence(token)

    def serving_replica(self) -> SdcShard:
        """The replica read-type sub-queries should hit right now.

        Normally the primary; when the set is *suspect* (alive but
        degraded — a gray failure) and the standby is live, the standby
        serves instead.  Both replicas mirror every PU update and commit
        the same epochs, so the choice never changes a protocol byte —
        it only routes around the slow box without burning a promotion.
        """
        if self.suspect and self.standby.alive:
            return self.standby
        return self.primary

    def kill_primary(self) -> None:
        """Inject a primary crash (the loadtest's ``--kill-shard``)."""
        self.primary.kill()

    # -- failover ------------------------------------------------------------------

    def promote(self) -> FailoverEvent:
        """Swap the standby in as primary; rebuild a fresh standby.

        The new standby is rebuilt by the one rule
        (:func:`~repro.store.coldstart.rebuild_shard`): the stored
        snapshot if there is one, then everything the promoted primary
        holds.  Both replicas agree before the next sub-query is served.
        """
        with self._lock:
            if not self.standby.alive:
                raise ClusterError(
                    f"shard {self.shard_id!r} has no live standby to promote"
                )
            promoted = self.standby
            fresh = self._factory("standby")
            from_snapshot, _ = rebuild_shard(
                fresh, serialize_shard_state(promoted), self.store
            )
            # Both replicas of the new generation serve under the lease
            # current at promotion time.
            promoted.observe_fence(self.fence_token)
            fresh.observe_fence(self.fence_token)
            self.primary = promoted
            self.standby = fresh
            event = self._log_failover(
                promoted.last_committed_epoch, from_snapshot
            )
        if self.journal is not None:
            self.journal.promote(self.shard_id, event.resumed_epoch)
        return event
