"""Replica sets: one replica, the blob it boots from, and failover.

Each shard runs as a *replica set*: one replica serving sub-queries,
and, broker-side, the shard's whole state — its blocks, the latest
update per PU and the committed epoch.  That state serialises to one
``PISA-SHARD-STATE-v1`` blob, which is also the snapshot the set writes
to the deployment's :class:`~repro.store.base.StateStore` at commit,
beside one ``pu_updates`` row per tracked PU (written on every update,
deleted when a handoff moves the PU away).

The replica is whatever the coordinator's ``boot`` brings up from that
blob: an in-process :class:`~repro.cluster.shard.SdcShard` built by
:func:`~repro.cluster.shard.boot_shard`, or on the socket plane a
restarted worker that pulls the same blob
(:class:`~repro.netd.remote.RemoteShard`).  The set drives it through
the verbs both share, so failover, cold start and a handoff's detach
are one method each on both planes.

Failure detection is heartbeat-based and clock-injectable: the router
records a heartbeat on every successful sub-query, and
:meth:`ShardReplicaSet.is_alive` treats a replica as dead once its
heartbeat is older than ``DEFAULT_HEARTBEAT_TIMEOUT_S`` (or once a
sub-query raised :class:`~repro.errors.ShardDownError` outright).
Promotion boots a successor from the set's blob; it never reads the
dead replica.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.crypto.serialization import decode_str
from repro.pisa.messages import PUUpdateMessage
from repro.pisa.storage import decode_shard_state, encode_shard_state

__all__ = [
    "ShardReplicaSet",
    "FailoverEvent",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
]

#: How old a live replica's last heartbeat may be before the router's
#: liveness sweep treats it as stale.
DEFAULT_HEARTBEAT_TIMEOUT_S = 1.0


@dataclass(frozen=True)
class FailoverEvent:
    """One promotion, for the evaluation harness and the bench probe."""

    shard_id: str
    at: float
    resumed_epoch: int
    #: Lease the successor serves under (0 for a shard never fenced).
    fence_token: int = 0


class ShardReplicaSet:
    """What the broker tracks about one shard, wherever its replica runs.

    ``boot(replica_set)`` brings up a replica serving
    ``replica_set.blob()`` under ``replica_set.fence_token``; the set
    calls it once when built, and again on every promotion.  ``blob``
    seeds the set's state (a cold start's rebuilt shard), empty if not
    given.  The set is the only writer of its shard's PU rows and
    snapshots.
    """

    def __init__(
        self,
        shard_id: str,
        boot,
        store,
        journal=None,
        clock=time.monotonic,
        blob: bytes | None = None,
    ) -> None:
        self.shard_id = shard_id
        self._boot = boot
        self._clock = clock
        #: Optional :class:`repro.resilience.journal.EpochJournal`; when
        #: set, epoch commits and promotions are write-ahead logged.
        self.journal = journal
        #: The deployment's :class:`~repro.store.base.StateStore`.
        self.store = store
        # Promotion and heartbeat bookkeeping race with the router's
        # scatter threads; all mutations hold the lock.
        self._lock = threading.Lock()
        self._last_heartbeat = clock()
        self.failovers: list[FailoverEvent] = []
        #: Current lease for this shard (0 = never fenced).
        self.fence_token = 0
        #: Gray-failure flag: the replica is alive but degraded.  The
        #: router flags and counts it; the replica keeps serving.
        self.suspect = False
        # The shard's state, as the blob a replica boots from.
        self._blocks: set[int] = set()
        self._pu_updates: dict[str, bytes] = {}
        self._last_epoch = -1
        if blob is not None:
            _, self._last_epoch, blocks, updates = decode_shard_state(blob)
            self._blocks = set(blocks)
            # A PU update's bytes open with its PU id.
            self._pu_updates = {decode_str(raw, 0)[0]: raw for raw in updates}
        self.primary = boot(self)

    def blob(self) -> bytes:
        """The shard's state as one ``PISA-SHARD-STATE-v1`` blob."""
        with self._lock:
            return encode_shard_state(
                self.shard_id,
                self._last_epoch,
                sorted(self._blocks),
                (raw for _, raw in sorted(self._pu_updates.items())),
            )

    @property
    def blocks(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._blocks))

    @property
    def standby(self):
        """The one replica again, under the name the benchmark spine's
        traced probe still reads (``benchmarks/spine/workloads.py``,
        frozen until the benchmark's next change); goes with that read."""
        return self.primary

    # -- liveness ------------------------------------------------------------------

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
        """Replica liveness: not crashed and heartbeat within timeout."""
        return (
            self.primary.alive
            and self.heartbeat_age(now) <= DEFAULT_HEARTBEAT_TIMEOUT_S
        )

    # -- the shard's state ---------------------------------------------------------

    def assign_blocks(self, blocks: tuple[int, ...]) -> None:
        self.primary.assign_blocks(blocks)
        with self._lock:
            self._blocks.update(blocks)

    def apply_pu_update(self, message: PUUpdateMessage, fence_token: int = 0) -> None:
        """Apply one PU update on the replica, then record it and write
        its store row.

        Recorded *after* the replica accepted it (ownership and fence
        checked), under this shard's id, so a cold start restores one
        shard without scanning the fleet's.
        """
        self.primary.handle_pu_update(message, fence_token or self.fence_token)
        raw = message.to_bytes()
        with self._lock:
            self._pu_updates[message.pu_id] = raw
        self.store.put_pu_update(self.shard_id, message.pu_id, raw)

    def detach_block(self, block: int) -> tuple[PUUpdateMessage, ...]:
        """Handoff, source side: give up ``block`` and the PUs on it.

        The replica drops each PU's contribution (``⊖`` from the
        aggregate) and the store forgets its row; the returned updates
        are for the new owner's :meth:`apply_pu_update`.
        """
        moved = self.primary.detach_block(block)
        with self._lock:
            self._blocks.discard(block)
            for message in moved:
                del self._pu_updates[message.pu_id]
        for message in moved:
            self.store.delete_pu_update(self.shard_id, message.pu_id)
        return moved

    def commit_epoch(self, epoch_id: int, fence_token: int = 0) -> None:
        """Commit the epoch on the replica, then store the blob as its
        snapshot.  Only an epoch the replica accepted is one a boot may
        resume from: a fenced or failed commit leaves the blob as it was.
        """
        token = fence_token or self.fence_token
        self.primary.commit_epoch(epoch_id, token)
        with self._lock:
            self._last_epoch = max(self._last_epoch, epoch_id)
            epoch = self._last_epoch
        self.store.put_snapshot(self.shard_id, epoch, self.blob())
        if self.journal is not None:
            self.journal.epoch_commit(self.shard_id, epoch_id)
            if token:
                self.journal.writer_commit(self.shard_id, epoch_id, token)

    # -- fencing and failover ------------------------------------------------------

    def install_fence(self, token: int) -> None:
        """Ratchet the set's lease and push it to the replica.

        Called during fence-then-promote *before* the successor boots:
        the deposed replica learns the new token too, so its next write
        attempt dies with :class:`~repro.errors.FencedError` instead of
        landing.  The successor boots under the ratcheted token.
        """
        with self._lock:
            if token > self.fence_token:
                self.fence_token = token
        self.primary.observe_fence(token)

    def promote(self) -> FailoverEvent:
        """Boot a successor from the set's blob and swap it in.

        The dead (or deposed) replica is never read: the blob is the
        whole state.  Boot runs outside the lock, because a restarted
        worker pulls the blob through :meth:`blob`.
        """
        successor = self._boot(self)
        with self._lock:
            self.primary = successor
            self.suspect = False
            self._last_heartbeat = self._clock()
            event = FailoverEvent(
                shard_id=self.shard_id,
                at=self._clock(),
                resumed_epoch=self._last_epoch,
                fence_token=self.fence_token,
            )
            self.failovers.append(event)
        if self.journal is not None:
            self.journal.promote(self.shard_id, event.resumed_epoch)
        return event

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.shard_id!r}, "
            f"primary_alive={self.primary.alive}, "
            f"failovers={len(self.failovers)})"
        )
