"""The cluster membership table: who is on the ring, and since when.

Membership is the control plane of the sharded SDC: the router reads it
to build the consistent-hash ring, the rebalancer reads two successive
versions of it to plan block handoff, and the heartbeat monitor writes
into it from scatter threads.  The table is therefore *versioned* — each
join/leave bumps ``version`` and re-derives the ring — and every
mutation is lock-guarded (the audit's SVC001 rule covers this module).

States are deliberately minimal: a shard is ``ACTIVE`` (owns blocks,
serves sub-queries) or ``LEFT`` (historical record only).  Joining and
leaving are atomic with the ring swap; the *data* handoff between the
two ring versions is :mod:`repro.cluster.rebalance`'s job and runs
between epochs, never mid-round.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.cluster.ring import ConsistentHashRing
from repro.errors import MembershipError

__all__ = ["MemberRecord", "ClusterMembership", "STATUS_ACTIVE", "STATUS_LEFT"]

STATUS_ACTIVE = "active"
STATUS_LEFT = "left"


@dataclass(frozen=True)
class MemberRecord:
    """One shard's entry in the membership table."""

    shard_id: str
    status: str
    joined_version: int
    left_version: int | None = None


class ClusterMembership:
    """Versioned member table + the ring derived from it."""

    def __init__(self, members: tuple[str, ...] = ()) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, MemberRecord] = {}
        self.version = 0
        self._ring = ConsistentHashRing()
        for shard_id in members:
            self.join(shard_id)

    # -- reads ---------------------------------------------------------------------

    @property
    def ring(self) -> ConsistentHashRing:
        """The current ring (rebuilt atomically on every change)."""
        with self._lock:
            return self._ring

    def active_members(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(
                sorted(
                    shard_id
                    for shard_id, record in self._records.items()
                    if record.status == STATUS_ACTIVE
                )
            )

    def record(self, shard_id: str) -> MemberRecord:
        with self._lock:
            record = self._records.get(shard_id)
        if record is None:
            raise MembershipError(f"shard {shard_id!r} was never a member")
        return record

    def is_active(self, shard_id: str) -> bool:
        with self._lock:
            record = self._records.get(shard_id)
            return record is not None and record.status == STATUS_ACTIVE

    def __len__(self) -> int:
        return len(self.active_members())

    # -- mutations -----------------------------------------------------------------

    def join(self, shard_id: str) -> ConsistentHashRing:
        """Admit a shard; returns the *new* ring (old one stays valid).

        A shard id is permanent: a member that left cannot rejoin under
        the same id (its historical record would become ambiguous — spin
        up a successor id instead).
        """
        with self._lock:
            existing = self._records.get(shard_id)
            if existing is not None:
                if existing.status == STATUS_ACTIVE:
                    raise MembershipError(f"shard {shard_id!r} is already active")
                raise MembershipError(
                    f"shard {shard_id!r} left at version "
                    f"{existing.left_version}; ids are not reusable"
                )
            self.version += 1
            self._records[shard_id] = MemberRecord(
                shard_id=shard_id,
                status=STATUS_ACTIVE,
                joined_version=self.version,
            )
            new_ring = self._ring.clone()
            new_ring.add_node(shard_id)
            self._ring = new_ring
            return new_ring

    def leave(self, shard_id: str) -> ConsistentHashRing:
        """Retire a shard; returns the new ring. The last member cannot leave."""
        with self._lock:
            record = self._records.get(shard_id)
            if record is None or record.status != STATUS_ACTIVE:
                raise MembershipError(f"shard {shard_id!r} is not an active member")
            active = sum(
                1 for r in self._records.values() if r.status == STATUS_ACTIVE
            )
            if active == 1:
                raise MembershipError("the last shard cannot leave the cluster")
            self.version += 1
            self._records[shard_id] = MemberRecord(
                shard_id=shard_id,
                status=STATUS_LEFT,
                joined_version=record.joined_version,
                left_version=self.version,
            )
            new_ring = self._ring.clone()
            new_ring.remove_node(shard_id)
            self._ring = new_ring
            return new_ring

    def __repr__(self) -> str:
        return (
            f"ClusterMembership(active={len(self)}, version={self.version})"
        )
