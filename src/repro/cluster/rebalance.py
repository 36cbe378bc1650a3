"""Block handoff between two ring versions (shard join/leave).

A membership change produces a new ring; the delta between the old and
new rings is a set of *block moves*.  Because the ring is a consistent
hash, that delta is bounded — a join only pulls blocks onto the new
shard, a leave only pushes the leaver's blocks out — and the handoff is
a pure state transfer of each moved block's encrypted PU contributions:

1. plan: diff the two rings over the full block universe;
2. for every PU whose block moves, detach its latest update from the
   source replica set (``⊖`` from the aggregate) and re-apply it on the
   target (``⊕``) — the same audited eq. (9) maintenance path that built
   the aggregate in the first place;
3. swap the block ownership sets.

Handoff runs *between epochs*: the coordinator finishes in-flight
rounds against the old ring, executes the plan, then routes the next
epoch with the new ring.  Nothing here touches per-round state, so a
mid-epoch join/leave can never strand a pending round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.replica import ShardReplicaSet
from repro.cluster.ring import ConsistentHashRing
from repro.errors import ClusterError

__all__ = ["BlockMove", "HandoffPlan", "plan_handoff", "execute_handoff"]


@dataclass(frozen=True)
class BlockMove:
    """One block changing owner between ring versions."""

    block: int
    source: str
    target: str


@dataclass(frozen=True)
class HandoffPlan:
    """Every move a membership change requires, plus audit totals."""

    moves: tuple[BlockMove, ...]

    @property
    def blocks_moved(self) -> int:
        return len(self.moves)

    def moves_from(self, shard_id: str) -> tuple[BlockMove, ...]:
        return tuple(move for move in self.moves if move.source == shard_id)

    def moves_to(self, shard_id: str) -> tuple[BlockMove, ...]:
        return tuple(move for move in self.moves if move.target == shard_id)


def plan_handoff(
    old_ring: ConsistentHashRing,
    new_ring: ConsistentHashRing,
    num_blocks: int,
) -> HandoffPlan:
    """Diff two rings over blocks ``0..num_blocks-1``."""
    moves = []
    for block in range(num_blocks):
        source = old_ring.node_for(block)
        target = new_ring.node_for(block)
        if source != target:
            moves.append(BlockMove(block=block, source=source, target=target))
    return HandoffPlan(moves=tuple(moves))


def execute_handoff(
    plan: HandoffPlan,
    replica_sets: dict[str, ShardReplicaSet],
) -> int:
    """Apply a plan: transfer PU state and ownership; returns PUs moved.

    Each side goes through its replica set, so both replicas of the
    source release the block, both replicas of the target receive the PU
    updates, and the store's rows move with them — a failover or cold
    start during *or after* the handoff finds consistent state.
    """
    pus_moved = 0
    for move in plan.moves:
        source = replica_sets.get(move.source)
        target = replica_sets.get(move.target)
        if target is None:
            raise ClusterError(
                f"handoff target {move.target!r} has no replica set"
            )
        # Grant ownership before transferring so re-applied updates pass
        # the target's ownership check.
        target.assign_blocks((move.block,))
        if source is not None:
            for update in source.detach_block(move.block):
                target.apply_pu_update(update)
                pus_moved += 1
    return pus_moved
