"""Consistent-hash ring mapping geographic block ids to SDC shards.

The 600-block spectrum map partitions across shards by *block id*, the
unit every per-cell homomorphic term already decomposes over: a PU
update touches one block, an SU request's matrix columns each name one
disclosed block.  Consistent hashing with virtual nodes gives the two
properties the cluster needs:

* **balance** — each shard owns ≈ ``B / N`` blocks (virtual nodes smooth
  the variance of raw hash partitioning);
* **stable rebalancing** — adding a shard moves blocks only *onto* the
  new shard, removing one moves blocks only *off* it.  No unrelated
  block changes owner, so a membership change hands off a bounded slice
  of encrypted PU state instead of reshuffling the whole map
  (:mod:`repro.cluster.rebalance` relies on this, and a test asserts it).

Hash points come from :func:`repro.crypto.hashing.sha256`, so placement
is stable across processes and Python versions (no ``hash()``
randomisation) — a promoted replica or a restarted router re-derives the
identical block→shard map from the member list alone.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from repro.crypto.hashing import sha256
from repro.errors import ClusterError

__all__ = ["ConsistentHashRing", "DEFAULT_VIRTUAL_NODES"]

#: Virtual nodes per shard.  64 keeps the largest/smallest shard load
#: within ~2x at small member counts, at negligible ring-build cost.
DEFAULT_VIRTUAL_NODES = 64


def _point(label: str) -> int:
    """A stable 64-bit ring coordinate for ``label``."""
    return int.from_bytes(sha256(label.encode("utf-8"))[:8], "big")


class ConsistentHashRing:
    """Block-id → shard-id placement with virtual nodes.

    The ring is rebuilt (sorted point list) on membership change and
    read-only between changes; lookups are ``O(log(N · vnodes))``.
    """

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._nodes: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add_node(node)

    # -- membership ------------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise ClusterError(f"shard {node_id!r} is already on the ring")
        self._nodes.add(node_id)
        self._rebuild()

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise ClusterError(f"shard {node_id!r} is not on the ring")
        self._nodes.remove(node_id)
        self._rebuild()

    def _rebuild(self) -> None:
        pairs: list[tuple[int, str]] = []
        for node in self._nodes:
            for vnode in range(DEFAULT_VIRTUAL_NODES):
                pairs.append((_point(f"{node}#{vnode}"), node))
        pairs.sort()
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    # -- placement -------------------------------------------------------------

    def node_for(self, key: int | str) -> str:
        """The shard owning ``key`` (a block id or any stable label)."""
        if not self._nodes:
            raise ClusterError("ring has no shards")
        label = f"block:{key}" if isinstance(key, int) else key
        index = bisect_right(self._points, _point(label))
        if index == len(self._points):
            index = 0  # wrap past the highest point
        return self._owners[index]

    def assignment(self, blocks: Sequence[int]) -> dict[str, tuple[int, ...]]:
        """``{shard_id: sorted block ids}`` over every shard (empty ones too)."""
        table: dict[str, list[int]] = {node: [] for node in self._nodes}
        for block in blocks:
            table[self.node_for(block)].append(block)
        return {node: tuple(sorted(owned)) for node, owned in table.items()}

    def moved_keys(
        self, other: "ConsistentHashRing", keys: Sequence[int]
    ) -> tuple[int, ...]:
        """Keys whose owner differs between this ring and ``other``."""
        return tuple(
            key for key in keys if self.node_for(key) != other.node_for(key)
        )

    def clone(self) -> "ConsistentHashRing":
        return ConsistentHashRing(self._nodes)

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing(shards={len(self._nodes)}, "
            f"vnodes={DEFAULT_VIRTUAL_NODES})"
        )
