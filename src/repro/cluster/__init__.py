"""repro.cluster — the sharded SDC plane.

Partitions the spectrum map's blocks across N SDC shards behind a
consistent-hash ring and scatter-gathers each request's phase-1
homomorphic work into a transcript byte-identical to one SDC's; phase 2
runs on the front.  Each shard is one replica plus the state blob it
boots from, with heartbeat-based failover that boots a successor from
that blob; membership changes hand blocks off between epochs.

Layering (all trust-domain-internal to the SDC):

* :mod:`repro.cluster.ring` — block → shard placement;
* :mod:`repro.cluster.shard` — the per-partition worker;
* :mod:`repro.cluster.router` — scatter-gather + bounded-retry failover;
* :mod:`repro.cluster.replica` — the shard's state blob, snapshots,
  promotion;
* :mod:`repro.cluster.membership` / :mod:`repro.cluster.rebalance` —
  join/leave and block handoff;
* :mod:`repro.cluster.coordinator` — the drop-in SDC facade and the
  deployment builder.

Nothing is imported eagerly: a shard worker imports
:mod:`repro.cluster.shard` without the broker-side router, replicas
and coordinator.  :class:`ClusterCoordinator` and :class:`ClusterSdc`
stay importable from the package (callers outside the library use
that spelling) and resolve on first access.

See ``docs/cluster.md`` for the architecture and failure model.
"""

__all__ = ["ClusterCoordinator", "ClusterSdc"]


def __getattr__(name: str):
    if name in __all__:
        from repro.cluster import coordinator

        return getattr(coordinator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
