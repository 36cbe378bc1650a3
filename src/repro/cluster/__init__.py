"""repro.cluster — the sharded SDC plane.

Partitions the spectrum map's blocks across N SDC shards behind a
consistent-hash ring, scatter-gathers each request's homomorphic work,
and merges the encrypted partials into a transcript byte-identical to
one SDC's.  Each shard gets a warm standby with heartbeat-based
failover; membership changes hand blocks off between epochs.

Layering (all trust-domain-internal to the SDC):

* :mod:`repro.cluster.ring` — block → shard placement;
* :mod:`repro.cluster.shard` — the per-partition worker;
* :mod:`repro.cluster.router` — scatter-gather + bounded-retry failover;
* :mod:`repro.cluster.replica` — warm standby, snapshots, promotion;
* :mod:`repro.cluster.membership` / :mod:`repro.cluster.rebalance` —
  join/leave and block handoff;
* :mod:`repro.cluster.coordinator` — the drop-in SDC facade and the
  deployment builder.

See ``docs/cluster.md`` for the architecture and failure model.
"""

from repro.cluster.coordinator import ClusterCoordinator, ClusterSdc
from repro.cluster.fencing import FenceLease, LeaseAuthority
from repro.cluster.membership import ClusterMembership
from repro.cluster.rebalance import HandoffPlan, execute_handoff, plan_handoff
from repro.cluster.replica import ShardReplicaSet
from repro.cluster.ring import ConsistentHashRing
from repro.cluster.router import ShardRouter
from repro.cluster.shard import SdcShard

__all__ = [
    "ClusterCoordinator",
    "ClusterSdc",
    "ClusterMembership",
    "ConsistentHashRing",
    "FenceLease",
    "HandoffPlan",
    "LeaseAuthority",
    "SdcShard",
    "ShardReplicaSet",
    "ShardRouter",
    "execute_handoff",
    "plan_handoff",
]
