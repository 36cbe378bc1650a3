"""The socket plane's epoch commit: only an accepted commit moves the epoch.

A restarted shard worker resumes from its replica set's blob, a
promotion reports :attr:`FailoverEvent.resumed_epoch` and the store
keeps the shard's snapshot; all three must name the last epoch a worker
*accepted*, never one whose frame was fenced or lost.
"""

from types import SimpleNamespace

import pytest

from repro.cluster.replica import ShardReplicaSet
from repro.errors import FencedError, LinkDownError
from repro.netd.remote import RemoteShard
from repro.pisa.storage import decode_shard_state
from repro.store import MemoryStateStore


class _Worker:
    """A transport whose worker accepts commits until told to refuse."""

    def __init__(self):
        self.refuse = None

    def transact(self, endpoint, kind, payload):
        if kind == "commit_epoch" and self.refuse is not None:
            raise self.refuse
        return SimpleNamespace(kind="ok", payload=b"")


def _remote(keypair, worker):
    return ShardReplicaSet(
        "shard-0",
        lambda _set: RemoteShard("shard-0", worker, None, keypair.public_key),
        store=MemoryStateStore(),
    )


def _bootstrap_epoch(remote) -> int:
    return decode_shard_state(remote.blob())[1]


@pytest.mark.parametrize(
    "failure",
    [FencedError("stale lease token"), LinkDownError("worker unreachable")],
    ids=["fenced", "link-down"],
)
def test_refused_commit_leaves_the_epoch(keypair, failure):
    worker = _Worker()
    remote = _remote(keypair, worker)
    remote.commit_epoch(0)
    assert _bootstrap_epoch(remote) == 0

    worker.refuse = failure
    with pytest.raises(type(failure)):
        remote.commit_epoch(1)
    assert _bootstrap_epoch(remote) == 0
    assert remote.store.latest_snapshot("shard-0")[0] == 0
    assert remote.promote().resumed_epoch == 0

    worker.refuse = None
    remote.commit_epoch(1)
    assert _bootstrap_epoch(remote) == 1
