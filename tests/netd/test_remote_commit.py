"""The socket plane's epoch commit: only an accepted commit moves the epoch.

A restarted shard worker resumes from :meth:`RemoteShardSet.bootstrap_payload`,
a promotion reports :attr:`FailoverEvent.resumed_epoch` and the store
keeps the shard's snapshot; all three must name the last epoch a worker
*accepted*, never one whose frame was fenced or lost.
"""

from types import SimpleNamespace

import pytest

from repro.errors import FencedError, LinkDownError
from repro.netd.remote import RemoteShardSet
from repro.netd.wire import decode_control
from repro.pisa.kernel import CellTable
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
    return RemoteShardSet(
        "shard-0",
        worker,
        supervisor=SimpleNamespace(ensure_running=lambda shard_id: None),
        authority=SimpleNamespace(register_bootstrap=lambda name, provider: None),
        cells=CellTable(1, 1, 3, ((7,),)),
        group_public_key=keypair.public_key,
        store=MemoryStateStore(),
    )


def _bootstrap_epoch(remote) -> int:
    _, (_, state) = decode_control(remote.bootstrap_payload(), 2)
    return decode_shard_state(state)[1]


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
