"""A socket worker imports only what its role serves.

Each check runs in a fresh interpreter: the test process has long since
imported everything, so only a new ``sys.modules`` shows what one
``import`` statement pulls in.  The rule behind it (docs/networking.md,
*Startup*): a package ``__init__`` on a worker's import path imports no
broker-side module.
"""

import subprocess
import sys

import pytest

#: Broker-side modules a worker process must never load.
BROKER_SIDE = (
    "numpy",
    "repro.netd.plane",
    "repro.netd.supervisor",
    "repro.cluster.coordinator",
    "repro.pisa.protocol",
    "repro.service",
)


def loaded_after(statement: str, watched) -> list[str]:
    """Which of ``watched`` a fresh interpreter holds after ``statement``."""
    script = (
        f"import sys\n{statement}\n"
        f"print(*sorted(set({list(watched)!r}) & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    return out.split()


def test_the_worker_module_loads_no_broker_side_module():
    assert loaded_after("import repro.netd.worker", BROKER_SIDE) == []


def test_the_stp_role_loads_neither_numpy_nor_sqlite():
    statement = "import repro.pisa.stp_server, repro.netd.remote"
    assert loaded_after(statement, ("numpy", "sqlite3")) == []


#: A worker built the way ``_serve`` builds one: ``ShardState`` from a
#: bootstrap, with nothing imported ahead of it that the role might load.
SHARD_ROLE = """
import repro.netd.worker
from repro.crypto.paillier import generate_keypair
from repro.crypto.rand import DeterministicRandomSource
from repro.crypto.serialization import encode_public_key
from repro.netd.wire import encode_cells, encode_control
from repro.pisa.kernel import CellTable
from repro.pisa.storage import encode_shard_state
key = generate_keypair(256, rng=DeterministicRandomSource(seed=1)).public_key
repro.netd.worker.ShardState(encode_control(
    {"role": "shard", "cells": encode_cells(CellTable(1, 1, 3, ((7,),))), "fence_token": 0},
    encode_public_key(key), encode_shard_state("shard-0", -1, (0,), ()),
))
"""


def test_the_shard_role_loads_no_map():
    watched = ("numpy", "repro.watch.scenario", "repro.watch.environment", "repro.watch.matrices")
    assert loaded_after(SHARD_ROLE, watched) == []


def test_the_shard_role_keeps_no_disk():
    """The bootstrap blob is a shard worker's whole state: no store, no journal."""
    watched = ("sqlite3", "repro.store", "repro.resilience")
    assert loaded_after(SHARD_ROLE, watched) == []


@pytest.mark.parametrize(
    "statement",
    [
        "from repro.cluster import ClusterCoordinator, ClusterSdc",
        "from repro.store import SqliteStateStore",
        "from repro.resilience import EpochJournal, JournalWriter",
    ],
)
def test_the_spines_imports_still_resolve(statement):
    subprocess.run([sys.executable, "-c", statement], check=True)


def test_the_package_resolves_the_coordinator_lazily():
    import repro.cluster
    from repro.cluster import coordinator

    assert repro.cluster.ClusterCoordinator is coordinator.ClusterCoordinator
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.cluster.Nope  # noqa: B018
