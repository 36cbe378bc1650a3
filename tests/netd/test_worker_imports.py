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
