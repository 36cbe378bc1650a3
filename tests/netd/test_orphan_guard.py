"""The workers' orphan guard: a worker whose broker is gone exits.

A broker that dies without a graceful stop (SIGKILL, OOM) leaves its
workers reparented.  ``netd/worker.py::_serve`` compares ``getppid()``
with the ``REPRO_NETD_PARENT_PID`` its supervisor exported, on every
poll of the bootstrap pull and every 0.5 s tick after it, and stops once
they differ.  Here the "broker" is a short-lived intermediate process
that spawns a shard worker the way the supervisor does; the worker's
authority port is closed, so it sits in the bootstrap poll.
"""

import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager

#: Spawns a shard worker with itself recorded as the parent, prints the
#: worker's pid, and lives until its stdin closes.
INTERMEDIATE = """
import os, subprocess, sys
env = dict(os.environ, REPRO_NETD_PARENT_PID=str(os.getpid()))
worker = subprocess.Popen(
    [sys.executable, "-m", "repro.netd.worker", "--role", "shard",
     "--name", "shard-0", "--authority", sys.argv[1]],
    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
)
print(worker.pid, flush=True)
sys.stdin.read()
"""

#: Long enough for a worker to import and reach its bootstrap poll.
SETTLE_S = 1.0
#: Three of the guard's 0.5 s ticks.
EXIT_WITHIN_S = 1.5


def _closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _exited(pid: int) -> bool:
    """Gone, or a zombie its new parent has not reaped."""
    try:
        status = pathlib.Path(f"/proc/{pid}/status").read_text("utf-8")
    except FileNotFoundError:
        return True
    state = next(line for line in status.splitlines() if line.startswith("State:"))
    return state.split()[1] == "Z"


@contextmanager
def _worker_under_intermediate():
    intermediate = subprocess.Popen(
        [sys.executable, "-c", INTERMEDIATE, f"127.0.0.1:{_closed_port()}"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    worker_pid = None
    try:
        worker_pid = int(intermediate.stdout.readline())
        time.sleep(SETTLE_S)
        yield intermediate, worker_pid
    finally:
        if worker_pid is not None and not _exited(worker_pid):
            os.kill(worker_pid, signal.SIGKILL)
        intermediate.kill()
        intermediate.wait()
        intermediate.stdin.close()
        intermediate.stdout.close()


def _exits_within(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if _exited(pid):
            return True
        time.sleep(0.05)
    return _exited(pid)


def test_an_orphaned_worker_exits():
    with _worker_under_intermediate() as (intermediate, worker_pid):
        assert not _exited(worker_pid)
        intermediate.stdin.close()  # the "broker" exits
        intermediate.wait(timeout=10)
        assert _exits_within(worker_pid, EXIT_WITHIN_S)


def test_a_worker_with_a_live_parent_keeps_polling():
    with _worker_under_intermediate() as (_, worker_pid):
        assert not _exits_within(worker_pid, EXIT_WITHIN_S)
