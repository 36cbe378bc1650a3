"""Process supervision for socket-plane workers.

The supervisor owns the worker subprocesses of one deployment: it
spawns them (``python -m repro.netd.worker``), waits for their
readiness files, health-checks liveness, restarts crashed workers with
the canonical :mod:`repro.resilience` retry/backoff policy, and tears
everything down gracefully (SIGTERM, then SIGKILL after a grace
period).

Readiness is file-based: a worker binds an ephemeral port, finishes its
bootstrap pull from the broker's authority, then atomically writes
``{"name", "port", "pid"}`` next to its log.  The pid in the file must
match the live process — a stale file from a previous incarnation is
never trusted, which is what makes restart-then-reconnect race-free:
:meth:`ProcessSupervisor.address` only ever returns a port some
*currently running* worker actually bound.

Crash recovery has two entry points that share one per-worker lock: the
background monitor thread notices exits and restarts autonomously, and
the router's failover path calls :meth:`ensure_running` synchronously
when a sub-query hits a dead link.  Either way the worker re-pulls its
full state at startup, so the caller only needs the new address.

Each spawn's time from ``Popen`` to the supervisor first seeing the
worker ready goes into the ``netd_worker_ready_s{role=…}`` histogram of
the registry it was given — deployment and restarts alike.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import TransportError
from repro.resilience.policy import RetryPolicy, run_with_policy

__all__ = ["ProcessSupervisor", "WorkerHandle", "DEFAULT_RESTART_POLICY"]

#: Restart budget per recovery: a few fast attempts with decorrelated
#: backoff.  Real process spawn is slow compared to the in-memory
#: promote path, so the budget is attempts-shaped, not wall-clock.
DEFAULT_RESTART_POLICY = RetryPolicy(
    max_attempts=4,
    base_backoff_s=0.05,
    backoff_cap_s=0.5,
    retryable=(TransportError,),
)

_READY_POLL_S = 0.02
#: How long a spawned worker may take to report its address.
READY_TIMEOUT_S = 30.0
#: The monitor thread's tick between liveness sweeps.
MONITOR_INTERVAL_S = 0.05
#: How long :meth:`ProcessSupervisor.stop_all` waits after SIGTERM
#: before it SIGKILLs a straggler.
STOP_GRACE_S = 3.0


class WorkerHandle:
    """One supervised worker: its spec, process, and latest address."""

    def __init__(self, name: str, role: str, extra_args: tuple[str, ...]) -> None:
        self.name = name
        self.role = role
        self.extra_args = extra_args
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.restarts = 0
        #: ``time.monotonic()`` at the latest ``Popen`` until its worker
        #: is first seen ready, then ``None``.
        self.spawned_at: float | None = None
        self.lock = threading.RLock()


class ProcessSupervisor:
    """Spawns, watches, restarts, and stops one deployment's workers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        workdir: str | pathlib.Path | None = None,
        metrics=None,
        monitor: bool = True,
    ) -> None:
        self.host = host
        if workdir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-netd-")
            self.workdir = pathlib.Path(self._tmp.name)
        else:
            self._tmp = None
            self.workdir = pathlib.Path(workdir)
            self.workdir.mkdir(parents=True, exist_ok=True)
            # A reused workdir may hold readiness files from a previous
            # supervisor incarnation (SIGKILLed workers never get to
            # unlink theirs).  The pid check already refuses to trust
            # them, but a pid-recycled OS could resurrect one — sweep
            # them so this incarnation starts from a clean slate.
            for stale in self.workdir.glob("*.ready.json"):
                stale.unlink(missing_ok=True)
        self._metrics = metrics
        self._retry_rng = DeterministicRandomSource(0)
        self._handles: dict[str, WorkerHandle] = {}
        self._stopping = False
        self._monitor_thread: threading.Thread | None = None
        if monitor:
            self._monitor_thread = threading.Thread(
                target=self._monitor,
                name="netd-supervisor",
                daemon=True,
            )
            self._monitor_thread.start()

    # -- paths --------------------------------------------------------------------

    def _ready_file(self, name: str) -> pathlib.Path:
        return self.workdir / f"{name}.ready.json"

    def log_file(self, name: str) -> pathlib.Path:
        return self.workdir / f"{name}.log"

    # -- spawning -----------------------------------------------------------------

    def start(
        self, name: str, role: str, extra_args: tuple[str, ...] = ()
    ) -> WorkerHandle:
        """Register and launch one worker (non-blocking; see wait_ready)."""
        handle = WorkerHandle(name, role, tuple(extra_args))
        self._handles[name] = handle
        with handle.lock:
            self._spawn(handle)
        return handle

    def _spawn(self, handle: WorkerHandle) -> None:
        ready = self._ready_file(handle.name)
        ready.unlink(missing_ok=True)
        handle.address = None
        cmd = [
            sys.executable,
            "-m",
            "repro.netd.worker",
            "--role",
            handle.role,
            "--name",
            handle.name,
            "--host",
            self.host,
            "--ready-file",
            str(ready),
            *handle.extra_args,
        ]
        env = dict(os.environ)
        # The worker's orphan guard compares os.getppid() against this,
        # not against a ppid captured after exec — a worker whose
        # supervisor dies during the worker's own interpreter startup
        # would otherwise capture the reparented ppid and never notice.
        env["REPRO_NETD_PARENT_PID"] = str(os.getpid())
        log = open(self.log_file(handle.name), "ab")
        handle.spawned_at = time.monotonic()
        try:
            handle.process = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        finally:
            log.close()

    def _read_ready(self, handle: WorkerHandle) -> tuple[str, int] | None:
        """The worker's reported address, iff written by the live process."""
        process = handle.process
        if process is None or process.poll() is not None:
            return None
        try:
            data = json.loads(self._ready_file(handle.name).read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if data.get("pid") != process.pid:
            return None
        port = data.get("port")
        if not isinstance(port, int):
            return None
        return (self.host, port)

    def _adopt(self, handle: WorkerHandle, address: tuple[str, int]) -> None:
        """Cache a live worker's address (caller holds ``handle.lock``).

        The first adoption after a spawn observes the time since
        ``Popen`` into ``netd_worker_ready_s{role=…}``: deployment and
        every restart alike, names and durations only.
        """
        handle.address = address
        if handle.spawned_at is not None and self._metrics is not None:
            self._metrics.histogram("netd_worker_ready_s", role=handle.role).observe(
                time.monotonic() - handle.spawned_at
            )
        handle.spawned_at = None

    def _stderr_tail(self, name: str, lines: int = 12) -> str:
        try:
            text = self.log_file(name).read_text("utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def wait_ready(
        self, names: list[str] | None = None, timeout_s: float | None = None
    ) -> dict[str, tuple[str, int]]:
        """Block until every named worker has reported an address."""
        names = list(self._handles) if names is None else names
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None else READY_TIMEOUT_S
        )
        addresses: dict[str, tuple[str, int]] = {}
        for name in names:
            handle = self._handles[name]
            while True:
                address = self._read_ready(handle)
                if address is not None:
                    with handle.lock:
                        self._adopt(handle, address)
                    addresses[name] = address
                    break
                process = handle.process
                if process is not None and process.poll() is not None:
                    raise TransportError(
                        f"worker {name!r} exited with status "
                        f"{process.returncode} before becoming ready:\n"
                        f"{self._stderr_tail(name)}"
                    )
                if time.monotonic() > deadline:
                    raise TransportError(
                        f"worker {name!r} did not become ready in time:\n"
                        f"{self._stderr_tail(name)}"
                    )
                time.sleep(_READY_POLL_S)  # audit-ok: RES001 — readiness poll, not a retry
        return addresses

    # -- liveness / addressing -----------------------------------------------------

    def is_running(self, name: str) -> bool:
        handle = self._handles.get(name)
        if handle is None or handle.process is None:
            return False
        return handle.process.poll() is None

    def address(self, name: str) -> tuple[str, int]:
        """Latest known address; raises LinkDown-classified TransportError.

        Refreshes from the readiness file on a cache miss, so peers that
        dial lazily (before anyone called :meth:`wait_ready`, or after a
        restart) pick up the worker's current ephemeral port the moment
        the live process reports it.
        """
        handle = self._handles.get(name)
        if handle is None:
            raise TransportError(f"no supervised worker named {name!r}")
        with handle.lock:
            address = handle.address
            if address is None:
                address = self._read_ready(handle)
                if address is not None:
                    self._adopt(handle, address)
        if address is None or not self.is_running(name):
            raise TransportError(f"worker {name!r} has no live address")
        return address

    def worker_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._handles))

    def restarts(self, name: str) -> int:
        return self._handles[name].restarts

    # -- recovery -------------------------------------------------------------------

    def ensure_running(self, name: str, timeout_s: float | None = None) -> tuple[str, int]:
        """Restart ``name`` if dead; return a live address either way.

        Safe to call from router failover threads concurrently with the
        monitor — the per-worker lock serialises recoveries, and a
        recovery that lost the race simply observes the winner's fresh
        address.
        """
        handle = self._handles.get(name)
        if handle is None:
            raise TransportError(f"no supervised worker named {name!r}")
        with handle.lock:
            if self._handles.get(name) is not handle:
                # Retired while this call waited for the lock.
                raise TransportError(f"worker {name!r} was retired")
            if self.is_running(name) and handle.address is not None:
                return handle.address

            def attempt() -> tuple[str, int]:
                if not self.is_running(name):
                    self._spawn(handle)
                    handle.restarts += 1
                    if self._metrics is not None:
                        self._metrics.counter(
                            "netd_restarts_total", worker=name
                        ).inc()
                return self.wait_ready([name], timeout_s=timeout_s)[name]

            return run_with_policy(
                attempt, DEFAULT_RESTART_POLICY, rng=self._retry_rng
            )

    def restart(self, name: str) -> tuple[str, int]:
        """Replace ``name``'s process, live or not, with a fresh one; under
        the worker's lock, so the monitor cannot spawn in between."""
        handle = self._handles[name]
        with handle.lock:
            if self.is_running(name):
                handle.process.kill()
                handle.process.wait()
            return self.ensure_running(name)

    def retire(self, name: str) -> None:
        """Stop supervising ``name`` and stop its process for good.

        The handle leaves the table under its lock, so neither the
        monitor nor a failover's :meth:`ensure_running` can restart the
        worker afterwards; then the process gets the graceful stop.
        """
        handle = self._handles.get(name)
        if handle is None:
            return
        with handle.lock:
            del self._handles[name]
            process = handle.process
        if process is not None:
            self._stop([process])

    def _monitor(self) -> None:
        while not self._stopping:
            for handle in list(self._handles.values()):
                if self._stopping:
                    break
                process = handle.process
                if process is not None and process.poll() is not None:
                    try:
                        self.ensure_running(handle.name)
                    except TransportError:
                        # Exhausted the restart budget; the data path
                        # will surface ShardDownError on next contact.
                        pass
            time.sleep(MONITOR_INTERVAL_S)  # audit-ok: RES001 — watchdog tick, not a retry

    # -- fault injection / teardown --------------------------------------------------

    def kill(self, name: str, sig: int = signal.SIGKILL) -> None:
        """Deliver a signal to a worker (the process-chaos fault).

        A SIGSTOP returns only once the whole worker is frozen: ``kill``
        itself returns when the signal is queued, and until the group
        stop completes a worker thread already woken by incoming data
        can still answer it.  ``waitid(WSTOPPED)`` reports the child
        only after its last thread stopped; ``WNOWAIT`` leaves that
        report, and any exit status, for :class:`subprocess.Popen`.
        """
        handle = self._handles.get(name)
        if handle is None or handle.process is None:
            return
        try:
            handle.process.send_signal(sig)
            if sig == signal.SIGSTOP:
                os.waitid(
                    os.P_PID,
                    handle.process.pid,
                    os.WSTOPPED | os.WEXITED | os.WNOWAIT,
                )
        except (ProcessLookupError, ChildProcessError):  # pragma: no cover - already gone
            pass

    def wait_exit(self, name: str, timeout_s: float = 10.0) -> int | None:
        """Block until a worker's current process exits; its return code.

        Used by fault injection to make a SIGKILL *landed* before the
        next sub-query fires (so the failure is deterministic, not a
        race with process teardown).
        """
        handle = self._handles.get(name)
        if handle is None or handle.process is None:
            return None
        try:
            return handle.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:  # pragma: no cover - SIGKILL always lands
            return None

    def stop_all(self) -> None:
        """Graceful shutdown: SIGTERM every worker, SIGKILL stragglers."""
        self._stopping = True
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=2.0)
        procs = []
        for handle in self._handles.values():
            with handle.lock:
                procs.append(handle.process)
        self._stop([process for process in procs if process is not None])
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    @staticmethod
    def _stop(processes) -> None:
        """SIGTERM each running process; SIGKILL what outlives the grace."""
        procs = []
        for process in processes:
            if process.poll() is None:
                try:
                    process.terminate()
                except ProcessLookupError:  # pragma: no cover
                    continue
                procs.append(process)
        deadline = time.monotonic() + STOP_GRACE_S
        for process in procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
