"""Process-pool executor for Paillier modular exponentiations.

Every expensive step of a PISA round reduces to batches of independent
``pow(base, exponent, modulus)`` jobs (see
:mod:`repro.crypto.parallel`): the SDC's per-cell α blinding of
eq. (14), the STP's CRT decryption halves, the two-server threshold
partials, and ``r**n`` obfuscator precomputation.  Threads overlap only
while a job is inside libgmp (:mod:`repro.crypto.backend`; never on the
builtin-``pow`` fallback) and the Python work around each job is serial,
so the service runtime ships job batches to worker *processes*.

:class:`ProcessWorkerPool` implements the same
:class:`~repro.crypto.parallel.Executor` protocol as
:class:`~repro.crypto.parallel.SerialExecutor`; the two are drop-in
interchangeable and — because all randomness is drawn in the parent
before dispatch — produce byte-identical protocol transcripts.  The
serial executor remains the library default; the pool is opt-in for
service deployments.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.crypto.backend import powmod
from repro.crypto.parallel import Executor, PowJob, SerialExecutor

__all__ = ["ProcessWorkerPool", "Executor", "SerialExecutor", "default_worker_count"]


def default_worker_count() -> int:
    """Leave one core for the asyncio loop; always at least two workers."""
    return max(2, (os.cpu_count() or 2) - 1)


def _pow_chunk(chunk: Sequence[PowJob]) -> list[int]:
    """Worker-side kernel; module-level so it pickles."""
    return [powmod(base, exponent, modulus) for base, exponent, modulus in chunk]


class ProcessWorkerPool:
    """``pow_many`` fan-out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Jobs are split into at most ``2 * max_workers`` contiguous chunks
    (contiguity preserves result order trivially) and gathered in order.
    Small batches below ``min_parallel_jobs`` run inline — for a handful
    of exponentiations the pickling round-trip costs more than it saves.

    The pool starts lazily on first use, so constructing one in library
    code that never exercises it costs nothing.  Use as a context
    manager, or call :meth:`close`, to release the worker processes.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        min_parallel_jobs: int = 8,
    ) -> None:
        self.max_workers = default_worker_count() if max_workers is None else max_workers
        if self.max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.min_parallel_jobs = min_parallel_jobs
        self.jobs_executed = 0
        self.batches_executed = 0
        # pow_many runs from asyncio.to_thread contexts; the counters are
        # read-modify-write shared state and need the lock.
        self._stats_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def pow_many(self, jobs: Sequence[PowJob]) -> list[int]:
        jobs = list(jobs)
        with self._stats_lock:
            self.jobs_executed += len(jobs)
            self.batches_executed += 1
        if len(jobs) < self.min_parallel_jobs or self.max_workers == 1:
            return _pow_chunk(jobs)
        pool = self._ensure_pool()
        num_chunks = min(len(jobs), 2 * self.max_workers)
        size, extra = divmod(len(jobs), num_chunks)
        chunks = []
        start = 0
        for i in range(num_chunks):
            end = start + size + (1 if i < extra else 0)
            chunks.append(jobs[start:end])
            start = end
        results: list[int] = []
        for chunk_result in pool.map(_pow_chunk, chunks):
            results.extend(chunk_result)
        return results

    def warm_up(self) -> None:
        """Fork the workers now and push one trivial batch through.

        Call before starting an event loop or spawning threads: forking
        a process that is already multi-threaded is unreliable, and the
        pool otherwise starts lazily at the first real batch.
        """
        floor = max(self.min_parallel_jobs, self.max_workers)
        self.pow_many([(2, 3, 5)] * floor)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
