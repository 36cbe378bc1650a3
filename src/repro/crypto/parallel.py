"""The executor seam for parallelisable modular exponentiations.

Every hot loop in the protocol — eq. (14) blinding, STP sign
extraction, threshold partial decryptions, ``h_n^s`` obfuscator
precomputation — reduces to *batches of independent modular
exponentiations* whose exponents and bases are fixed before any result
is needed.  This module defines the minimal seam that lets a runtime
spread those batches over threads while the protocol objects stay pure
call graphs:

* a :class:`PowJob` is one ``pow(base, exponent, modulus)``;
* an :class:`Executor` evaluates a batch of jobs and returns the
  results *in order*;
* :class:`SerialExecutor` is the default — plain in-process evaluation,
  so library users who never pass an executor see identical behaviour
  (and identical bytes) to a build without the seam;
* :class:`ThreadExecutor` splits a batch over threads.  The
  ``mpz_powm`` call behind :func:`~repro.crypto.backend.powmod`
  releases the GIL, so those chunks overlap on separate cores; a
  fixed-base comb evaluation (every obfuscator ``h_n^s`` of a key with
  a table) and the builtin-``pow`` fallback keep it, and do not.

Because all randomness is drawn *before* jobs are dispatched, results
are byte-identical whichever executor runs the batch — a property the
test suite asserts.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Protocol, Sequence

from repro.crypto.backend import powmod

__all__ = [
    "PowJob",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "default_executor",
]

#: ``(base, exponent, modulus)`` — one modular exponentiation.
PowJob = tuple[int, int, int]


class Executor(Protocol):
    """Evaluates batches of independent modular exponentiations."""

    def pow_many(self, jobs: Sequence[PowJob]) -> list[int]:
        """Return ``[pow(b, e, m) for (b, e, m) in jobs]`` in order."""
        ...


def _evaluate(jobs: Sequence[PowJob]) -> list[int]:
    return [powmod(base, exponent, modulus) for base, exponent, modulus in jobs]


class SerialExecutor:
    """In-process evaluation — the library default.

    Keeps a running job counter so benchmarks can report how much work
    the seam would have parallelised.
    """

    def __init__(self) -> None:
        self.jobs_executed = 0
        # The process-wide instance is shared by the router's scatter
        # threads and the broker's idle-fill thread; the counter is a
        # read-modify-write and needs the lock.
        self._stats_lock = threading.Lock()

    def _count(self, jobs: Sequence[PowJob]) -> None:
        with self._stats_lock:
            self.jobs_executed += len(jobs)

    def pow_many(self, jobs: Sequence[PowJob]) -> list[int]:
        self._count(jobs)
        return _evaluate(jobs)


class ThreadExecutor(SerialExecutor):
    """``pow_many`` over ``threads`` threads the instance owns.

    A batch is cut into ``min(threads, len(jobs))`` contiguous chunks,
    one per thread, and the results are joined in job order; a batch of
    fewer than two jobs runs in the caller's thread.  When jobs raise,
    the first failing job in job order raises, as in the serial loop.
    A chunk only calls ``powmod`` and never waits on the pool, so any
    number of callers may share one instance.  Chunks overlap only
    inside ``mpz_powm``: obfuscator batches, served from a GIL-holding
    comb table once their key has one, do not scale over threads.  Use
    as a context manager, or call :meth:`close`, to join the threads.
    """

    def __init__(self, threads: int) -> None:
        if threads < 1:
            raise ValueError("threads must be positive")
        super().__init__()
        self.threads = threads
        self._pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="pow-many"
        )

    def pow_many(self, jobs: Sequence[PowJob]) -> list[int]:
        self._count(jobs)
        chunks = min(self.threads, len(jobs))
        if chunks < 2:
            return _evaluate(jobs)
        size, extra = divmod(len(jobs), chunks)
        bounds = [i * size + min(i, extra) for i in range(chunks + 1)]
        futures = [
            self._pool.submit(_evaluate, jobs[start:end])
            for start, end in zip(bounds, bounds[1:])
        ]
        # No chunk of this batch is still running when the call returns
        # or raises; a later chunk's failure is superseded, as in serial.
        wait(futures)
        return [result for future in futures for result in future.result()]

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_SERIAL = SerialExecutor()


def default_executor(executor: Executor | None = None) -> Executor:
    """Return ``executor`` if given, else the process-wide serial one."""
    return _SERIAL if executor is None else executor
