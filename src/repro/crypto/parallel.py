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
  ``mpz_powm`` call behind :func:`~repro.crypto.backend.powmod_many`
  releases the GIL, so those chunks overlap on separate cores; a
  fixed-base comb evaluation (every obfuscator ``h_n^s`` of a key with
  a table) and the builtin-``pow`` fallback keep it, and do not, so
  the caller's thread evaluates comb jobs while the pool takes the rest.

Measured on a shared 2-vCPU Xeon VM (libgmp 6.2.1, best of 150
interleaved runs): 120 CRT halves ``c^{p−1} mod p²`` of a 512-bit key
take 4.1–4.3 ms through the batch entry, 3.1 ms on two threads
(1.32–1.41×).  Before the batch entry the same two threads over
per-job ``powmod`` calls gave 5.0–5.1 → 3.6–3.8 ms (1.34–1.40×): the
threads keep their ratio, and each job lost its import/export glue.
A helper process (1.66–1.77× on the same batch when this was decided)
is not used: nothing in the library forks, and a deployment would have
to reap it.

Because all randomness is drawn *before* jobs are dispatched, results
are byte-identical whichever executor runs the batch — a property the
test suite asserts.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Protocol, Sequence

from repro.crypto.backend import FixedBase, powmod_many

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
        return powmod_many(jobs)


class ThreadExecutor(SerialExecutor):
    """``pow_many`` over ``threads`` threads the instance owns.

    A :class:`~repro.crypto.backend.FixedBase` job (an obfuscator
    ``h_n^s``) is served by a comb that holds the GIL, so it cannot
    overlap another: the caller's thread evaluates those.  The other jobs
    are cut into ``min(threads, len(jobs))`` contiguous chunks, one per
    pool thread, which overlap inside ``mpz_powm``; the results are
    joined in job order.  With one thread, or fewer than two jobs to cut
    and no comb jobs beside them, the whole batch runs in the caller's
    thread.  When jobs raise, the first failing job in job order raises,
    as in the serial loop.  A chunk only calls ``powmod_many`` and never
    waits on the pool, so any number of callers may share one instance.
    Use as a context manager, or call :meth:`close`, to join the threads.
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
        held, free = [], []
        for index, job in enumerate(jobs):
            (held if type(job[0]) is FixedBase else free).append(index)
        chunks = min(self.threads, len(free))
        if self.threads < 2 or chunks < (1 if held else 2):
            return powmod_many(jobs)
        size, extra = divmod(len(free), chunks)
        bounds = [i * size + min(i, extra) for i in range(chunks + 1)]
        parts = [free[start:end] for start, end in zip(bounds, bounds[1:])]
        futures = [
            self._pool.submit(powmod_many, [jobs[i] for i in part]) for part in parts
        ]
        try:
            inline = powmod_many([jobs[i] for i in held])
        except Exception:
            inline = None
        finally:
            # No chunk of this batch is still running when the call
            # returns or raises.
            wait(futures)
        if inline is None or any(future.exception() for future in futures):
            # Which failing job comes first is a question of job order:
            # the serial loop raises that one.
            return powmod_many(jobs)
        results = [0] * len(jobs)
        for part, values in zip([held, *parts], [inline, *(f.result() for f in futures)]):
            for index, value in zip(part, values):
                results[index] = value
        return results

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
