"""The executor seam for parallelisable modular exponentiations.

Every hot loop in the protocol — eq. (14) blinding, STP sign
extraction, threshold partial decryptions, ``r**n`` obfuscator
precomputation — reduces to *batches of independent modular
exponentiations* whose exponents and bases are fixed before any result
is needed.  This module defines the minimal seam that lets a runtime
ship those batches to worker processes while the protocol objects stay
pure call graphs:

* a :class:`PowJob` is one ``pow(base, exponent, modulus)``;
* an :class:`Executor` evaluates a batch of jobs and returns the
  results *in order*;
* :class:`SerialExecutor` is the default — plain in-process evaluation,
  so library users who never touch :mod:`repro.service` see identical
  behaviour (and identical bytes) to a build without the seam.

The process-pool implementation lives in :mod:`repro.service.workers`;
protocol code only ever sees this protocol.  Because all randomness is
drawn *before* jobs are dispatched, results are byte-identical whichever
executor runs the batch — a property the test suite asserts.
"""

from __future__ import annotations

import threading
from typing import Protocol, Sequence

from repro.crypto.backend import powmod

__all__ = ["PowJob", "Executor", "SerialExecutor", "default_executor"]

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

    def pow_many(self, jobs: Sequence[PowJob]) -> list[int]:
        with self._stats_lock:
            self.jobs_executed += len(jobs)
        return [powmod(base, exponent, modulus) for base, exponent, modulus in jobs]


_SERIAL = SerialExecutor()


def default_executor(executor: Executor | None = None) -> Executor:
    """Return ``executor`` if given, else the process-wide serial one."""
    return _SERIAL if executor is None else executor
