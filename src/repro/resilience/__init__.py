"""repro.resilience — crash-safe journaling, retry policies, chaos testing.

Three sub-systems, each usable alone:

* :mod:`repro.resilience.journal` — a write-ahead **epoch journal**:
  append-only, CRC-framed, fsync-batched records (framed with the
  :mod:`repro.pisa.storage` helpers) capturing every randomness draw,
  clock read, and protocol-step marker.  A crashed SDC/shard/broker
  process recovers by *replay*: re-running the same code with the
  journaled draw/clock streams reproduces the exact bytes the
  uninterrupted run would have produced.
* :mod:`repro.resilience.policy` — the **unified retry/timeout/backoff
  engine**: decorrelated-jitter backoff, bounded attempts and a
  per-link circuit breaker.  The service broker
  and the cluster router both route their retries through it; the
  ``RES001`` audit rule flags hand-rolled retry loops elsewhere.
* :mod:`repro.resilience.chaos` — a **deterministic chaos harness**:
  seeded fault plans (process kill, transport drop/delay/duplicate,
  journal disk-full, STP outage with queue-and-drain) that
  assert transcript equality and license validity after every injected
  schedule.  ``repro chaos`` runs it from the command line.

See ``docs/resilience.md`` for the journal format, the recovery state
machine, the retry policy matrix, and the chaos plan schema.
"""

from __future__ import annotations

from repro.resilience.journal import (
    EpochJournal,
    JournaledClock,
    JournalingRandomSource,
    JournalReadResult,
    JournalRecord,
    JournalWriter,
    ReplayClock,
    ReplayRandomSource,
    read_journal,
)
from repro.resilience.policy import (
    CircuitBreaker,
    RetryPolicy,
    decorrelated_jitter,
    run_with_policy,
)

__all__ = [
    "EpochJournal",
    "JournalWriter",
    "JournalRecord",
    "JournalReadResult",
    "read_journal",
    "JournalingRandomSource",
    "ReplayRandomSource",
    "JournaledClock",
    "ReplayClock",
    "RetryPolicy",
    "CircuitBreaker",
    "decorrelated_jitter",
    "run_with_policy",
]
