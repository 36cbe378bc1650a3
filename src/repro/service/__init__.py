"""The PISA service runtime.

Everything below :mod:`repro.pisa` is a synchronous protocol library;
this package turns it into a long-running *service*:

* :mod:`repro.service.broker` — asyncio request broker with admission
  control and per-request deadlines;
* :mod:`repro.service.batching` — epoch batching of concurrent SU
  requests into single allocation passes;
* :mod:`repro.service.workers` — a process pool for the Paillier
  modular-exponentiation batches (the
  :class:`~repro.crypto.parallel.Executor` seam);
* :mod:`repro.service.loadtest` — synthetic open-loop workload driver
  (``repro serve-loadtest``).

Metrics live in :mod:`repro.telemetry` (the ``Counter`` / ``Gauge`` /
``Histogram`` / ``MetricsRegistry`` names re-exported here are the
telemetry classes).
"""

from repro.service.batching import BatchAllocator, Epoch, EpochBatcher
from repro.service.broker import (
    REASON_DEADLINE_EXPIRED,
    REASON_INTERNAL_ERROR,
    REASON_QUEUE_FULL,
    REASON_SHUTTING_DOWN,
    ServiceConfig,
    ServiceDecision,
    SpectrumAccessBroker,
)
from repro.service.loadtest import (
    LoadtestConfig,
    LoadtestReport,
    build_cluster_service,
    build_packed_service,
    run_loadtest,
)
from repro.service.workers import ProcessWorkerPool, SerialExecutor
from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "BatchAllocator",
    "Epoch",
    "EpochBatcher",
    "REASON_DEADLINE_EXPIRED",
    "REASON_INTERNAL_ERROR",
    "REASON_QUEUE_FULL",
    "REASON_SHUTTING_DOWN",
    "ServiceConfig",
    "ServiceDecision",
    "SpectrumAccessBroker",
    "LoadtestConfig",
    "LoadtestReport",
    "build_cluster_service",
    "build_packed_service",
    "run_loadtest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProcessWorkerPool",
    "SerialExecutor",
]
