"""Unified retry / timeout / backoff policy engine.

Before this module, every layer hand-rolled its own failure handling:
the service broker retried a rejected cluster epoch once, the cluster
router looped ``max_attempts`` times around a shard call, the replica
set promoted on the first transport error.  Each loop had its own
(sometimes missing) backoff, no wall-clock budget, and no memory of a
link that had been failing for the last hundred calls.

This module centralises those decisions:

* :class:`RetryPolicy` — how many attempts, how much wall-clock budget,
  and which exception types are retryable, with **decorrelated-jitter**
  backoff (``sleep = min(cap, uniform(base, prev * 3))``) so a thundering
  herd of retries de-synchronises itself.
* :class:`CircuitBreaker` — per shard / per STP link.  After
  ``failure_threshold`` consecutive failures the circuit *opens* and
  calls fail fast with :class:`~repro.errors.CircuitOpenError` until
  ``reset_timeout_s`` passes; the first probe in *half-open* state
  decides whether it closes again.
* :class:`IdempotencyCache` — a bounded LRU keyed by caller-chosen
  idempotency keys, so a retried operation that actually succeeded the
  first time is served its original result instead of re-executing.
* :func:`run_with_policy` — the one retry loop.  Everything else in the
  tree should call this (the ``RES001`` audit rule flags hand-rolled
  sleep-loop retries outside this module).

Determinism: backoff jitter is drawn from a caller-supplied
:class:`~repro.crypto.rand.RandomSource`, and time/sleep are injectable,
so tests and the chaos harness run the full policy machinery with zero
real waiting and reproducible schedules.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.rand import DeterministicRandomSource, RandomSource
from repro.errors import CircuitOpenError, FencedError, RetryExhaustedError

__all__ = [
    "RetryPolicy",
    "NEVER_RETRYABLE",
    "decorrelated_jitter",
    "CircuitBreaker",
    "IdempotencyCache",
    "run_with_policy",
]

#: Exception types no policy may retry, regardless of its ``retryable``
#: tuple.  A :class:`~repro.errors.FencedError` means the caller's lease
#: is dead — retrying cannot resurrect it, and a policy sloppily
#: configured with ``retryable=(Exception,)`` must not hammer a shard
#: with a deposed writer's requests.
NEVER_RETRYABLE: tuple[type[BaseException], ...] = (FencedError,)


def _uniform(rng: RandomSource, low: float, high: float) -> float:
    """Uniform float in ``[low, high)`` from a bit-level RandomSource."""
    if high <= low:
        return low
    return low + (high - low) * (rng.randbits(53) / float(1 << 53))


def decorrelated_jitter(
    previous_s: float, base_s: float, cap_s: float, rng: RandomSource
) -> float:
    """Next backoff sleep: ``min(cap, uniform(base, previous * 3))``.

    The decorrelated-jitter scheme grows roughly exponentially but every
    step is randomised across the full band, so concurrent clients that
    failed together do not retry together.
    """
    if previous_s <= 0:
        previous_s = base_s
    return min(cap_s, _uniform(rng, base_s, previous_s * 3))


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative description of one operation's failure handling.

    ``retryable`` is the tuple of exception types worth retrying;
    anything else propagates immediately (a malformed request does not
    get better with backoff).
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.02
    backoff_cap_s: float = 1.0
    #: Total wall-clock budget across all attempts and sleeps; ``None``
    #: means attempts are the only limit.
    budget_s: float | None = None
    retryable: tuple[type[BaseException], ...] = (Exception,)

    def retries(self, exc: BaseException) -> bool:
        if isinstance(exc, NEVER_RETRYABLE):
            return False
        return isinstance(exc, self.retryable)


class CircuitBreaker:
    """Per-link failure accountant: closed → open → half-open → closed.

    *Closed* (healthy): calls pass through; consecutive failures are
    counted.  At ``failure_threshold`` the circuit *opens*: calls are
    refused with :class:`~repro.errors.CircuitOpenError` without touching
    the link, shedding load from a peer that is already down.  After
    ``reset_timeout_s`` one probe call is let through (*half-open*); its
    outcome closes or re-opens the circuit.

    The default threshold is deliberately lenient (a replica failover in
    ``cluster.router`` legitimately burns a few consecutive failures)
    — the breaker exists to stop *hundred*-call failure storms, not to
    second-guess the retry policy.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        name: str = "",
        *,
        failure_threshold: int = 8,
        reset_timeout_s: float = 5.0,
        clock=time.monotonic,
        metrics=None,
    ) -> None:
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0
        #: Optional :class:`repro.telemetry.MetricsRegistry`; when set,
        #: trips count into ``circuit_trips_total{circuit=name}`` and the
        #: current state is mirrored in ``circuit_open{circuit=name}``
        #: (1 = open, 0 = closed/half-open).
        self.metrics = metrics

    @property
    def state(self) -> str:
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._state = self.HALF_OPEN
        return self._state

    def before_call(self) -> None:
        """Gate a call; raises :class:`CircuitOpenError` when open."""
        if self.state == self.OPEN:
            raise CircuitOpenError(
                f"circuit {self.name or '<anonymous>'} is open "
                f"({self._consecutive_failures} consecutive failures)"
            )

    def _publish_state(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "circuit_open", circuit=self.name or "anonymous"
            ).set(1.0 if self._state == self.OPEN else 0.0)

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._state = self.CLOSED
        self._publish_state()

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._state == self.HALF_OPEN:
            # The probe failed: straight back to open, fresh timeout.
            self._state = self.OPEN
            self._opened_at = self._clock()
            self._trip()
        elif (
            self._state == self.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._state = self.OPEN
            self._opened_at = self._clock()
            self._trip()

    def _trip(self) -> None:
        self.trips += 1
        if self.metrics is not None:
            self.metrics.counter(
                "circuit_trips_total", circuit=self.name or "anonymous"
            ).inc()
        self._publish_state()

    def reset(self) -> None:
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._publish_state()


class IdempotencyCache:
    """Bounded LRU of completed results keyed by idempotency key.

    ``get``/``put`` only — the *caller* decides what a key means (the
    broker uses request ids, so a request resolved once is never
    double-counted by a retried resolution).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str, default=None):
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value=None) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


def run_with_policy(
    operation,
    policy: RetryPolicy,
    *,
    breaker: CircuitBreaker | None = None,
    rng=None,
    clock=time.monotonic,
    sleep=time.sleep,
    on_retry=None,
    idempotency_key: str | None = None,
    cache: IdempotencyCache | None = None,
    metrics=None,
    op: str = "operation",
):
    """Run ``operation()`` under ``policy`` — the canonical retry loop.

    * Checks the idempotency ``cache`` first (if given a key): a cached
      result short-circuits the call entirely.
    * Gates every attempt through ``breaker`` (if given); breaker trips
      raise :class:`~repro.errors.CircuitOpenError` immediately — an
      open circuit is not a retryable condition.
    * On a retryable failure sleeps a decorrelated-jitter backoff, then
      tries again, until attempts or the wall budget run out, then
      raises :class:`~repro.errors.RetryExhaustedError` chained to the
      last failure.
    * ``on_retry(attempt, exc, sleep_s)`` is called before each backoff
      — the chaos harness uses it to drive fault-plan countdowns.
    * ``metrics`` (a :class:`repro.telemetry.MetricsRegistry`) records
      ``retry_attempts_total{op=...}`` per retry and
      ``retry_exhausted_total{op=...}`` when the budget runs out.
    """
    if cache is not None and idempotency_key is not None:
        sentinel = object()
        cached = cache.get(idempotency_key, sentinel)
        if cached is not sentinel:
            return cached
    if rng is None:
        rng = DeterministicRandomSource(0)
    if metrics is not None:
        # Materialise the family at zero so a clean run still exposes
        # it — dashboards and the CI exposition grep rely on presence.
        metrics.counter("retry_attempts_total", op=op)
    started = clock()
    previous_sleep = 0.0
    last_exc: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if breaker is not None:
            breaker.before_call()
        try:
            result = operation()
        except BaseException as exc:
            if breaker is not None:
                breaker.record_failure()
            if not policy.retries(exc):
                raise
            last_exc = exc
            if attempt >= policy.max_attempts:
                break
            sleep_s = decorrelated_jitter(
                previous_sleep, policy.base_backoff_s, policy.backoff_cap_s, rng
            )
            if policy.budget_s is not None:
                remaining = policy.budget_s - (clock() - started)
                if remaining <= 0:
                    break
                sleep_s = min(sleep_s, remaining)
            previous_sleep = sleep_s
            if metrics is not None:
                metrics.counter("retry_attempts_total", op=op).inc()
            if on_retry is not None:
                on_retry(attempt, exc, sleep_s)
            if sleep_s > 0:
                sleep(sleep_s)
            continue
        if breaker is not None:
            breaker.record_success()
        if cache is not None and idempotency_key is not None:
            cache.put(idempotency_key, result)
        return result
    if metrics is not None:
        metrics.counter("retry_exhausted_total", op=op).inc()
    raise RetryExhaustedError(
        f"operation failed after {policy.max_attempts} attempts: {last_exc}"
    ) from last_exc
