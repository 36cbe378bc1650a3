"""Request broker for the PISA allocation service.

:class:`SpectrumAccessBroker` turns the synchronous protocol stack into
a long-running service: PU updates and SU license requests arrive
concurrently, from any thread, admission control bounds memory, an
:class:`~repro.service.batching.EpochBatcher` coalesces concurrent SU
requests, and one dispatcher thread runs each closed epoch as one
allocation pass and applies each PU update between passes.
:meth:`~SpectrumAccessBroker.submit` admits a request in the caller's
thread and returns a :class:`concurrent.futures.Future` of its decision.

Between epochs the broker runs the allocator's *idle work*
(:attr:`~repro.service.batching.BatchAllocator.idle_work` — with a
conversion server in this process, its §VI-A obfuscator fill) on one
idle thread: from the moment an epoch's decisions are resolved until
the next epoch is dispatched.  The dispatcher tells it to stop and
waits for it before the allocation pass starts, and again when it
exits, so it never runs beside a pass and never outlives the broker.

Every request resolves to a :class:`ServiceDecision`:

* ``granted`` / ``denied`` — the protocol ran and the license says yes/no;
* ``rejected`` — the service never ran the protocol, with a reason:
  ``queue_full`` (admission control), ``deadline_expired`` (the request
  sat past its per-request deadline before its epoch drained),
  ``tier_budget`` (a tiered scenario's authorization ledger refused the
  SU's tier — see :class:`repro.sim.cbrs.TieredAdmission`), or
  ``shutting_down``.

The broker adds scheduling around the protocol, never inside it: the
crypto transcript of an admitted request is byte-identical to the same
request run alone through its coordinator.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ClusterError, ProtocolError
from repro.resilience.policy import RetryPolicy, run_with_policy
from repro.service.batching import BatchAllocator, Epoch, EpochBatcher
from repro.telemetry import MetricsRegistry, Tracer, child

__all__ = [
    "ServiceConfig",
    "ServiceDecision",
    "SpectrumAccessBroker",
    "REASON_QUEUE_FULL",
    "REASON_DEADLINE_EXPIRED",
    "REASON_SHUTTING_DOWN",
    "REASON_INTERNAL_ERROR",
    "REASON_TIER_BUDGET",
]

REASON_QUEUE_FULL = "queue_full"
REASON_DEADLINE_EXPIRED = "deadline_expired"
REASON_SHUTTING_DOWN = "shutting_down"
REASON_INTERNAL_ERROR = "internal_error"
REASON_TIER_BUDGET = "tier_budget"


@dataclass(frozen=True)
class ServiceConfig:
    """Runtime knobs of the broker."""

    #: Admission-control bound on queued-but-unprocessed SU requests.
    max_pending: int = 64
    #: Epoch window: how long the first request of an epoch may wait for
    #: company before the batch dispatches anyway.
    batch_window_s: float = 0.05
    #: Hard cap on requests per epoch; a full epoch dispatches early.
    max_batch: int = 8
    #: Deadline applied when a request does not bring its own.
    default_deadline_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ProtocolError("max_pending must be positive")
        if self.batch_window_s < 0:
            raise ProtocolError("batch_window_s must be non-negative")
        if self.max_batch < 1:
            raise ProtocolError("max_batch must be positive")
        if self.default_deadline_s <= 0:
            raise ProtocolError("default_deadline_s must be positive")


@dataclass(frozen=True)
class ServiceDecision:
    """What the service tells an SU about one submitted request."""

    su_id: str
    #: ``granted`` | ``denied`` | ``rejected``
    status: str
    #: Set only for ``rejected``.
    reason: str | None
    #: Submission-to-decision wall time.
    latency_s: float
    #: Size of the epoch this request ran in (0 when rejected).
    batch_size: int
    #: The protocol-level outcome (``RequestOutcome``) when it ran.
    outcome: object | None = None

    @property
    def ran(self) -> bool:
        return self.status in ("granted", "denied")


@dataclass
class _Ticket:
    #: Unique per submission; journaled with the epoch that carries it.
    request_id: str
    su_id: str
    request: object
    submitted_at: float
    deadline_at: float
    future: Future
    #: Per-request root span (``None`` when the broker is untraced).
    span: object | None = None
    #: Open ``batch`` child covering queue-to-dispatch residence.
    batch_span: object | None = None
    #: Set by the first resolution (granted/denied/rejected).  Every
    #: resolution path checks it first: a ticket that an expired
    #: deadline and a failed epoch retry both try to reject is counted
    #: exactly once in the metrics.
    resolved: bool = False


@dataclass(frozen=True)
class _PuUpdate:
    message: object


_SHUTDOWN = object()


class SpectrumAccessBroker:
    """The service front door.

    Parameters
    ----------
    allocator:
        A wired :class:`~repro.service.batching.BatchAllocator` (use
        ``BatchAllocator.for_coordinator``).
    pu_update_handler:
        Called with each PU update message (typically
        ``coordinator.sdc.handle_pu_update``); applied between epochs so
        updates and allocations never interleave mid-pass.
    config, metrics:
        Runtime knobs and the registry service counters land in.
    clock:
        Injectable time source for deadlines and latency accounting.
    admission:
        Optional tier-policy ledger (:class:`repro.sim.cbrs.TieredAdmission`
        or anything with its ``on_submit``/``on_granted`` surface).
        Consulted synchronously, in submission order, so its decisions
        are identical on every plane regardless of shard latency.
    """

    def __init__(
        self,
        allocator: BatchAllocator,
        pu_update_handler=None,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
        journal=None,
        tracer: Tracer | None = None,
        admission=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        # Materialise the outcome families at zero so a run that grants
        # (or denies) nothing still exposes them — dashboards and the CI
        # exposition grep rely on presence, not just increments.
        self.metrics.counter("requests_submitted")
        self.metrics.counter("requests_granted")
        self.metrics.counter("requests_denied")
        #: Optional :class:`repro.telemetry.Tracer`.  When set, every
        #: submission opens a ``request`` root span with ``admission`` /
        #: ``batch`` children here and per-phase children in the
        #: allocator.  The tracer owns its own deterministic RNG, so
        #: tracing never touches the protocol draw stream.
        self.tracer = tracer
        self.admission = admission
        self._allocator = allocator
        self._pu_update_handler = pu_update_handler
        self._clock = clock
        #: Optional :class:`repro.resilience.journal.EpochJournal` — each
        #: dispatched epoch is logged with its request ids before the
        #: allocation pass runs.
        self.journal = journal
        self._batcher: EpochBatcher[_Ticket] = EpochBatcher(
            self.config.batch_window_s, self.config.max_batch
        )
        self._queue: queue.Queue = queue.Queue()
        #: Guards what submitting threads share with each other and with
        #: the dispatcher: whether the broker accepts work, ``_pending``,
        #: the submitted / resolved counters, ``queue_depth`` and the tier
        #: ledger.  A ticket is queued under it, so none can follow the
        #: shutdown marker.
        self._lock = threading.Lock()
        self._accepting = False
        self._pending = 0
        #: Serializes open/close: a second concurrent close() returns only
        #: once the first has drained the broker.
        self._lifecycle_lock = threading.Lock()
        #: The dispatcher, then the idle thread if there is idle work.
        self._threads: list[threading.Thread] = []
        #: What ended the dispatcher, re-raised by close().
        self._failure: BaseException | None = None
        self._request_ids = itertools.count()
        # Epoch retries run through the unified policy engine: at most
        # one retry after a ClusterError (the router has already promoted
        # standbys on the failed links), no backoff — the recovered
        # plane is ready immediately in the modelled runtime.
        self._epoch_policy = RetryPolicy(
            max_attempts=2,
            base_backoff_s=0.0,
            backoff_cap_s=0.0,
            retryable=(ClusterError,),
        )
        self._retry_rng = DeterministicRandomSource(0)
        #: What the allocator's deployment can do while no epoch runs
        #: (``None``: nothing).  The idle thread waits for ``_idle_go``
        #: and runs it under ``_idle_lock``; ``_idle_stop`` tells the
        #: work to return.
        self._idle_work = getattr(allocator, "idle_work", None)
        self._idle_go = threading.Event()
        self._idle_stop = threading.Event()
        self._idle_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def open(self) -> None:
        """Start the dispatcher; requests are admitted until :meth:`close`."""
        with self._lifecycle_lock:
            if self._threads:
                raise ProtocolError("broker already started")
            with self._lock:
                self._accepting = True
            self._idle_go.clear()
            self._threads = [
                threading.Thread(target=self._run, name="broker-dispatch", daemon=True)
            ]
            if self._idle_work is not None:
                self._threads.append(threading.Thread(
                    target=self._fill_when_idle, name="broker-idle", daemon=True
                ))
            for thread in self._threads:
                thread.start()

    def close(self) -> None:
        """Graceful shutdown: stop admitting, run what is queued, join.

        Returns once the dispatcher and the idle thread have exited, in
        every thread that calls it; raises what ended the dispatcher if
        something other than the shutdown did.
        """
        with self._lifecycle_lock:
            if not self._threads:
                return
            with self._lock:
                self._accepting = False
                self._queue.put(_SHUTDOWN)
            dispatcher, *idle = self._threads
            dispatcher.join()
            if idle:
                # After the dispatcher: its last flush may start the idle
                # work again.  Woken with the broker closed, the idle
                # thread ends.
                self._stop_idle_work()
                self._idle_go.set()
                idle[0].join()
            self._threads = []
            failure, self._failure = self._failure, None
        if failure is not None:
            raise failure

    def __enter__(self) -> "SpectrumAccessBroker":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingress -----------------------------------------------------------------

    def submit_pu_update(self, message) -> None:
        """Enqueue a PU channel update (never rejected; tiny and urgent)."""
        if self._pu_update_handler is None:
            raise ProtocolError("broker has no PU update handler")
        with self._lock:
            self.metrics.counter("pu_updates_submitted").inc()
            if self.admission is not None:
                self.admission.on_pu_update()
        self._queue.put(_PuUpdate(message))

    def submit(self, su_id: str, request, deadline_s: float | None = None) -> Future:
        """Submit one SU request; the future resolves to its decision.

        Admission runs here, in the caller's thread: a closed broker, a
        full queue, a refusing tier ledger or a spent deadline resolves
        the future to a rejection before this returns.
        """
        with self._lock:
            now = self._clock()
            self.metrics.counter("requests_submitted").inc()
            span = (
                self.tracer.start_span("request", su=su_id)
                if self.tracer is not None
                else None
            )
            admission = child(span, "admission")
            if not self._accepting:
                return self._reject(su_id, REASON_SHUTTING_DOWN, now, span, admission)
            if self._pending >= self.config.max_pending:
                return self._reject(su_id, REASON_QUEUE_FULL, now, span, admission)
            if self.admission is not None and not self.admission.on_submit(su_id):
                # Tier policy (e.g. GAA under an exhausted CBRS budget).
                # Synchronous and order-dependent only, never timing-dependent.
                return self._reject(su_id, REASON_TIER_BUDGET, now, span, admission)
            if deadline_s is None:
                deadline_s = self.config.default_deadline_s
            if deadline_s <= 0:
                # Admission-control boundary: a budget that is already spent
                # can never be met, so reject before queueing — the protocol
                # must not run for it even if the epoch would drain instantly.
                return self._reject(
                    su_id, REASON_DEADLINE_EXPIRED, now, span, admission
                )
            ticket = _Ticket(
                request_id=f"req-{next(self._request_ids)}",
                su_id=su_id,
                request=request,
                submitted_at=now,
                deadline_at=now + deadline_s,
                future=Future(),
                span=span,
            )
            # Running from the start: a waiter that gives up cannot cancel
            # a decision the dispatcher will still set.
            ticket.future.set_running_or_notify_cancel()
            if span is not None:
                span.set_attribute("request_id", ticket.request_id)
            if admission is not None:
                admission.end()
            ticket.batch_span = child(span, "batch")
            self._pending += 1
            self.metrics.gauge("queue_depth").set(self._pending)
            self._queue.put(ticket)
        return ticket.future

    def _reject(
        self,
        su_id: str,
        reason: str,
        submitted_at: float,
        span=None,
        admission=None,
    ) -> Future:
        """An admission-time rejection, decided; the caller holds ``_lock``."""
        self.metrics.counter("requests_rejected", reason=reason).inc()
        if admission is not None:
            admission.end()
        if span is not None:
            span.set_attribute("status", "rejected")
            span.set_attribute("reason", reason)
            span.end()
        decided: Future = Future()
        decided.set_result(
            ServiceDecision(
                su_id=su_id,
                status="rejected",
                reason=reason,
                latency_s=self._clock() - submitted_at,
                batch_size=0,
            )
        )
        return decided

    # -- the awaitable surface -------------------------------------------------
    # The benchmark spine's driver (benchmarks/spine) awaits these three.

    async def start(self) -> None:
        """Awaitable :meth:`open`; goes with re-base strand (ix) (ROADMAP.md)."""
        self.open()

    async def stop(self) -> None:
        """Awaitable :meth:`close`; goes with re-base strand (ix) (ROADMAP.md)."""
        await asyncio.to_thread(self.close)

    async def submit_request(
        self, su_id: str, request, deadline_s: float | None = None
    ) -> ServiceDecision:
        """Awaitable :meth:`submit`; goes with re-base strand (ix) (ROADMAP.md)."""
        return await asyncio.wrap_future(self.submit(su_id, request, deadline_s))

    # -- the dispatcher ----------------------------------------------------------

    def _run(self) -> None:
        """The dispatcher thread, until the shutdown marker; what else
        ends it is kept for :meth:`close` to raise."""
        try:
            while True:
                due_at = self._batcher.next_due_at()
                timeout = None if due_at is None else max(0.0, due_at - self._clock())
                try:
                    item = self._queue.get(timeout=timeout)
                except queue.Empty:
                    epoch = self._batcher.pop_ready(self._clock())
                    if epoch is not None:
                        self._dispatch(epoch)
                    continue

                if item is _SHUTDOWN:
                    epoch = self._batcher.flush()
                    if epoch is not None:
                        self._dispatch(epoch)
                    return
                if isinstance(item, _PuUpdate):
                    self._pu_update_handler(item.message)
                    self.metrics.counter("pu_updates_applied").inc()
                    continue
                now = self._clock()
                if now >= item.deadline_at:
                    # The deadline expired while the ticket sat in the queue;
                    # it must not be dispatched into an epoch.
                    self._resolve(item, "rejected", now, REASON_DEADLINE_EXPIRED)
                    continue
                epoch = self._batcher.add(item, now)
                if epoch is not None:
                    self._dispatch(epoch)
        except BaseException as exc:
            self._failure = exc

    def _resolve(
        self, ticket: _Ticket, status: str, now: float, reason=None, result=None
    ) -> None:
        """Decide ``ticket`` (``result``: its allocation, when it ran) once.

        A ticket that an expired deadline and a failed (retried) epoch
        pass both reject is decided and counted by the first; the second
        only bumps ``requests_deduped``.
        """
        with self._lock:
            if ticket.resolved:
                self.metrics.counter("requests_deduped").inc()
                return
            ticket.resolved = True
            self._pending -= 1
            self.metrics.gauge("queue_depth").set(self._pending)
            labels = {} if reason is None else {"reason": reason}
            self.metrics.counter(f"requests_{status}", **labels).inc()
            if status == "granted" and self.admission is not None:
                self.admission.on_granted(ticket.su_id)
        if ticket.batch_span is not None:
            ticket.batch_span.end()
            ticket.batch_span = None
        if ticket.span is not None:
            ticket.span.set_attribute("status", status)
            if reason is not None:
                ticket.span.set_attribute("reason", reason)
            ticket.span.end()
        latency = now - ticket.submitted_at
        if result is not None:
            self.metrics.histogram("request_latency_s").observe(latency)
        ticket.future.set_result(
            ServiceDecision(
                su_id=ticket.su_id,
                status=status,
                reason=reason,
                latency_s=latency,
                batch_size=0 if result is None else result.batch_size,
                outcome=None if result is None else result.outcome,
            )
        )

    def _fill_when_idle(self) -> None:
        """The idle thread: runs the idle work each time the dispatcher
        wakes it, until the broker stops admitting."""
        while True:
            self._idle_go.wait()
            self._idle_go.clear()
            if not self._accepting:
                return
            with self._idle_lock:
                # Stopped before this wake-up was seen: a pass may be
                # running, so the work must not start.
                if self._idle_stop.is_set():
                    continue
                try:
                    self._idle_work(self._idle_stop.is_set)
                except Exception:
                    # Idle work is optional; requests go on without what
                    # it prepares.
                    self.metrics.counter("idle_work_failures").inc()

    def _start_idle_work(self) -> None:
        self._idle_stop.clear()
        self._idle_go.set()

    def _stop_idle_work(self) -> None:
        """Returns once the idle work has: one unit of it at most."""
        self._idle_stop.set()
        with self._idle_lock:
            pass

    def _dispatch(self, epoch: Epoch) -> None:
        """Run one closed epoch: expire stale tickets, allocate the rest."""
        now = self._clock()
        live: list[_Ticket] = []
        for ticket in epoch.items:
            if now > ticket.deadline_at:
                self._resolve(ticket, "rejected", now, REASON_DEADLINE_EXPIRED)
            else:
                live.append(ticket)
        if not live:
            return
        work = Epoch(
            epoch_id=epoch.epoch_id,
            opened_at=epoch.opened_at,
            due_at=epoch.due_at,
            items=[(t.su_id, t.request) for t in live],
        )
        spans = []
        for ticket in live:
            # Batch formation ends here; the phase spans hang directly
            # off the request root, alongside admission and batch.
            if ticket.batch_span is not None:
                ticket.batch_span.set_attribute("epoch", epoch.epoch_id)
                ticket.batch_span.set_attribute("batch_size", len(live))
                ticket.batch_span.end()
                ticket.batch_span = None
            spans.append(ticket.span)
        self.metrics.histogram("batch_size").observe(len(live))
        if self.journal is not None:
            self.journal.epoch_dispatch(
                epoch.epoch_id, tuple(t.request_id for t in live)
            )

        def on_retry(_attempt, _exc, _sleep_s):
            # A shard died mid-pass.  The router has already promoted
            # standbys on the failed links; one retry of the whole epoch
            # against the recovered plane is cheap and usually succeeds.
            self.metrics.counter("epoch_cluster_retries").inc()

        self._stop_idle_work()
        try:
            with self.metrics.timer("epoch_allocation_s"):
                results = run_with_policy(
                    lambda: self._allocator.allocate(work, spans=spans),
                    self._epoch_policy,
                    rng=self._retry_rng,
                    on_retry=on_retry,
                    metrics=self.metrics,
                    op="epoch",
                )
        except Exception:
            # A failed pass must not strand its callers or kill the loop.
            self.metrics.counter("epoch_failures").inc()
            for ticket in live:
                self._resolve(ticket, "rejected", self._clock(), REASON_INTERNAL_ERROR)
            return
        done_at = self._clock()
        for ticket, result in zip(live, results):
            status = "granted" if result.granted else "denied"
            self._resolve(ticket, status, done_at, result=result)
        self._start_idle_work()
