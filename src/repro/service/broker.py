"""Asyncio request broker for the PISA allocation service.

:class:`SpectrumAccessBroker` turns the synchronous protocol stack into
a long-running service: PU updates and SU license requests arrive
concurrently, admission control bounds memory, an
:class:`~repro.service.batching.EpochBatcher` coalesces concurrent SU
requests, and each closed epoch runs as one allocation pass on a worker
thread (``asyncio.to_thread``) so the event loop keeps accepting traffic
while big-int arithmetic grinds.

Between epochs the broker runs the allocator's *idle work*
(:attr:`~repro.service.batching.BatchAllocator.idle_work` — with a
conversion server in this process, its §VI-A obfuscator fill) on one
more worker thread: from the moment an epoch's decisions are resolved
until the next epoch is dispatched.  The thread is told to stop and
joined before the allocation pass starts, and again in :meth:`stop`, so
it never runs beside a pass and never outlives the broker.

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
import threading
import time
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
    future: asyncio.Future
    #: Per-request root span (``None`` when the broker is untraced).
    span: object | None = None
    #: Open ``batch`` child covering queue-to-dispatch residence.
    batch_span: object | None = None
    #: Set by the first resolution (granted/denied/rejected).  Every
    #: resolution path checks it first: a ticket that an expired
    #: deadline and a failed epoch retry both try to reject is counted
    #: exactly once in the metrics.
    resolved: bool = False


class _PuUpdate:
    __slots__ = ("message",)

    def __init__(self, message) -> None:
        self.message = message


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
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pending = 0
        self._running = False
        self._shutting_down = False
        self._loop_task: asyncio.Task | None = None
        #: Serializes start/stop: without it, two concurrent stop()
        #: calls both pass the running check, and the second trips the
        #: loop-task assert after the first's await window (ASY004).
        self._lifecycle_lock = asyncio.Lock()
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
        #: (``None``: nothing), the event that tells it to stop, and the
        #: thread it is running on right now.
        self._idle_work = getattr(allocator, "idle_work", None)
        self._idle_stop = threading.Event()
        self._idle: asyncio.Future | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        async with self._lifecycle_lock:
            if self._running:
                raise ProtocolError("broker already started")
            self._running = True
            self._shutting_down = False
            self._loop_task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Graceful shutdown: drain the open epoch, reject the rest."""
        async with self._lifecycle_lock:
            if not self._running:
                return
            self._shutting_down = True
            self._queue.put_nowait(_SHUTDOWN)
            assert self._loop_task is not None
            try:
                await self._loop_task
            finally:
                # After the loop: its last flush starts the idle work again.
                await self._stop_idle_work()
            self._loop_task = None
            self._running = False

    async def __aenter__(self) -> "SpectrumAccessBroker":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- ingress -----------------------------------------------------------------

    def submit_pu_update(self, message) -> None:
        """Enqueue a PU channel update (never rejected; tiny and urgent)."""
        if self._pu_update_handler is None:
            raise ProtocolError("broker has no PU update handler")
        self.metrics.counter("pu_updates_submitted").inc()
        if self.admission is not None:
            self.admission.on_pu_update()
        self._queue.put_nowait(_PuUpdate(message))

    async def submit_request(
        self, su_id: str, request, deadline_s: float | None = None
    ) -> ServiceDecision:
        """Submit one SU request and await its decision.

        Applies admission control synchronously: a full queue or a
        shutting-down broker rejects immediately without queueing.
        """
        now = self._clock()
        self.metrics.counter("requests_submitted").inc()
        span = (
            self.tracer.start_span("request", su=su_id)
            if self.tracer is not None
            else None
        )
        admission = child(span, "admission")
        if self._shutting_down or not self._running:
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
            future=asyncio.get_running_loop().create_future(),
            span=span,
        )
        if span is not None:
            span.set_attribute("request_id", ticket.request_id)
        if admission is not None:
            admission.end()
        ticket.batch_span = child(span, "batch")
        self._pending += 1
        self.metrics.gauge("queue_depth").set(self._pending)
        self._queue.put_nowait(ticket)
        return await ticket.future

    def _reject(
        self,
        su_id: str,
        reason: str,
        submitted_at: float,
        span=None,
        admission=None,
    ) -> ServiceDecision:
        self.metrics.counter("requests_rejected", reason=reason).inc()
        if admission is not None:
            admission.end()
        if span is not None:
            span.set_attribute("status", "rejected")
            span.set_attribute("reason", reason)
            span.end()
        return ServiceDecision(
            su_id=su_id,
            status="rejected",
            reason=reason,
            latency_s=self._clock() - submitted_at,
            batch_size=0,
        )

    # -- the service loop --------------------------------------------------------

    async def _run(self) -> None:
        while True:
            due_at = self._batcher.next_due_at()
            try:
                if due_at is None:
                    item = await self._queue.get()
                else:
                    timeout = max(0.0, due_at - self._clock())
                    item = await asyncio.wait_for(self._queue.get(), timeout)
            except asyncio.TimeoutError:
                epoch = self._batcher.pop_ready(self._clock())
                if epoch is not None:
                    await self._dispatch(epoch)
                continue

            if item is _SHUTDOWN:
                epoch = self._batcher.flush()
                if epoch is not None:
                    await self._dispatch(epoch)
                self._drain_rejecting()
                return
            if isinstance(item, _PuUpdate):
                await asyncio.to_thread(self._pu_update_handler, item.message)
                self.metrics.counter("pu_updates_applied").inc()
                continue
            now = self._clock()
            if now >= item.deadline_at:
                # The deadline expired while the ticket sat in the queue;
                # it must not be dispatched into an epoch.
                self._resolve_rejection(item, REASON_DEADLINE_EXPIRED)
                continue
            epoch = self._batcher.add(item, now)
            if epoch is not None:
                await self._dispatch(epoch)

    def _drain_rejecting(self) -> None:
        now = self._clock()
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if isinstance(item, _Ticket):
                # An already-expired ticket reports its own failure mode,
                # not the shutdown that happened to reveal it.
                if now >= item.deadline_at:
                    self._resolve_rejection(item, REASON_DEADLINE_EXPIRED)
                else:
                    self._resolve_rejection(item, REASON_SHUTTING_DOWN)

    def _mark_resolved(self, ticket: _Ticket) -> bool:
        """First resolution of this ticket?  Dedupe on its flag.

        Before this guard, a ticket could be rejected twice — once by a
        deadline check and again when a failed (retried) epoch pass
        rejected everything it carried — decrementing ``_pending`` and
        bumping ``requests_rejected`` both times.
        """
        if ticket.resolved:
            self.metrics.counter("requests_deduped").inc()
            return False
        ticket.resolved = True
        self._pending -= 1
        self.metrics.gauge("queue_depth").set(self._pending)
        return True

    def _close_ticket_span(self, ticket: _Ticket, status: str, reason=None) -> None:
        if ticket.batch_span is not None:
            ticket.batch_span.end()
            ticket.batch_span = None
        if ticket.span is not None:
            ticket.span.set_attribute("status", status)
            if reason is not None:
                ticket.span.set_attribute("reason", reason)
            ticket.span.end()

    def _resolve_rejection(self, ticket: _Ticket, reason: str) -> None:
        if not self._mark_resolved(ticket):
            return
        self.metrics.counter("requests_rejected", reason=reason).inc()
        self._close_ticket_span(ticket, "rejected", reason)
        if not ticket.future.done():
            ticket.future.set_result(
                ServiceDecision(
                    su_id=ticket.su_id,
                    status="rejected",
                    reason=reason,
                    latency_s=self._clock() - ticket.submitted_at,
                    batch_size=0,
                )
            )

    def _start_idle_work(self) -> None:
        if self._idle_work is None:
            return
        self._idle_stop.clear()
        self._idle = asyncio.ensure_future(
            asyncio.to_thread(self._idle_work, self._idle_stop.is_set)
        )

    async def _stop_idle_work(self) -> None:
        """Returns once the idle thread has: one unit of its work at most."""
        if self._idle is None:
            return
        self._idle_stop.set()
        idle, self._idle = self._idle, None
        try:
            await idle
        except Exception:
            # Idle work is optional; requests go on without what it prepares.
            self.metrics.counter("idle_work_failures").inc()

    async def _dispatch(self, epoch: Epoch) -> None:
        """Run one closed epoch: expire stale tickets, allocate the rest."""
        now = self._clock()
        live: list[_Ticket] = []
        for ticket in epoch.items:
            if now > ticket.deadline_at:
                self._resolve_rejection(ticket, REASON_DEADLINE_EXPIRED)
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

        await self._stop_idle_work()
        try:
            with self.metrics.timer("epoch_allocation_s"):
                results = await asyncio.to_thread(
                    run_with_policy,
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
                self._resolve_rejection(ticket, REASON_INTERNAL_ERROR)
            return
        done_at = self._clock()
        for ticket, result in zip(live, results):
            if not self._mark_resolved(ticket):
                continue
            status = "granted" if result.granted else "denied"
            self.metrics.counter(f"requests_{status}").inc()
            if self.admission is not None and result.granted:
                self.admission.on_granted(ticket.su_id)
            self._close_ticket_span(ticket, status)
            latency = done_at - ticket.submitted_at
            self.metrics.histogram("request_latency_s").observe(latency)
            if not ticket.future.done():
                ticket.future.set_result(
                    ServiceDecision(
                        su_id=ticket.su_id,
                        status=status,
                        reason=None,
                        latency_s=latency,
                        batch_size=result.batch_size,
                        outcome=result.outcome,
                    )
                )
        self.metrics.gauge("queue_depth").set(self._pending)
        self._start_idle_work()
