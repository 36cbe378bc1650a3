"""Scatter-gather routing of SDC work across the shard fleet.

The router owns the data path of the cluster: it splits each request's
columns by ring ownership, fans the per-shard sub-queries out on a
thread pool (in memory the shards' exponentiations share this process's
interpreter; on the socket plane each shard is its own worker process,
so the fan-out is genuinely parallel), and gathers the results.  It
also owns the *failure* path: a sub-query that hits a dead primary
(:class:`~repro.errors.ShardDownError`) or a cut wire
(:class:`~repro.errors.LinkDownError`) triggers replica promotion and a
bounded retry against the new primary — at most ``max_attempts`` tries
per sub-query, after which the failure propagates to the caller.

Liveness has two layers: every successful sub-query records a heartbeat
on its replica set, and :meth:`check_liveness` (run by the coordinator
between epochs) proactively promotes any shard whose primary is dead
and whose heartbeat has aged past the replica set's timeout — so a
crashed shard is recovered even when no request happens to land on it.

Every sub-query and response is accounted on its own directed
router↔shard link of the deployment's
:class:`~repro.net.transport.InMemoryTransport`, and failure injection
at the transport layer (``fail_endpoint``) is honoured exactly like a
shard crash.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.cluster.fencing import LeaseAuthority
from repro.cluster.membership import ClusterMembership
from repro.cluster.replica import ShardReplicaSet
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import (
    ClusterError,
    FencedError,
    LinkDownError,
    MessageDroppedError,
    RetryExhaustedError,
    ShardDownError,
)
from repro.net.transport import InMemoryTransport
from repro.pisa.messages import PUUpdateMessage
from repro.resilience.policy import CircuitBreaker, RetryPolicy, run_with_policy
from repro.telemetry import child
from repro.telemetry.metrics import Histogram

__all__ = ["RouterStats", "ShardRouter"]

#: The router's endpoint name on the transport.
ROUTER_ENDPOINT = "router"

# When is a slow-but-alive shard *suspect* (gray failure)?  A sub-query
# RTT at or above the fleet histogram's SUSPECT_QUANTILE — but never
# below the absolute SUSPECT_FLOOR_S — marks the shard suspect: the
# router serves it from the standby without burning a promotion.  A
# later RTT back under the floor clears the suspicion.
# SUSPECT_MIN_SAMPLES observations must exist before any verdict, so the
# first request of a cold deployment cannot condemn a shard.
SUSPECT_QUANTILE = 99.0
SUSPECT_FLOOR_S = 0.25
SUSPECT_MIN_SAMPLES = 4


@dataclass
class RouterStats:
    """Data-path counters for the evaluation harness."""

    subqueries: int = 0
    subquery_failures: int = 0
    failovers: int = 0
    pu_updates_routed: int = 0
    #: Injected drops retried in place (no failover — the link was up).
    drops_retried: int = 0
    #: Shards flagged as gray failures (routed around, not promoted).
    suspects: int = 0


class ShardRouter:
    """The cluster's scatter-gather and failover engine."""

    def __init__(
        self,
        membership: ClusterMembership,
        replica_sets: dict[str, ShardReplicaSet],
        transport: InMemoryTransport,
        fencing: LeaseAuthority,
        max_attempts: int = 2,
        scatter_threads: int | None = None,
        metrics=None,
    ) -> None:
        if max_attempts < 1:
            raise ClusterError("max_attempts must be positive")
        self.membership = membership
        self.max_attempts = max_attempts
        self.stats = RouterStats()
        #: The deployment's lease issuer: every sub-query is stamped with
        #: the shard's current token and recovery is fence-then-promote.
        self._fencing = fencing
        # Fleet-wide RTT history backing the suspect quantile.  Kept
        # internal (not registry-owned) so suspicion works without a
        # metrics registry attached.
        self._rtt_fleet = Histogram(reservoir=1024)
        #: Optional :class:`repro.telemetry.MetricsRegistry` mirroring
        #: :attr:`stats` as ``cluster_*`` counter families (plus the
        #: policy engine's retry counters and breaker state).
        self._metrics = metrics
        self._replicas = dict(replica_sets)
        self._transport = transport
        # The canonical retry loop (repro.resilience.policy) replaces the
        # old hand-rolled while-loop.  Backoff is zeroed: a failover
        # retry should hit the freshly promoted primary immediately, and
        # the modelled transports have no congestion to back off from.
        self._policy = RetryPolicy(
            max_attempts=max_attempts,
            base_backoff_s=0.0,
            backoff_cap_s=0.0,
            retryable=(ShardDownError, LinkDownError, MessageDroppedError),
        )
        self._retry_rng = DeterministicRandomSource(0)
        #: Per-shard circuit breaker.  Deliberately lenient — a normal
        #: failover burns one or two consecutive failures; the breaker
        #: exists to shed hundred-call storms at a shard that stays dead.
        self._breakers: dict[str, CircuitBreaker] = {}
        # Stats and the replica table are touched from scatter threads.
        self._lock = threading.Lock()
        workers = (
            scatter_threads
            if scatter_threads is not None
            else max(4, 2 * len(replica_sets))
        )
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard-router"
        )
        for shard_id in replica_sets:
            fencing.register(shard_id)
        if metrics is not None:
            for shard_id in replica_sets:
                # Scrape-before-first-event: the family exists at zero.
                metrics.histogram("heartbeat_rtt_seconds", shard=shard_id)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    @property
    def fencing(self):
        return self._fencing

    def fence_token(self, shard_id: str) -> int:
        """The token sub-queries to ``shard_id`` are stamped with now."""
        return self._fencing.token(shard_id)

    def attach_metrics(self, metrics) -> None:
        """Adopt a telemetry registry (also wired into existing breakers)."""
        self._metrics = metrics
        with self._lock:
            breakers = list(self._breakers.values())
        for breaker in breakers:
            breaker.metrics = metrics

    def _count(self, name: str, amount: int = 1, **labels: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, **labels).inc(amount)

    def replica_set(self, shard_id: str) -> ShardReplicaSet:
        with self._lock:
            replica_set = self._replicas.get(shard_id)
        if replica_set is None:
            raise ClusterError(f"no replica set for shard {shard_id!r}")
        return replica_set

    def add_replica_set(self, shard_id: str, replica_set: ShardReplicaSet) -> None:
        with self._lock:
            self._replicas[shard_id] = replica_set

    def remove_replica_set(self, shard_id: str) -> ShardReplicaSet:
        with self._lock:
            return self._replicas.pop(shard_id)

    @property
    def shard_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._replicas))

    # -- placement ------------------------------------------------------------------

    def split_columns(
        self, region_blocks: tuple[int, ...]
    ) -> dict[str, tuple[int, ...]]:
        """``{shard_id: column indices}`` over the request's disclosed blocks.

        Only shards that own at least one disclosed block appear; the
        ring is read once so a concurrent membership change cannot split
        one request across two ring versions.
        """
        ring = self.membership.ring
        split: dict[str, list[int]] = {}
        for k, block in enumerate(region_blocks):
            split.setdefault(ring.node_for(block), []).append(k)
        return {shard_id: tuple(cols) for shard_id, cols in split.items()}

    # -- failure handling -------------------------------------------------------------

    def _recover(self, shard_id: str, reason: str = "failover") -> None:
        """Fence, then promote, then restore the transport endpoint.

        Order is the split-brain defence: the successor's token is
        durable and installed on every reachable replica — *including*
        the zombie primary — before the standby takes a single request,
        so nothing the deposed primary does afterwards can commit.
        """
        replica_set = self.replica_set(shard_id)
        lease = self._fencing.bump(shard_id, reason)
        replica_set.install_fence(lease.token)
        replica_set.promote()
        self._transport.restore_endpoint(shard_id)
        with self._lock:
            self.stats.failovers += 1
        self._count("cluster_failovers_total", shard=shard_id)

    def check_liveness(self, now: float | None = None) -> tuple[str, ...]:
        """Promote every shard whose primary is dead and heartbeat stale.

        Returns the shard ids promoted.  Run between epochs; this is the
        detection path for shards that crash while idle.  A shard whose
        heartbeat is stale while its primary is demonstrably *alive* (a
        skewed clock, a gray slowdown) is only marked suspect — promoting
        on staleness alone is exactly the spurious failover the fencing
        protocol exists to survive, so the cheap path avoids it entirely.
        """
        promoted = []
        for shard_id in self.shard_ids:
            replica_set = self.replica_set(shard_id)
            if replica_set.is_alive(now):
                continue
            if replica_set.primary.alive:
                if not replica_set.suspect:
                    replica_set.mark_suspect(True)
                    with self._lock:
                        self.stats.suspects += 1
                    self._count("cluster_suspects_total", shard=shard_id)
                continue
            self._recover(shard_id)
            promoted.append(shard_id)
        return tuple(promoted)

    # -- gray-failure detection --------------------------------------------------------

    def _modelled_rtt(self, shard_id: str) -> float:
        """The injected round-trip delay for one sub-query, if any.

        The in-memory transports deliver synchronously and only *report*
        an injected delay, so a wall-clock RTT measurement alone would
        never see it; folding the armed one-way delays in makes
        gray-failure detection observable on both planes.
        """
        return self._transport.pending_delay_seconds(
            ROUTER_ENDPOINT, shard_id
        ) + self._transport.pending_delay_seconds(shard_id, ROUTER_ENDPOINT)

    def _note_rtt(self, shard_id: str, rtt_s: float) -> None:
        if self._metrics is not None:
            self._metrics.histogram(
                "heartbeat_rtt_seconds", shard=shard_id
            ).observe(rtt_s)
        with self._lock:
            self._rtt_fleet.observe(rtt_s)
            enough = self._rtt_fleet.count >= SUSPECT_MIN_SAMPLES
            threshold = SUSPECT_FLOOR_S
            if enough:
                threshold = max(
                    threshold, self._rtt_fleet.percentile(SUSPECT_QUANTILE)
                )
        replica_set = self.replica_set(shard_id)
        if enough and rtt_s >= threshold:
            if not replica_set.suspect:
                replica_set.mark_suspect(True)
                with self._lock:
                    self.stats.suspects += 1
                self._count("cluster_suspects_total", shard=shard_id)
        elif replica_set.suspect and rtt_s < SUSPECT_FLOOR_S:
            replica_set.mark_suspect(False)

    def breaker_for(self, shard_id: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(shard_id)
            if breaker is None:
                breaker = CircuitBreaker(
                    name=f"router->{shard_id}", metrics=self._metrics
                )
                self._breakers[shard_id] = breaker
            return breaker

    def _call_shard(self, shard_id: str, request, invoke, span=None):
        """One sub-query with transport accounting and bounded failover.

        Retries run through the unified policy engine: an injected drop
        (:class:`~repro.errors.MessageDroppedError`) is retried against
        the *same* primary (the link is up — failing over would discard
        a healthy shard), while a dead shard or cut wire promotes the
        standby before the next attempt.  Budget and message shape match
        the pre-policy behaviour exactly: at most ``max_attempts`` tries,
        then ``ShardDownError`` naming the attempt count.

        ``span`` (pre-created by :meth:`scatter` on the calling thread)
        covers the whole *logical* sub-query — every retry and failover
        included — so fault schedules never change the span-tree shape.
        """

        def attempt():
            replica_set = self.replica_set(shard_id)
            # Re-stamp per attempt: a failover between attempts bumps the
            # lease, and the retry must carry the *successor's* token.
            stamped = request
            token = self.fence_token(shard_id)
            if token and getattr(request, "fence_token", None) is not None:
                if request.fence_token != token:
                    stamped = dataclasses.replace(request, fence_token=token)
            started = time.perf_counter()
            self._transport.send(stamped, ROUTER_ENDPOINT, shard_id)
            result = invoke(replica_set.serving_replica(), stamped)
            replica_set.record_heartbeat()
            self._transport.send(result, shard_id, ROUTER_ENDPOINT)
            self._note_rtt(
                shard_id,
                (time.perf_counter() - started) + self._modelled_rtt(shard_id),
            )
            with self._lock:
                self.stats.subqueries += 1
            self._count("cluster_subqueries_total", shard=shard_id)
            return result

        def on_retry(_attempt_number, exc, _sleep_s):
            with self._lock:
                self.stats.subquery_failures += 1
            self._count("cluster_subquery_failures_total", shard=shard_id)
            if isinstance(exc, MessageDroppedError):
                with self._lock:
                    self.stats.drops_retried += 1
                self._count("cluster_drops_retried_total", shard=shard_id)
                return
            try:
                self._recover(shard_id)
            except ClusterError as promote_exc:
                raise ShardDownError(
                    f"shard {shard_id!r} is down and cannot be recovered"
                ) from promote_exc

        try:
            return run_with_policy(
                attempt,
                self._policy,
                breaker=self.breaker_for(shard_id),
                rng=self._retry_rng,
                on_retry=on_retry,
                metrics=self._metrics,
                op="shard_subquery",
            )
        except FencedError:
            # Never retried (NEVER_RETRYABLE): this router's lease view
            # is stale — fail fast and let the caller resynchronise.
            self._count("fenced_requests_total", shard=shard_id)
            raise
        except RetryExhaustedError as exc:
            with self._lock:
                self.stats.subquery_failures += 1
            self._count("cluster_subquery_failures_total", shard=shard_id)
            if span is not None:
                span.record_error(exc)
            raise ShardDownError(
                f"shard {shard_id!r} failed {self.max_attempts} attempts"
            ) from exc
        finally:
            if span is not None:
                span.end()

    # -- the data path ----------------------------------------------------------------

    def route_pu_update(self, message: PUUpdateMessage) -> str:
        """Deliver one PU update to the owning shard (both replicas)."""
        shard_id = self.membership.ring.node_for(message.block_index)

        def invoke(_primary, msg):
            # Mirrored application — the warm standby stays warm.  The
            # token travels beside the message, not inside it: a
            # PUUpdateMessage's bytes are protocol transcript.
            self.replica_set(shard_id).apply_pu_update(
                msg, fence_token=self.fence_token(shard_id)
            )
            return msg

        self._call_shard(shard_id, message, invoke)
        with self._lock:
            self.stats.pu_updates_routed += 1
        self._count("cluster_pu_updates_routed_total", shard=shard_id)
        return shard_id

    def scatter(
        self, requests: dict[str, object], invoke, parent=None
    ) -> dict[str, object]:
        """Fan ``{shard_id: sub-query}`` out concurrently; gather in order.

        ``invoke(primary_shard, request)`` runs on a scatter thread per
        shard; over the socket plane each shard's heavy arithmetic sits
        in its own worker process, so the batch completes in roughly
        the slowest shard's time rather than the sum.  Any sub-query
        that exhausts its retries re-raises here.

        When ``parent`` (a :class:`repro.telemetry.Span`) is given, one
        ``shard`` child span per sub-query is created *here*, in sorted
        shard order on the calling thread — never from the pool threads —
        so the span tree is deterministic regardless of which shard
        finishes first.
        """
        if not requests:
            return {}
        spans = {
            shard_id: child(parent, "shard", shard=shard_id)
            for shard_id in sorted(requests)
        }
        futures = {
            shard_id: self._pool.submit(
                self._call_shard, shard_id, request, invoke, spans[shard_id]
            )
            for shard_id, request in requests.items()
        }
        return {shard_id: future.result() for shard_id, future in futures.items()}

    def scatter_phase1(
        self, requests: dict[str, object], parent=None
    ) -> dict[str, object]:
        return self.scatter(
            requests,
            lambda primary, request: primary.process_phase1(request),
            parent=parent,
        )

    # -- epoch control ---------------------------------------------------------------

    def commit_epoch(self, epoch_id: int, snapshot: bool = True) -> None:
        """Commit the epoch on every shard (and snapshot each primary)."""
        for shard_id in self.shard_ids:
            self.replica_set(shard_id).commit_epoch(
                epoch_id,
                snapshot=snapshot,
                fence_token=self.fence_token(shard_id),
            )
