"""Broker scheduling semantics (stub allocator) and one real integration."""

import asyncio
import sys
import threading

import pytest

from repro.cluster import ClusterCoordinator
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ClusterError, ProtocolError, ShardDownError
from repro.pisa.protocol import PisaCoordinator
from repro.service.batching import AllocationResult, BatchAllocator
from repro.service.broker import (
    REASON_DEADLINE_EXPIRED,
    REASON_INTERNAL_ERROR,
    REASON_QUEUE_FULL,
    REASON_SHUTTING_DOWN,
    ServiceConfig,
    SpectrumAccessBroker,
)

TEST_KEY_BITS = 256
#: Bound on every wait in this file: a broker that never answers fails
#: the test instead of hanging it.
WAIT_S = 30.0


class _Grant:
    granted = True


class StubAllocator:
    """Grants everything instantly; records the epochs it saw."""

    def __init__(self, fail: bool = False) -> None:
        self.epochs = []
        self.fail = fail

    def allocate(self, epoch, spans=None):
        if self.fail:
            raise RuntimeError("allocator exploded")
        self.epochs.append(epoch)
        return [
            AllocationResult(
                su_id=su_id,
                granted=True,
                outcome=_Grant(),
                batch_size=len(epoch.items),
            )
            for su_id, _ in epoch.items
        ]


def _broker(allocator=None, pu_handler=None, **config_kwargs) -> SpectrumAccessBroker:
    return SpectrumAccessBroker(
        allocator=allocator if allocator is not None else StubAllocator(),
        pu_update_handler=pu_handler,
        config=ServiceConfig(**config_kwargs),
    )


def _decide(broker, su_id="su-1", **kwargs):
    """Submit one request and wait for its decision."""
    return broker.submit(su_id, object(), **kwargs).result(timeout=WAIT_S)


def _broker_threads() -> list:
    return [
        t for t in threading.enumerate() if t.name in ("broker-dispatch", "broker-idle")
    ]


class TestRequestFlow:
    def test_single_request_granted(self):
        with _broker(batch_window_s=0.01) as broker:
            decision = _decide(broker)
        assert decision.status == "granted"
        assert decision.ran
        assert decision.reason is None
        assert decision.batch_size == 1
        assert decision.latency_s >= 0.0

    def test_concurrent_requests_share_an_epoch(self):
        allocator = StubAllocator()
        with _broker(allocator, batch_window_s=0.1, max_batch=8) as broker:
            futures = [broker.submit(su, object()) for su in ("su-1", "su-2")]
            decisions = [f.result(timeout=WAIT_S) for f in futures]
        assert [d.batch_size for d in decisions] == [2, 2]
        assert len(allocator.epochs) == 1

    def test_max_batch_dispatches_early(self):
        allocator = StubAllocator()
        # Window far beyond the test runtime: only the size cap can
        # dispatch these before close() flushes the epoch.
        with _broker(allocator, batch_window_s=60.0, max_batch=2) as broker:
            futures = [broker.submit(su, object()) for su in ("su-1", "su-2")]
            decisions = [f.result(timeout=WAIT_S) for f in futures]
        assert all(d.status == "granted" for d in decisions)
        assert len(allocator.epochs) == 1

    def test_metrics_counters(self):
        broker = _broker(batch_window_s=0.01)
        with broker:
            _decide(broker)
        snap = broker.metrics.snapshot()
        assert snap["counters"]["requests_submitted"] == 1
        assert snap["counters"]["requests_granted"] == 1
        assert snap["histograms"]["request_latency_s"]["count"] == 1
        assert snap["histograms"]["batch_size"]["count"] == 1


class TestAwaitableSurface:
    """``start`` / ``submit_request`` / ``stop``: the coroutines the
    benchmark spine's driver awaits, over the synchronous surface."""

    def test_adapters_drive_the_broker(self):
        allocator = StubAllocator()
        broker = _broker(allocator, batch_window_s=60.0, max_batch=2)

        async def scenario():
            await broker.start()
            decisions = await asyncio.gather(
                broker.submit_request("su-1", object()),
                broker.submit_request("su-2", object()),
            )
            await broker.stop()
            return decisions

        decisions = asyncio.run(scenario())
        assert [(d.status, d.batch_size) for d in decisions] == [("granted", 2)] * 2
        assert len(allocator.epochs) == 1
        assert _broker_threads() == []


class TestRejections:
    def test_deadline_expired(self):
        with _broker(batch_window_s=0.05) as broker:
            decision = _decide(broker, deadline_s=0.0)
        assert decision.status == "rejected"
        assert decision.reason == REASON_DEADLINE_EXPIRED
        assert not decision.ran

    def test_zero_deadline_never_reaches_the_allocator(self):
        allocator = StubAllocator()
        with _broker(allocator, batch_window_s=0.01) as broker:
            future = broker.submit("su-1", object(), deadline_s=0.0)
            # Admission control, not a failed run: decided before submit returns.
            assert future.done()
        assert future.result().reason == REASON_DEADLINE_EXPIRED
        assert allocator.epochs == []

    def test_expired_while_queued_is_rejected_not_dispatched(self):
        """A deadline that lapses between admission and queue pull must
        produce the distinct deadline error — the protocol never runs."""
        allocator = StubAllocator()
        # First clock read (admission) sees t=100; every later read
        # sees t=102 — past the t=101 deadline, as if the ticket sat
        # queued behind a slow epoch.
        times = [100.0, 102.0]

        def clock():
            return times.pop(0) if len(times) > 1 else times[0]

        broker = SpectrumAccessBroker(
            allocator=allocator,
            config=ServiceConfig(batch_window_s=0.01),
            clock=clock,
        )
        with broker:
            decision = _decide(broker, deadline_s=1.0)
        assert decision.status == "rejected"
        assert decision.reason == REASON_DEADLINE_EXPIRED
        assert allocator.epochs == []

    def test_drain_distinguishes_expired_from_live(self):
        """close() drains the open epoch: a ticket whose deadline lapsed
        while it waited reports that, a live one runs, and a request
        after close() reports the shutdown."""
        allocator = StubAllocator()
        now = [100.0]
        broker = SpectrumAccessBroker(
            allocator=allocator,
            config=ServiceConfig(batch_window_s=60.0),
            clock=lambda: now[0],
        )
        broker.open()
        expired = broker.submit("su-old", object(), deadline_s=0.5)
        live = broker.submit("su-new", object(), deadline_s=60.0)
        now[0] = 101.0  # su-old's deadline has lapsed, su-new's has not
        broker.close()
        assert expired.result(timeout=0).reason == REASON_DEADLINE_EXPIRED
        assert live.result(timeout=0).status == "granted"
        assert [item for epoch in allocator.epochs for item in epoch.items][0][0] == "su-new"
        assert _decide(broker).reason == REASON_SHUTTING_DOWN

    def test_queue_full(self):
        with _broker(batch_window_s=60.0, max_batch=8, max_pending=1) as broker:
            first = broker.submit("su-1", object())
            second = _decide(broker, "su-2")
        assert second.status == "rejected"
        assert second.reason == REASON_QUEUE_FULL
        assert first.result(timeout=0).status == "granted"  # close() flushed it

    def test_rejected_after_stop(self):
        broker = _broker(batch_window_s=0.01)
        broker.open()
        broker.close()
        assert _decide(broker).reason == REASON_SHUTTING_DOWN

    def test_allocator_failure_rejects_not_hangs(self):
        with _broker(StubAllocator(fail=True), batch_window_s=0.01) as broker:
            decision = _decide(broker)
        assert decision.status == "rejected"
        assert decision.reason == REASON_INTERNAL_ERROR


class TestAdmissionUnderThreads:
    """Admission bookkeeping is one critical section: N threads racing
    ``submit`` against ``max_pending`` leave exact counts."""

    THREADS = 8
    PER_THREAD = 16
    MAX_PENDING = 64
    ROUNDS = 20

    def test_counts_are_exact_and_the_bound_holds(self):
        # Each round crosses the bound once, with every thread at it.
        for _ in range(self.ROUNDS):
            self._round()

    def _round(self):
        gate = threading.Event()

        class GatedAllocator(StubAllocator):
            def allocate(self, epoch, spans=None):
                assert gate.wait(WAIT_S)
                return super().allocate(epoch, spans=spans)

        broker = _broker(
            GatedAllocator(), batch_window_s=60.0, max_batch=8,
            max_pending=self.MAX_PENDING,
        )
        depths = []
        futures = [[] for _ in range(self.THREADS)]
        # All threads reach the max_pending boundary together.
        start = threading.Barrier(self.THREADS)

        def submit_all(out):
            start.wait(WAIT_S)
            for _ in range(self.PER_THREAD):
                out.append(broker.submit("su-1", object()))
                depths.append(broker.metrics.gauge("queue_depth").snapshot())

        threads = [threading.Thread(target=submit_all, args=(out,)) for out in futures]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with broker:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=WAIT_S)
                gate.set()
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        decisions = [f.result(timeout=0) for out in futures for f in out]
        statuses = [d.status for d in decisions]
        total = self.THREADS * self.PER_THREAD
        # The pass is held until every thread is done, so exactly the
        # first MAX_PENDING admissions get in and every later one is full.
        assert statuses.count("granted") == self.MAX_PENDING
        assert statuses.count("rejected") == total - self.MAX_PENDING
        assert {d.reason for d in decisions if d.status == "rejected"} == {
            REASON_QUEUE_FULL
        }
        counters = broker.metrics.snapshot()["counters"]
        assert counters["requests_submitted"] == total
        assert counters["requests_granted"] == self.MAX_PENDING
        assert counters[f"requests_rejected{{reason={REASON_QUEUE_FULL}}}"] == (
            total - self.MAX_PENDING
        )
        assert max(depths) <= self.MAX_PENDING
        assert broker.metrics.gauge("queue_depth").snapshot() == 0
        assert broker._pending == 0


class FlakyClusterAllocator(StubAllocator):
    """Fails the first ``failures`` passes with a cluster error."""

    def __init__(self, failures: int = 1) -> None:
        super().__init__()
        self.failures = failures
        self.calls = 0

    def allocate(self, epoch, spans=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise ShardDownError("primary died mid-epoch")
        return super().allocate(epoch, spans=spans)


class TestClusterRetry:
    def test_shard_failure_retries_the_epoch_once(self):
        allocator = FlakyClusterAllocator(failures=1)
        broker = _broker(allocator, batch_window_s=0.01)
        with broker:
            decision = _decide(broker)
        metrics = broker.metrics.snapshot()
        assert decision.status == "granted"
        assert allocator.calls == 2
        retries = [
            value
            for name, value in metrics["counters"].items()
            if "epoch_cluster_retries" in name
        ]
        assert retries == [1]

    def test_persistent_cluster_failure_rejects(self):
        allocator = FlakyClusterAllocator(failures=2)
        with _broker(allocator, batch_window_s=0.01) as broker:
            decision = _decide(broker)
        assert decision.status == "rejected"
        assert decision.reason == REASON_INTERNAL_ERROR
        assert allocator.calls == 2  # one retry, then give up


class TestPuUpdates:
    def test_updates_applied_between_epochs(self):
        seen = []
        broker = _broker(pu_handler=seen.append, batch_window_s=0.01)
        with broker:
            broker.submit_pu_update("update-1")
            _decide(broker)
        snap = broker.metrics.snapshot()
        assert seen == ["update-1"]
        assert snap["counters"]["pu_updates_applied"] == 1

    def test_a_failing_handler_ends_the_dispatcher_and_close_raises_it(self):
        def explode(_update):
            raise RuntimeError("handler exploded")

        broker = _broker(pu_handler=explode)
        broker.open()
        broker.submit_pu_update("update-1")
        with pytest.raises(RuntimeError, match="handler exploded"):
            broker.close()
        assert _broker_threads() == []
        broker.close()  # the failure is reported once

    def test_update_without_handler_rejected(self):
        broker = _broker()
        with pytest.raises(ProtocolError):
            broker.submit_pu_update("update-1")


class TestLifecycle:
    def test_double_start_rejected(self):
        with _broker() as broker:
            with pytest.raises(ProtocolError):
                broker.open()

    def test_stop_idempotent(self):
        broker = _broker()
        broker.open()
        broker.close()
        broker.close()
        assert _broker_threads() == []

    def test_concurrent_stop_is_safe(self):
        """Three threads closing at once: each returns only once the
        dispatcher is joined, and no broker thread survives."""
        broker = _broker()
        broker.open()
        (dispatcher,) = broker._threads
        seen_alive = []

        def close():
            broker.close()
            seen_alive.append(dispatcher.is_alive())

        closers = [threading.Thread(target=close) for _ in range(3)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=WAIT_S)
        assert not any(thread.is_alive() for thread in closers)
        assert seen_alive == [False, False, False]
        assert broker._threads == []
        assert _broker_threads() == []

    def test_concurrent_stop_then_restart(self):
        broker = _broker()
        broker.open()
        closers = [threading.Thread(target=broker.close) for _ in range(2)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=WAIT_S)
        with broker:
            assert _decide(broker).status == "granted"
        assert _broker_threads() == []


class TestIntegration:
    """One real allocation through broker + BatchAllocator + coordinator."""

    def test_end_to_end_decision_matches_direct_round(self, scenario):
        def deploy():
            coordinator = PisaCoordinator(
                scenario.environment,
                key_bits=TEST_KEY_BITS,
                rng=DeterministicRandomSource("broker-integration"),
            )
            for pu in scenario.pus:
                coordinator.enroll_pu(pu)
            coordinator.enroll_su(scenario.sus[0])
            return coordinator

        direct = deploy()
        direct_report = direct.run_request_round(scenario.sus[0].su_id)

        coordinator = deploy()
        client = coordinator.su_client(scenario.sus[0].su_id)
        request = client.prepare_request()

        broker = SpectrumAccessBroker(
            allocator=BatchAllocator.for_coordinator(coordinator),
            pu_update_handler=coordinator.sdc.handle_pu_update,
            config=ServiceConfig(batch_window_s=0.01),
        )
        with broker:
            decision = broker.submit(scenario.sus[0].su_id, request).result(
                timeout=WAIT_S
            )
        assert decision.ran
        assert (decision.status == "granted") == direct_report.granted
        assert decision.outcome.granted == direct_report.granted


class TestFailedPassDiscardsItsRounds:
    """A pass that fails after phase 1 leaves no round, and no (α, β, ε),
    pending at the SDC — whether the broker's retry then succeeds or the
    epoch fails twice and is rejected."""

    @pytest.mark.parametrize("failures, status", [(1, "ran"), (2, "rejected")])
    def test_no_pending_round_survives(self, scenario, failures, status):
        coordinator = ClusterCoordinator(
            scenario.environment,
            num_shards=2,
            key_bits=TEST_KEY_BITS,
            rng=DeterministicRandomSource("failed-pass"),
        )
        try:
            for pu in scenario.pus:
                coordinator.enroll_pu(pu)
            su_id = scenario.sus[0].su_id
            coordinator.enroll_su(scenario.sus[0])
            request = coordinator.su_client(su_id).prepare_request()
            convert = coordinator.stp.handle_sign_extraction
            calls = []

            def flaky_convert(extraction, span=None):
                calls.append(extraction.round_id)
                if len(calls) <= failures:
                    raise ClusterError("conversion leg lost mid-epoch")
                return convert(extraction, span=span)

            coordinator.stp.handle_sign_extraction = flaky_convert

            broker = SpectrumAccessBroker(
                allocator=BatchAllocator.for_coordinator(coordinator),
                pu_update_handler=coordinator.sdc.handle_pu_update,
                config=ServiceConfig(batch_window_s=0, max_batch=1),
            )
            with broker:
                decision = broker.submit(su_id, request).result(timeout=WAIT_S)
        finally:
            coordinator.close()
        assert len(calls) == 2  # the epoch ran phase 1 twice
        if status == "ran":
            assert decision.ran
        else:
            assert (decision.status, decision.reason) == (
                "rejected",
                REASON_INTERNAL_ERROR,
            )
        assert coordinator.sdc.pending_rounds == 0


class TestResolutionDedupe:
    """Regression: a ticket resolved twice must count once in metrics."""

    def _ticket(self):
        from concurrent.futures import Future

        from repro.service.broker import _Ticket

        return _Ticket(
            request_id="req-dedupe",
            su_id="su-1",
            request=object(),
            submitted_at=0.0,
            deadline_at=0.0,
            future=Future(),
        )

    def test_double_rejection_counts_once(self):
        broker = _broker(batch_window_s=0.01)
        ticket = self._ticket()
        broker._pending = 1
        # Historically: deadline check rejected the ticket, then a
        # failed epoch pass rejected it again — double-decrementing
        # the queue and double-counting requests_rejected.
        broker._resolve(ticket, "rejected", 0.0, REASON_DEADLINE_EXPIRED)
        broker._resolve(ticket, "rejected", 0.0, REASON_INTERNAL_ERROR)
        snap = broker.metrics.snapshot()
        assert broker._pending == 0  # decremented exactly once
        rejected = sum(
            value
            for name, value in snap["counters"].items()
            if name.startswith("requests_rejected")
        )
        assert rejected == 1
        assert snap["counters"]["requests_deduped"] == 1
        assert ticket.future.result(timeout=0).reason == REASON_DEADLINE_EXPIRED

    def test_rejected_ticket_cannot_be_granted_later(self):
        broker = _broker(batch_window_s=0.01)
        ticket = self._ticket()
        broker._pending = 1
        broker._resolve(ticket, "rejected", 0.0, REASON_DEADLINE_EXPIRED)
        # What the epoch grant loop does for a ticket it carried.
        grant = AllocationResult(su_id="su-1", granted=True, outcome=_Grant(), batch_size=1)
        broker._resolve(ticket, "granted", 0.0, result=grant)
        assert broker.metrics.counter("requests_granted").snapshot() == 0
        assert broker.metrics.counter("requests_deduped").snapshot() == 1
        assert ticket.future.result(timeout=0).status == "rejected"

    def test_request_ids_are_unique_per_submission(self):
        broker = _broker(batch_window_s=0.01, max_batch=8)
        with broker:
            futures = [broker.submit("su-1", object()) for _ in range(2)]
            for future in futures:
                future.result(timeout=WAIT_S)
        snap = broker.metrics.snapshot()
        assert snap["counters"]["requests_granted"] == 2
        assert "requests_deduped" not in snap["counters"]
