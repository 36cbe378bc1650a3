"""Broker scheduling semantics (stub allocator) and one real integration."""

import asyncio

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


class TestRequestFlow:
    def test_single_request_granted(self):
        async def scenario():
            async with _broker(batch_window_s=0.01) as broker:
                return await broker.submit_request("su-1", object())

        decision = asyncio.run(scenario())
        assert decision.status == "granted"
        assert decision.ran
        assert decision.reason is None
        assert decision.batch_size == 1
        assert decision.latency_s >= 0.0

    def test_concurrent_requests_share_an_epoch(self):
        allocator = StubAllocator()

        async def scenario():
            async with _broker(allocator, batch_window_s=0.1, max_batch=8) as broker:
                return await asyncio.gather(
                    broker.submit_request("su-1", object()),
                    broker.submit_request("su-2", object()),
                )

        decisions = asyncio.run(scenario())
        assert [d.batch_size for d in decisions] == [2, 2]
        assert len(allocator.epochs) == 1

    def test_max_batch_dispatches_early(self):
        allocator = StubAllocator()

        async def scenario():
            # Window far beyond the test runtime: only the size cap can
            # dispatch these.
            async with _broker(allocator, batch_window_s=60.0, max_batch=2) as broker:
                return await asyncio.gather(
                    broker.submit_request("su-1", object()),
                    broker.submit_request("su-2", object()),
                )

        decisions = asyncio.run(scenario())
        assert all(d.status == "granted" for d in decisions)
        assert len(allocator.epochs) == 1

    def test_metrics_counters(self):
        async def scenario():
            broker = _broker(batch_window_s=0.01)
            async with broker:
                await broker.submit_request("su-1", object())
            return broker.metrics.snapshot()

        snap = asyncio.run(scenario())
        assert snap["counters"]["requests_submitted"] == 1
        assert snap["counters"]["requests_granted"] == 1
        assert snap["histograms"]["request_latency_s"]["count"] == 1
        assert snap["histograms"]["batch_size"]["count"] == 1


class TestRejections:
    def test_deadline_expired(self):
        async def scenario():
            async with _broker(batch_window_s=0.05) as broker:
                return await broker.submit_request(
                    "su-1", object(), deadline_s=0.0
                )

        decision = asyncio.run(scenario())
        assert decision.status == "rejected"
        assert decision.reason == REASON_DEADLINE_EXPIRED
        assert not decision.ran

    def test_zero_deadline_never_reaches_the_allocator(self):
        allocator = StubAllocator()

        async def scenario():
            async with _broker(allocator, batch_window_s=0.01) as broker:
                return await broker.submit_request(
                    "su-1", object(), deadline_s=0.0
                )

        decision = asyncio.run(scenario())
        assert decision.reason == REASON_DEADLINE_EXPIRED
        assert allocator.epochs == []  # admission control, not a failed run

    def test_expired_while_queued_is_rejected_not_dispatched(self):
        """A deadline that lapses between admission and queue pull must
        produce the distinct deadline error — the protocol never runs."""
        allocator = StubAllocator()

        async def scenario():
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
            async with broker:
                return await broker.submit_request(
                    "su-1", object(), deadline_s=1.0
                )

        decision = asyncio.run(scenario())
        assert decision.status == "rejected"
        assert decision.reason == REASON_DEADLINE_EXPIRED
        assert allocator.epochs == []

    def test_drain_distinguishes_expired_from_live(self):
        """Shutdown drain: an already-expired ticket reports its own
        failure mode, a live one reports the shutdown."""

        async def scenario():
            now = [100.0]
            broker = SpectrumAccessBroker(
                allocator=StubAllocator(),
                config=ServiceConfig(batch_window_s=60.0),
                clock=lambda: now[0],
            )
            broker._running = True  # queue without running the loop
            expired = asyncio.ensure_future(
                broker.submit_request("su-old", object(), deadline_s=0.5)
            )
            live = asyncio.ensure_future(
                broker.submit_request("su-new", object(), deadline_s=60.0)
            )
            await asyncio.sleep(0)  # both tickets reach the queue
            now[0] = 101.0  # su-old's deadline has lapsed, su-new's has not
            broker._drain_rejecting()
            return await expired, await live

        old, new = asyncio.run(scenario())
        assert old.reason == REASON_DEADLINE_EXPIRED
        assert new.reason == REASON_SHUTTING_DOWN

    def test_queue_full(self):
        async def scenario():
            async with _broker(
                batch_window_s=60.0, max_batch=8, max_pending=1
            ) as broker:
                first = asyncio.ensure_future(
                    broker.submit_request("su-1", object())
                )
                await asyncio.sleep(0)  # let the first pass admission
                second = await broker.submit_request("su-2", object())
                return second, first  # stop() flushes and resolves first

        second, first_future = asyncio.run(scenario())
        assert second.status == "rejected"
        assert second.reason == REASON_QUEUE_FULL

    def test_rejected_after_stop(self):
        async def scenario():
            broker = _broker(batch_window_s=0.01)
            await broker.start()
            await broker.stop()
            return await broker.submit_request("su-1", object())

        decision = asyncio.run(scenario())
        assert decision.reason == REASON_SHUTTING_DOWN

    def test_allocator_failure_rejects_not_hangs(self):
        async def scenario():
            async with _broker(
                StubAllocator(fail=True), batch_window_s=0.01
            ) as broker:
                return await asyncio.wait_for(
                    broker.submit_request("su-1", object()), timeout=5.0
                )

        decision = asyncio.run(scenario())
        assert decision.status == "rejected"
        assert decision.reason == REASON_INTERNAL_ERROR


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

        async def scenario():
            async with _broker(allocator, batch_window_s=0.01) as broker:
                decision = await broker.submit_request("su-1", object())
                return decision, broker.metrics.snapshot()

        decision, metrics = asyncio.run(scenario())
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

        async def scenario():
            async with _broker(allocator, batch_window_s=0.01) as broker:
                return await broker.submit_request("su-1", object())

        decision = asyncio.run(scenario())
        assert decision.status == "rejected"
        assert decision.reason == REASON_INTERNAL_ERROR
        assert allocator.calls == 2  # one retry, then give up


class TestPuUpdates:
    def test_updates_applied_between_epochs(self):
        seen = []

        async def scenario():
            broker = _broker(pu_handler=seen.append, batch_window_s=0.01)
            async with broker:
                broker.submit_pu_update("update-1")
                await broker.submit_request("su-1", object())
            return broker.metrics.snapshot()

        snap = asyncio.run(scenario())
        assert seen == ["update-1"]
        assert snap["counters"]["pu_updates_applied"] == 1

    def test_update_without_handler_rejected(self):
        broker = _broker()
        with pytest.raises(ProtocolError):
            broker.submit_pu_update("update-1")


class TestLifecycle:
    def test_double_start_rejected(self):
        async def scenario():
            broker = _broker()
            await broker.start()
            try:
                with pytest.raises(ProtocolError):
                    await broker.start()
            finally:
                await broker.stop()

        asyncio.run(scenario())

    def test_stop_idempotent(self):
        async def scenario():
            broker = _broker()
            await broker.start()
            await broker.stop()
            await broker.stop()

        asyncio.run(scenario())

    def test_concurrent_stop_is_safe(self):
        """Regression (ASY004): two stop() calls racing through the drain
        await used to trip the loop-task assert / clobber state; the
        lifecycle lock serializes them."""

        async def scenario():
            broker = _broker()
            await broker.start()
            await asyncio.gather(broker.stop(), broker.stop(), broker.stop())
            assert broker._loop_task is None
            assert broker._running is False

        asyncio.run(scenario())

    def test_concurrent_stop_then_restart(self):
        async def scenario():
            broker = _broker()
            await broker.start()
            await asyncio.gather(broker.stop(), broker.stop())
            await broker.start()
            await broker.stop()

        asyncio.run(scenario())


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

        async def run_service():
            broker = SpectrumAccessBroker(
                allocator=BatchAllocator.for_coordinator(coordinator),
                pu_update_handler=coordinator.sdc.handle_pu_update,
                config=ServiceConfig(batch_window_s=0.01),
            )
            async with broker:
                return await broker.submit_request(
                    scenario.sus[0].su_id, request
                )

        decision = asyncio.run(run_service())
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

            async def run_service():
                broker = SpectrumAccessBroker(
                    allocator=BatchAllocator.for_coordinator(coordinator),
                    pu_update_handler=coordinator.sdc.handle_pu_update,
                    config=ServiceConfig(batch_window_s=0, max_batch=1),
                )
                async with broker:
                    return await broker.submit_request(su_id, request)

            decision = asyncio.run(run_service())
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

    def _ticket(self, loop):
        from repro.service.broker import _Ticket

        return _Ticket(
            request_id="req-dedupe",
            su_id="su-1",
            request=object(),
            submitted_at=0.0,
            deadline_at=0.0,
            future=loop.create_future(),
        )

    def test_double_rejection_counts_once(self):
        async def scenario():
            async with _broker(batch_window_s=0.01) as broker:
                ticket = self._ticket(asyncio.get_running_loop())
                broker._pending = 1
                # Historically: deadline check rejected the ticket, then a
                # failed epoch pass rejected it again — double-decrementing
                # the queue and double-counting requests_rejected.
                broker._resolve_rejection(ticket, REASON_DEADLINE_EXPIRED)
                broker._resolve_rejection(ticket, REASON_INTERNAL_ERROR)
                return broker.metrics.snapshot(), broker._pending

        snap, pending = asyncio.run(scenario())
        assert pending == 0  # decremented exactly once
        rejected = sum(
            value
            for name, value in snap["counters"].items()
            if name.startswith("requests_rejected")
        )
        assert rejected == 1
        assert snap["counters"]["requests_deduped"] == 1

    def test_rejected_ticket_cannot_be_granted_later(self):
        async def scenario():
            async with _broker(batch_window_s=0.01) as broker:
                ticket = self._ticket(asyncio.get_running_loop())
                broker._pending = 1
                broker._resolve_rejection(ticket, REASON_DEADLINE_EXPIRED)
                # The dedupe guard is what the epoch grant loop consults.
                return broker._mark_resolved(ticket)

        assert asyncio.run(scenario()) is False

    def test_request_ids_are_unique_per_submission(self):
        async def scenario():
            async with _broker(batch_window_s=0.01, max_batch=8) as broker:
                task_a = asyncio.create_task(
                    broker.submit_request("su-1", object())
                )
                task_b = asyncio.create_task(
                    broker.submit_request("su-1", object())
                )
                await asyncio.gather(task_a, task_b)
                return broker.metrics.snapshot()

        snap = asyncio.run(scenario())
        assert snap["counters"]["requests_granted"] == 2
        assert "requests_deduped" not in snap["counters"]
