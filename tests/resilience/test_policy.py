"""Retry policy engine: jitter, bounded attempts, breakers."""

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import CircuitOpenError, RetryExhaustedError
from repro.resilience.policy import (
    CircuitBreaker,
    RetryPolicy,
    decorrelated_jitter,
    run_with_policy,
)


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Flaky:
    """Fails ``failures`` times, then returns ``value`` forever."""

    def __init__(self, failures: int, exc=ValueError, value="ok") -> None:
        self.failures = failures
        self.exc = exc
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"failure {self.calls}")
        return self.value


class TestDecorrelatedJitter:
    def test_stays_within_band(self):
        rng = DeterministicRandomSource(3)
        previous = 0.0
        for _ in range(100):
            sleep = decorrelated_jitter(previous, 0.01, 1.0, rng)
            assert 0.01 <= sleep <= 1.0
            previous = sleep

    def test_nonpositive_previous_uses_base(self):
        rng = DeterministicRandomSource(3)
        sleep = decorrelated_jitter(0.0, 0.5, 10.0, rng)
        assert 0.5 <= sleep <= 1.5  # uniform(base, base * 3)

    def test_deterministic_for_a_seeded_rng(self):
        a = [
            decorrelated_jitter(0.0, 0.01, 1.0, DeterministicRandomSource(5))
            for _ in range(3)
        ]
        assert a[0] == a[1] == a[2]


class TestRunWithPolicy:
    def test_success_is_single_attempt_no_sleep(self):
        sleeps = []
        result = run_with_policy(
            lambda: "value",
            RetryPolicy(max_attempts=5),
            sleep=sleeps.append,
        )
        assert result == "value"
        assert sleeps == []

    def test_retries_then_succeeds(self):
        op = Flaky(failures=2)
        sleeps = []
        retries = []
        result = run_with_policy(
            op,
            RetryPolicy(max_attempts=4, base_backoff_s=0.01, backoff_cap_s=0.1),
            rng=DeterministicRandomSource(1),
            sleep=sleeps.append,
            on_retry=lambda attempt, exc, s: retries.append((attempt, s)),
        )
        assert result == "ok"
        assert op.calls == 3
        assert len(sleeps) == 2
        assert all(0.0 < s <= 0.1 for s in sleeps)
        assert [attempt for attempt, _ in retries] == [1, 2]

    def test_exhaustion_chains_last_failure(self):
        op = Flaky(failures=10)
        with pytest.raises(RetryExhaustedError) as info:
            run_with_policy(
                op, RetryPolicy(max_attempts=3), sleep=lambda _s: None
            )
        assert op.calls == 3
        assert isinstance(info.value.__cause__, ValueError)

    def test_non_retryable_propagates_immediately(self):
        op = Flaky(failures=10, exc=KeyError)
        with pytest.raises(KeyError):
            run_with_policy(
                op,
                RetryPolicy(max_attempts=5, retryable=(ValueError,)),
                sleep=lambda _s: None,
            )
        assert op.calls == 1

    def test_zero_backoff_never_calls_sleep(self):
        sleeps = []
        op = Flaky(failures=2)
        run_with_policy(
            op,
            RetryPolicy(max_attempts=4, base_backoff_s=0.0, backoff_cap_s=0.0),
            sleep=sleeps.append,
        )
        assert sleeps == []


class TestCircuitBreaker:
    def test_opens_at_threshold_and_fails_fast(self):
        clock = FakeClock()
        breaker = CircuitBreaker("stp", failure_threshold=3, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.before_call()  # probe allowed
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(4.9)
        assert breaker.state == CircuitBreaker.OPEN  # fresh timeout

    def test_open_circuit_is_not_retried_by_the_policy(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        breaker.record_failure()
        op = Flaky(failures=0)
        with pytest.raises(CircuitOpenError):
            run_with_policy(
                op,
                RetryPolicy(max_attempts=5),
                breaker=breaker,
                sleep=lambda _s: None,
            )
        assert op.calls == 0

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

