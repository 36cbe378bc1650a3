"""Fencing-token unit behaviour: monotonicity, durability, rejection.

The chaos drills in ``tests/resilience/test_partition_chaos.py`` prove
the lease protocol end to end; these tests pin the primitives — the
:class:`~repro.cluster.fencing.LeaseAuthority` counter can never move
backwards (even across kill9 + cold start, on either store engine), the
shard-side ratchet rejects exactly the stale writers, and a
:class:`~repro.errors.FencedError` is never retried no matter how
sloppily a policy is configured.
"""

import random

import pytest

from repro.cluster.fencing import (
    FENCE_SCOPE_PREFIX,
    LeaseAuthority,
    fence_scope,
)
from repro.cluster.shard import SdcShard
from repro.errors import FencedError, RetryExhaustedError
from repro.pisa.kernel import CellTable
from repro.resilience.policy import (
    NEVER_RETRYABLE,
    RetryPolicy,
    run_with_policy,
)
from repro.store import MemoryStateStore, SqliteStateStore
from repro.telemetry import MetricsRegistry


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    """Both store engines — fencing durability must not care which."""
    if request.param == "memory":
        engine = MemoryStateStore()
    else:
        engine = SqliteStateStore(tmp_path / "fence.sqlite3")
    yield engine
    engine.close()


class TestLeaseAuthority:
    def test_tokens_start_at_zero_and_increase(self):
        authority = LeaseAuthority(store=MemoryStateStore())
        assert authority.register("shard-0") == 0
        assert authority.token("shard-0") == 0
        first = authority.bump("shard-0", "failover")
        second = authority.bump("shard-0", "failover")
        assert (first.token, second.token) == (1, 2)
        assert authority.token("shard-0") == 2

    def test_shards_are_fenced_independently(self):
        authority = LeaseAuthority(store=MemoryStateStore())
        authority.bump("shard-0", "manual")
        authority.bump("shard-0", "manual")
        assert authority.token("shard-1") == 0
        assert authority.bump("shard-1", "manual").token == 1
        assert authority.shard_ids() == ("shard-0", "shard-1")

    def test_bump_persists_to_store_before_returning(self, store):
        authority = LeaseAuthority(store=store)
        lease = authority.bump("shard-0", "failover")
        blob = store.get_checkpoint(fence_scope("shard-0"))
        assert int.from_bytes(blob, "big") == lease.token

    def test_register_recovers_persisted_token(self, store):
        LeaseAuthority(store=store).bump("shard-0", "failover")
        reborn = LeaseAuthority(store=store)
        assert reborn.register("shard-0") == 1

    def test_scope_prefix_is_stable(self):
        # Cold-start recovery greps this prefix; renaming it silently
        # orphans every persisted lease.
        assert fence_scope("shard-7") == FENCE_SCOPE_PREFIX + "shard-7"
        assert FENCE_SCOPE_PREFIX == "fence/"


class TestMonotonicityAcrossColdStarts:
    """Satellite property: promote → kill9 → cold start → promote.

    Tokens must be *strictly* monotonic per shard across authority
    incarnations sharing a store.  The sequence of issued tokens is the
    invariant; gaps are fine (a crash between persist and use wastes a
    number), regressions are split-brain.
    """

    def test_token_survives_kill9_and_next_bump_exceeds_it(self, store):
        incumbent = LeaseAuthority(store=store)
        t1 = incumbent.bump("shard-0", "manual").token
        t2 = incumbent.bump("shard-0", "failover").token
        # kill9: the incumbent object is simply abandoned, nothing is
        # flushed or closed — durability came from bump's store-first
        # write order.
        reborn = LeaseAuthority(store=store)
        assert reborn.register("shard-0") == t2
        t3 = reborn.bump("shard-0", "cold-start").token
        assert t1 < t2 < t3

    def test_interleaved_incarnations_never_regress(self, store):
        rng = random.Random(0xF3)
        issued: dict[str, list[int]] = {"shard-0": [], "shard-1": []}
        authority = LeaseAuthority(store=store)
        for _ in range(60):
            action = rng.random()
            if action < 0.25:
                # kill9 + cold start: fresh authority on the same store.
                authority = LeaseAuthority(store=store)
            shard_id = rng.choice(("shard-0", "shard-1"))
            if action < 0.5:
                # register is idempotent and must never lose ground
                assert authority.register(shard_id) >= max(
                    issued[shard_id], default=0
                )
            else:
                reason = rng.choice(("failover", "manual", "cold-start"))
                issued[shard_id].append(authority.bump(shard_id, reason).token)
        for shard_id, tokens in issued.items():
            assert tokens == sorted(tokens), shard_id
            assert len(set(tokens)) == len(tokens), shard_id  # strict

    def test_unflushed_memory_of_dead_authority_is_irrelevant(self, store):
        # A dead incarnation's in-memory map can never exceed the store,
        # because bump writes the store *first* — so the successor's view
        # is always >= anything the corpse ever handed out.
        incumbent = LeaseAuthority(store=store)
        dead_lease = incumbent.bump("shard-0", "manual")
        successor = LeaseAuthority(store=store)
        successor.register("shard-0")
        assert successor.bump("shard-0", "failover").token > dead_lease.token


class TestMetricsFamilies:
    def test_families_exist_before_any_promotion(self):
        registry = MetricsRegistry()
        authority = LeaseAuthority(store=MemoryStateStore(), metrics=registry)
        authority.register("shard-0")
        text = registry.to_prometheus()
        assert "fencing_tokens_current" in text
        assert "fenced_requests_total" in text
        assert 'promotions_total{reason="failover"}' in text

    def test_bump_and_rejection_move_the_counters(self):
        registry = MetricsRegistry()
        authority = LeaseAuthority(store=MemoryStateStore(), metrics=registry)
        authority.bump("shard-0", "manual")
        authority.note_rejection("shard-0")
        lines = registry.to_prometheus().splitlines()
        assert 'fencing_tokens_current{shard="shard-0"} 1' in lines
        assert 'fenced_requests_total{shard="shard-0"} 1' in lines
        assert 'promotions_total{reason="manual"} 1' in lines


class TestShardRatchet:
    def make_shard(self, small_scenario, keypair):
        return SdcShard(
            "shard-0",
            CellTable.of(small_scenario.environment),
            keypair.public_key,
            blocks=(),
        )

    def test_zero_token_always_passes(self, small_scenario, keypair):
        shard = self.make_shard(small_scenario, keypair)
        shard.observe_fence(5)
        shard.observe_fence(0)  # unfenced caller: exempt by design
        assert shard.fence_token == 5

    def test_equal_token_passes_lower_rejected(self, small_scenario, keypair):
        shard = self.make_shard(small_scenario, keypair)
        shard.observe_fence(3)
        shard.observe_fence(3)  # same lease holder
        with pytest.raises(FencedError, match="stale token 2"):
            shard.observe_fence(2)
        assert shard.fence_token == 3

    def test_stale_commit_leaves_epoch_untouched(self, small_scenario, keypair):
        shard = self.make_shard(small_scenario, keypair)
        shard.commit_epoch(0, fence_token=2)
        with pytest.raises(FencedError):
            shard.commit_epoch(1, fence_token=1)
        assert shard.last_committed_epoch == 0


class TestNeverRetryable:
    def test_fenced_error_is_never_retryable(self):
        assert FencedError in NEVER_RETRYABLE
        policy = RetryPolicy(max_attempts=5, retryable=(Exception,))
        assert policy.retries(ValueError("x")) is True
        assert policy.retries(FencedError("deposed")) is False

    def test_run_with_policy_fails_fast_on_fence(self):
        attempts = []

        def deposed_writer():
            attempts.append(1)
            raise FencedError("lease is dead")

        policy = RetryPolicy(max_attempts=5, retryable=(Exception,))
        with pytest.raises(FencedError):
            run_with_policy(deposed_writer, policy, sleep=lambda _s: None)
        assert len(attempts) == 1  # no second hammer blow

    def test_other_errors_still_retry_to_exhaustion(self):
        attempts = []

        def flaky():
            attempts.append(1)
            raise ValueError("transient")

        policy = RetryPolicy(max_attempts=3, retryable=(ValueError,))
        with pytest.raises(RetryExhaustedError):
            run_with_policy(flaky, policy, sleep=lambda _s: None)
        assert len(attempts) == 3
