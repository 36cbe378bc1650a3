"""SIGKILL a real shard subprocess mid-phase-1; recovery must be invisible.

The supervisor restarts the worker, the worker re-pulls its state from
the bootstrap provider, the router re-sends the identical sub-query —
and the transcript stays byte-identical to an in-memory control run
with every license valid.  Cross-plane determinism and crash recovery,
proven in one schedule.
"""

import pytest

from repro.resilience.chaos import ChaosHarness
from repro.telemetry import MetricsRegistry

PROC_PLAN_NAME = "proc-kill-shard"


@pytest.fixture(scope="module")
def result():
    return ChaosHarness(metrics=MetricsRegistry()).run([PROC_PLAN_NAME])


class TestProcessKillRecovery:
    def test_fault_actually_fired(self, result):
        assert any("SIGKILL shard-0" in note for note in result.notes), result.notes

    def test_shard_was_restarted(self, result):
        assert any("restarts(shard-0)=1" in note for note in result.notes), result.notes

    def test_failover_path_was_exercised(self, result):
        assert result.failovers >= 1

    def test_transcript_byte_identical_to_in_memory_control(self, result):
        assert result.transcript_equal, result.notes
        assert result.exact_segments == result.rounds + 1  # enrolment + rounds

    def test_every_license_issued_and_valid(self, result):
        assert result.licenses_valid, result.notes

    def test_verdict_renders_like_the_simulated_plans(self, result):
        assert result.ok
        assert result.plans == (PROC_PLAN_NAME,)
        d = result.to_dict()
        assert d["transcript_equal"] is True
        assert d["replayed_draws"] == -1  # no journal replay on this plane


class TestFaultGuard:
    def test_run_whose_fault_never_fires_is_not_transcript_equal(self, monkeypatch):
        from repro.netd.remote import RemoteShardSet

        monkeypatch.setattr(
            RemoteShardSet, "set_subquery_hook", lambda self, hook: None
        )
        result = ChaosHarness().run([PROC_PLAN_NAME])
        # Every byte matches the control — but nothing was killed, so the
        # run proved nothing about recovery and must not read as a pass.
        assert result.licenses_valid
        assert not result.transcript_equal
        assert any("fault never fired" in note for note in result.notes)
