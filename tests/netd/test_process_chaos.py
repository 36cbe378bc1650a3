"""SIGKILL a real shard subprocess mid-phase-1; recovery must be invisible.

The supervisor restarts the worker, the worker re-pulls its state from
the bootstrap provider, the router re-sends the identical sub-query —
and the transcript stays byte-identical to an in-memory control run
with every license valid.  Cross-plane determinism and crash recovery,
proven in one schedule.
"""

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import LinkDownError
from repro.netd.plane import build_socket_coordinator
from repro.netd.wire import decode_control, encode_control
from repro.resilience.chaos import ChaosHarness
from repro.telemetry import MetricsRegistry
from repro.watch.scenario import ScenarioConfig
from repro.watch.sdc import PlaintextSDC

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


class TestRestartedStpWorker:
    def test_an_empty_stock_changes_no_decision(self):
        """A SIGKILLed STP worker comes back without the nonces it had
        drawn ahead: from there on the bytes differ from an uninterrupted
        run's (those draws are spent), the decisions and licenses do not."""
        coordinator, scenario = build_socket_coordinator(
            1,
            256,
            DeterministicRandomSource(seed=4),
            ScenarioConfig(seed=4, num_sus=3),
        )
        try:
            oracle = PlaintextSDC(scenario.environment)
            for pu in scenario.pus:
                coordinator.enroll_pu(pu)
                oracle.pu_update(pu)
            for su in scenario.sus:
                coordinator.enroll_su(su)
            expected = [oracle.process_request(su).granted for su in scenario.sus]
            assert len(set(expected)) == 2  # grants and denies

            def stp_ping() -> dict:
                transact = coordinator.netd.transport.transact
                try:
                    frame = transact("stp", "ping", encode_control({}))
                except LinkDownError:
                    # The pooled connection died with the old process;
                    # the next dial resolves the new one.
                    frame = transact("stp", "ping", encode_control({}))
                return decode_control(frame.payload)[0]

            before = [coordinator.run_request_round(su.su_id) for su in scenario.sus]
            assert stp_ping()["stocked_sus"] == len(scenario.sus)

            supervisor = coordinator.netd.supervisor
            supervisor.kill("stp")
            supervisor.wait_exit("stp")
            supervisor.ensure_running("stp")
            assert stp_ping()["stocked_sus"] == 0

            after = [
                coordinator.run_request_round(su.su_id, reuse_cached_request=True)
                for su in scenario.sus
            ]
            # ``granted`` is "the decrypted value verifies as the
            # license's signature": a valid license exactly where the
            # oracle grants.
            assert [r.granted for r in before] == expected
            assert [r.granted for r in after] == expected
            assert stp_ping()["obfuscators_stocked"] == 0  # all drawn afresh
        finally:
            coordinator.close()
