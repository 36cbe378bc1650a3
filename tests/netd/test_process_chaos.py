"""SIGKILL a real STP worker: its restart changes no decision.

A SIGKILLed shard worker is a fault plan like any other
(``kill-shard`` on ``ChaosHarness(plane="socket")``, in
``tests/resilience/test_chaos.py``); the STP's restart is not a plan,
because it spends draws and so cannot be byte-equal to the control.
"""

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import LinkDownError
from repro.netd.plane import SocketClusterCoordinator
from repro.netd.wire import decode_control, encode_control
from repro.watch.scenario import ScenarioConfig, build_scenario
from repro.watch.sdc import PlaintextSDC


class TestRestartedStpWorker:
    def test_an_empty_stock_changes_no_decision(self):
        """A SIGKILLed STP worker comes back without the nonces it had
        drawn ahead: from there on the bytes differ from an uninterrupted
        run's (those draws are spent), the decisions and licenses do not."""
        scenario = build_scenario(ScenarioConfig(seed=4, num_sus=3))
        coordinator = SocketClusterCoordinator(
            scenario.environment,
            num_shards=1,
            key_bits=256,
            rng=DeterministicRandomSource(seed=4),
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
