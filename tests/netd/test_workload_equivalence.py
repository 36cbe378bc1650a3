"""Cross-plane byte-identity for the workload engine (PR 10 acceptance).

``--scenario cbrs-tiered --workload diurnal`` must produce the same
protocol transcript on the in-memory plane and on the socket plane
(real worker processes, TCP frames), and across repeated runs.  Tier
admission lives broker-side only, so the workers never see it — which
is exactly why the transcripts can stay paired.
"""

import pytest

from repro.net.recording import TranscriptTransport
from repro.netd.plane import build_socket_service
from repro.resilience.chaos import FROZEN_CLOCK
from repro.service.broker import REASON_TIER_BUDGET, ServiceConfig
from repro.service.loadtest import LoadtestConfig, run_loadtest
from repro.watch.scenario import ScenarioConfig, build_scenario

CONFIG = LoadtestConfig(
    seed=11,
    num_requests=4,
    arrivals_per_second=300.0,
    num_sus=4,
    num_pu_switches=1,
    key_bits=256,
    shards=2,
    scenario="cbrs-tiered",
    workload="diurnal",
    tier_capacity=1,
    service=ServiceConfig(batch_window_s=0.0, max_batch=1),
)
SCENARIO_CONFIG = ScenarioConfig(seed=11, num_sus=4)


@pytest.fixture(scope="module")
def paired_runs():
    clock = lambda: FROZEN_CLOCK  # noqa: E731

    memory_transport = TranscriptTransport()
    memory_report = run_loadtest(
        CONFIG,
        transport=memory_transport,
        clock=clock,
        scenario=build_scenario(SCENARIO_CONFIG),
    )

    with build_socket_service(
        CONFIG,
        scenario_config=SCENARIO_CONFIG,
        clock=clock,
        record_transcript=True,
    ) as fixture:
        socket_report = fixture.run()
        socket_fingerprints = tuple(fixture.coordinator.transport.fingerprints)
    return (
        memory_report,
        tuple(memory_transport.fingerprints),
        socket_report,
        socket_fingerprints,
    )


class TestWorkloadCrossPlane:
    def test_transcripts_are_byte_identical(self, paired_runs):
        _, memory_fps, _, socket_fps = paired_runs
        assert len(memory_fps) > 0
        assert socket_fps == memory_fps

    def test_decisions_match(self, paired_runs):
        memory_report, _, socket_report, _ = paired_runs
        assert len(socket_report.decisions) == CONFIG.num_requests
        assert [
            (d.su_id, d.status, d.reason) for d in socket_report.decisions
        ] == [(d.su_id, d.status, d.reason) for d in memory_report.decisions]

    def test_tier_pressure_reached_both_planes(self, paired_runs):
        """capacity=1 with 4 SUs must exercise the tier machinery."""
        memory_report, _, socket_report, _ = paired_runs
        for report in (memory_report, socket_report):
            reasons = [d.reason for d in report.decisions]
            assert REASON_TIER_BUDGET in reasons

    def test_memory_run_repeats_byte_identically(self, paired_runs):
        _, memory_fps, _, _ = paired_runs
        transport = TranscriptTransport()
        run_loadtest(
            CONFIG,
            transport=transport,
            clock=lambda: FROZEN_CLOCK,
            scenario=build_scenario(SCENARIO_CONFIG),
        )
        assert tuple(transport.fingerprints) == memory_fps
