"""The socket plane's hard invariant: byte-identity with the in-memory plane.

Same seeds, same scenario, same frozen clock — one run over
:class:`InMemoryTransport` accounting, one over real worker processes
and TCP frames.  The protocol transcript (every PISA message
fingerprinted in send order) and the span-tree signature must match
exactly.  This is the acceptance test for the determinism layering:
single broker-side draw stream, remote nonce round-trips, canonical
byte codecs.
"""

import asyncio
import dataclasses

import pytest

from repro.net.recording import TranscriptTransport
from repro.netd.plane import build_socket_service, health_check, run_socket_loadtest
from repro.resilience.chaos import FROZEN_CLOCK
from repro.service.loadtest import LoadtestConfig, _run_fixture, run_loadtest
from repro.service.broker import ServiceConfig
from repro.telemetry import Tracer
from repro.watch.scenario import ScenarioConfig, build_scenario

CONFIG = LoadtestConfig(
    seed=7,
    num_requests=2,
    arrivals_per_second=500.0,
    num_sus=1,
    num_pu_switches=0,
    key_bits=256,
    shards=2,
    service=ServiceConfig(batch_window_s=0.0, max_batch=1),
)
SCENARIO_CONFIG = ScenarioConfig(seed=7, num_sus=1)


@pytest.fixture(scope="module")
def paired_runs():
    clock = lambda: FROZEN_CLOCK  # noqa: E731

    memory_tracer = Tracer()
    memory_transport = TranscriptTransport()
    memory_report = run_loadtest(
        CONFIG,
        tracer=memory_tracer,
        transport=memory_transport,
        clock=clock,
        scenario=build_scenario(SCENARIO_CONFIG),
    )

    socket_tracer = Tracer()
    socket_report, socket_fingerprints = run_socket_loadtest(
        CONFIG,
        scenario_config=SCENARIO_CONFIG,
        tracer=socket_tracer,
        clock=clock,
        record_transcript=True,
    )
    return (
        memory_report,
        tuple(memory_transport.fingerprints),
        memory_tracer,
        socket_report,
        socket_fingerprints,
        socket_tracer,
    )


class TestCrossPlaneEquivalence:
    def test_transcripts_are_byte_identical(self, paired_runs):
        _, memory_fps, _, _, socket_fps, _ = paired_runs
        assert len(memory_fps) > 0
        assert socket_fps == memory_fps

    def test_span_signatures_match(self, paired_runs):
        _, _, memory_tracer, _, _, socket_tracer = paired_runs
        memory_sig = tuple(span.signature() for span in memory_tracer.roots)
        socket_sig = tuple(span.signature() for span in socket_tracer.roots)
        assert len(memory_sig) > 0
        assert socket_sig == memory_sig

    def test_decisions_match(self, paired_runs):
        memory_report, _, _, socket_report, _, _ = paired_runs
        assert len(socket_report.decisions) == CONFIG.num_requests
        assert [
            (d.su_id, d.status, d.batch_size) for d in socket_report.decisions
        ] == [(d.su_id, d.status, d.batch_size) for d in memory_report.decisions]

    def test_socket_plane_recorded_transport_metrics(self, paired_runs):
        _, _, _, socket_report, _, _ = paired_runs
        counters = socket_report.metrics["counters"]
        families = {key.split("{", 1)[0] for key in counters}
        # The in-memory accounting funnel still runs (transport_*) and
        # the real wire adds its own families (netd_*).
        assert "transport_records_total" in families
        assert "transport_bytes_total" in families
        assert "netd_frames_total" in families
        assert "netd_bytes_total" in families
        assert "netd_dials_total" in families


# -- repeated SUs: the STP worker serves from its idle-time stock ----------------

#: A workload schedule drives the closed loop (one request at a time, so
#: draw order is submission order); "steady" at this seed asks for SUs
#: 1, 1, 1, 0, 1.
REPEAT_CONFIG = dataclasses.replace(
    CONFIG, num_requests=5, num_sus=2, workload="steady"
)
REPEAT_SCENARIO = ScenarioConfig(seed=7, num_sus=2)


@pytest.fixture(scope="module")
def repeated_su_runs():
    """Two SUs asking five times between them, closed loop.  On the
    socket side the STP worker precomputes ``r**n`` between requests; in
    memory nothing does.  The worker's ``ping`` is read before teardown."""
    clock = lambda: FROZEN_CLOCK  # noqa: E731
    memory_transport = TranscriptTransport()
    run_loadtest(
        REPEAT_CONFIG,
        transport=memory_transport,
        clock=clock,
        scenario=build_scenario(REPEAT_SCENARIO),
    )
    fixture = build_socket_service(
        REPEAT_CONFIG,
        scenario_config=REPEAT_SCENARIO,
        clock=clock,
        record_transcript=True,
    )
    try:
        asyncio.run(_run_fixture(fixture, REPEAT_CONFIG))
        socket_fingerprints = tuple(fixture.coordinator.transport.fingerprints)
        stp_ping = health_check(fixture)["stp"]
    finally:
        fixture.close()
    return tuple(memory_transport.fingerprints), socket_fingerprints, stp_ping


class TestRepeatedSusWithIdleFill:
    def test_transcripts_are_byte_identical(self, repeated_su_runs):
        memory_fps, socket_fps, _ = repeated_su_runs
        assert len(memory_fps) > 0
        assert socket_fps == memory_fps

    def test_ping_shows_the_stock_being_hit(self, repeated_su_runs):
        _, _, ping = repeated_su_runs
        assert ping["reachable"]
        # A repeated SU's request found r**n waiting (the fill starts
        # the moment a reply is written; the next sign_req is a whole
        # client refresh and phase 1 away).
        assert ping["obfuscators_stocked"] > 0
        # Counts only: both SUs hold one request's worth for next time,
        # and five requests' cells were served one way or the other.
        assert ping["stocked_sus"] == 2
        cells = ping["stocked_nonces"] // 2
        assert ping["obfuscators_stocked"] + ping["obfuscators_inline"] == 5 * cells
        assert set(ping) >= {"stocked_obfuscators", "name", "role"}
