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
import shutil
import subprocess
from typing import NamedTuple

import pytest

from repro.net.recording import TranscriptTransport
from repro.netd.plane import build_socket_service, health_check
from repro.netd.transport import TlsSpec
from repro.resilience.chaos import FROZEN_CLOCK
from repro.service.batching import BatchAllocator
from repro.service.loadtest import LoadtestConfig, _run_fixture, run_loadtest
from repro.service.broker import ServiceConfig
from repro.telemetry import Tracer
from repro.watch.scenario import ScenarioConfig, build_scenario

#: The default driver in its byte-identity shape (``max_batch=1``, zero
#: window: one round at a time, so draw order is schedule order).  Two
#: SUs asking five times between them — the schedule at this seed asks
#: for SUs 1, 1, 1, 0, 1 — so the converter also serves from the stock
#: it fills between requests: the STP worker's own trigger over sockets,
#: the broker's idle work in memory.
CONFIG = LoadtestConfig(
    seed=7,
    num_requests=5,
    arrivals_per_second=500.0,
    num_sus=2,
    num_pu_switches=0,
    key_bits=256,
    shards=2,
    service=ServiceConfig(batch_window_s=0.0, max_batch=1),
)
SCENARIO_CONFIG = ScenarioConfig(seed=7, num_sus=2)


class Run(NamedTuple):
    report: object
    fingerprints: tuple
    tracer: Tracer
    #: The STP worker's ``ping``, read before teardown (socket runs).
    stp_ping: dict | None = None
    #: What a broker over this run's coordinator is handed as idle work.
    idle_work: object = None


def _clock():
    return FROZEN_CLOCK


def _memory_run() -> Run:
    tracer = Tracer()
    transport = TranscriptTransport()
    report = run_loadtest(
        CONFIG,
        tracer=tracer,
        transport=transport,
        clock=_clock,
        scenario=build_scenario(SCENARIO_CONFIG),
    )
    return Run(report, tuple(transport.fingerprints), tracer)


def _socket_run(tls=None) -> Run:
    tracer = Tracer()
    fixture = build_socket_service(
        CONFIG,
        scenario_config=SCENARIO_CONFIG,
        tracer=tracer,
        clock=_clock,
        record_transcript=True,
        tls=tls,
    )
    try:
        report = asyncio.run(_run_fixture(fixture, CONFIG))
        fingerprints = tuple(fixture.coordinator.transport.fingerprints)
        stp_ping = health_check(fixture)["stp"]
        idle_work = BatchAllocator.for_coordinator(fixture.coordinator).idle_work
    finally:
        fixture.close()
    return Run(report, fingerprints, tracer, stp_ping, idle_work)


@pytest.fixture(scope="module")
def paired_runs() -> tuple[Run, Run]:
    return _memory_run(), _socket_run()


class TestCrossPlaneEquivalence:
    def test_transcripts_are_byte_identical(self, paired_runs):
        memory, socket = paired_runs
        assert len(memory.fingerprints) > 0
        assert socket.fingerprints == memory.fingerprints

    def test_memory_run_repeats_byte_identically(self, paired_runs):
        assert _memory_run().fingerprints == paired_runs[0].fingerprints

    def test_span_signatures_match(self, paired_runs):
        memory, socket = paired_runs
        memory_sig = tuple(span.signature() for span in memory.tracer.roots)
        socket_sig = tuple(span.signature() for span in socket.tracer.roots)
        assert len(memory_sig) > 0
        assert socket_sig == memory_sig

    def test_decisions_match(self, paired_runs):
        memory_report, socket_report = (run.report for run in paired_runs)
        assert len(socket_report.decisions) == CONFIG.num_requests
        assert len({d.su_id for d in socket_report.decisions}) == 2
        assert [
            (d.su_id, d.status, d.batch_size) for d in socket_report.decisions
        ] == [(d.su_id, d.status, d.batch_size) for d in memory_report.decisions]

    def test_socket_plane_recorded_transport_metrics(self, paired_runs):
        counters = paired_runs[1].report.metrics["counters"]
        families = {key.split("{", 1)[0] for key in counters}
        # The in-memory accounting funnel still runs (transport_*) and
        # the real wire adds its own families (netd_*).
        assert "transport_records_total" in families
        assert "transport_bytes_total" in families
        assert "netd_frames_total" in families
        assert "netd_bytes_total" in families
        assert "netd_dials_total" in families

    def test_tls_run_yields_the_plaintext_fingerprints(
        self, paired_runs, tmp_path
    ):
        openssl = shutil.which("openssl")
        if openssl is None:
            pytest.skip("no openssl binary to make a certificate with")
        cert, key = str(tmp_path / "cert.pem"), str(tmp_path / "key.pem")
        subprocess.run(
            [openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes",
             "-subj", "/CN=pisa-test", "-days", "2", "-keyout", key, "-out", cert],
            check=True,
            capture_output=True,
        )
        # Self-signed, so the certificate is its own CA: both sides
        # require it of the other.
        over_tls = _socket_run(TlsSpec(cert, key, cafile=cert))
        assert over_tls.stp_ping["reachable"]
        assert over_tls.fingerprints == paired_runs[1].fingerprints


class TestRepeatedSusWithIdleFill:
    """The converter precomputes ``h_n^s`` between requests on both
    planes: over sockets the STP worker triggers it, in memory the
    broker does — never both."""

    def test_transcripts_are_byte_identical(self, paired_runs):
        memory, socket = paired_runs
        asked = [d.su_id for d in socket.report.decisions]
        assert len(asked) > len(set(asked))  # SUs did come back
        assert socket.fingerprints == memory.fingerprints

    def test_ping_shows_the_stock_being_hit(self, paired_runs):
        ping = paired_runs[1].stp_ping
        assert ping["reachable"]
        # A repeated SU's request found h_n^s waiting (the fill starts
        # the moment a reply is written; the next sign_req is a whole
        # client refresh and phase 1 away).
        assert ping["obfuscators_stocked"] > 0
        # Counts only: both SUs hold one request's worth for next time,
        # and five requests' cells were served one way or the other.
        assert ping["stocked_sus"] == 2
        cells = ping["stocked_nonces"] // 2
        assert ping["obfuscators_stocked"] + ping["obfuscators_inline"] == 5 * cells
        assert set(ping) >= {"stocked_obfuscators", "name", "role"}

    def test_both_planes_report_the_stock_being_hit(self, paired_runs):
        cells = paired_runs[1].stp_ping["stocked_nonces"] // 2
        counts = {
            plane: {
                kind: run.report.metrics["counters"][f"stp_obfuscators_{kind}_total"]
                for kind in ("stocked", "inline")
            }
            for plane, run in zip(("memory", "socket"), paired_runs)
        }
        for plane_counts in counts.values():
            assert plane_counts["stocked"] > 0, counts
            assert plane_counts["stocked"] + plane_counts["inline"] == 5 * cells, counts
        ping = paired_runs[1].stp_ping
        counters = paired_runs[1].report.metrics["counters"]
        assert counters["stp_obfuscators_stocked_total"] == ping["obfuscators_stocked"]

    def test_the_socket_broker_is_handed_no_fill(self, paired_runs):
        """The STP worker keeps its own trigger; nothing is filled twice."""
        assert paired_runs[1].idle_work is None
