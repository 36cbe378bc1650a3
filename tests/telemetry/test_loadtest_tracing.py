"""Acceptance tests: tracing the 2-shard loadtest end to end.

The telemetry contract, asserted on one seeded ``serve-loadtest``-shaped
run (2 shards, scenario seed 5, every request granted):

(a) the traced run's protocol transcript is byte-identical to an
    untraced run with the same seeds — tracing draws span ids from its
    own RNG and never touches protocol randomness;
(b) every granted request's span tree covers admission → batch →
    phase-1 → per-shard scatter → STP → phase-2 → license, with the
    scatter under phase 1 only;
(c) one Prometheus exposition carries the broker, cluster, retry, and
    transport metric families.

Byte comparison (a) needs a fully serialised draw order, which the
driver's byte-identity shape gives: ``max_batch=1`` with a zero window
runs the schedule closed-loop, one round at a time, and the license
clock is frozen.
"""

import pytest

from repro.net.recording import TranscriptTransport
from repro.service.broker import ServiceConfig
from repro.service.loadtest import LoadtestConfig, run_loadtest
from repro.telemetry import MetricsRegistry, Tracer
from repro.watch.scenario import ScenarioConfig, build_scenario

NUM_REQUESTS = 4
SHARDS = 2

CONFIG = LoadtestConfig(
    seed=7,
    num_requests=NUM_REQUESTS,
    arrivals_per_second=500.0,
    num_sus=3,
    num_pu_switches=0,
    key_bits=256,
    shards=SHARDS,
    service=ServiceConfig(batch_window_s=0.0, max_batch=1),
)


def _run(traced: bool):
    scenario = build_scenario(ScenarioConfig(seed=5))
    transport = TranscriptTransport()
    tracer = Tracer() if traced else None
    metrics = MetricsRegistry()
    report = run_loadtest(
        CONFIG,
        metrics=metrics,
        scenario=scenario,
        tracer=tracer,
        transport=transport,
        clock=lambda: 1_700_000_000.0,
    )
    return report, tracer, metrics, transport


@pytest.fixture(scope="module")
def traced_run():
    return _run(traced=True)


class TestTranscriptNeutrality:
    def test_all_requests_granted(self, traced_run):
        report = traced_run[0]
        assert report.granted == NUM_REQUESTS

    def test_traced_transcript_is_byte_identical(self, traced_run):
        traced_transport = traced_run[3]
        _, _, _, untraced_transport = _run(traced=False)
        assert traced_transport.fingerprints, "no protocol messages captured"
        assert (
            traced_transport.fingerprints == untraced_transport.fingerprints
        )


class TestSpanCoverage:
    REQUIRED_PHASES = ("admission", "batch", "phase1", "stp", "phase2", "license")

    def test_one_root_span_per_request(self, traced_run):
        tracer = traced_run[1]
        assert len(tracer.roots) == NUM_REQUESTS
        assert all(root.name == "request" for root in tracer.roots)

    def test_every_granted_request_covers_all_phases(self, traced_run):
        report, tracer = traced_run[0], traced_run[1]
        granted_sus = [
            d.su_id for d in report.decisions if d.status == "granted"
        ]
        assert granted_sus
        for root in tracer.roots:
            assert root.attributes["status"] == "granted"
            phases = [span.name for span in root.children]
            for required in self.REQUIRED_PHASES:
                assert required in phases, (
                    f"request span missing {required!r}: {phases}"
                )

    def test_scatter_spans_nest_under_phase1_only(self, traced_run):
        tracer = traced_run[1]
        for root in tracer.roots:
            phases = {s.name: s for s in root.children}
            shards = sorted(
                s.attributes["shard"] for s in phases["phase1"].children
            )
            assert shards == [f"shard-{i}" for i in range(SHARDS)]
            # Phase 2 runs on the front: no shard is asked.
            assert not [s for s in phases["phase2"].children if s.name == "shard"]

    def test_spans_are_closed_with_durations(self, traced_run):
        tracer = traced_run[1]
        for root in tracer.roots:
            stack = [root]
            while stack:
                span = stack.pop()
                assert span.ended_at is not None, f"{span.name} never ended"
                assert span.duration_s >= 0.0
                stack.extend(span.children)

    def test_traced_runs_share_span_signatures(self, traced_run):
        # A second traced run (fresh tracer, same seeds) produces the
        # same structural span trees — ids and durations differ, shape
        # and statuses don't.
        _, tracer, _, _ = traced_run
        _, second, _, _ = _run(traced=True)
        assert [r.signature() for r in tracer.roots] == [
            r.signature() for r in second.roots
        ]


class TestExposition:
    REQUIRED_FAMILIES = (
        "requests_submitted",     # broker admission
        "requests_granted",       # broker outcomes
        "request_latency_s",      # broker latency histogram
        "cluster_subqueries_total",   # shard scatter plane
        "retry_attempts_total",   # policy engine
        "transport_records_total",    # per-link transfer accounting
        "transport_bytes_total",
    )

    def test_exposition_has_all_families(self, traced_run):
        text = traced_run[2].to_prometheus()
        for family in self.REQUIRED_FAMILIES:
            assert f"# TYPE {family} " in text, f"missing family {family}"

    def test_subquery_counters_match_scatter_volume(self, traced_run):
        snap = traced_run[2].snapshot()["counters"]
        for i in range(SHARDS):
            subqueries = snap[f"cluster_subqueries_total{{shard=shard-{i}}}"]
            # PU enrolment updates route through the same shard-call
            # plane as request scatter, so they count as sub-queries too.
            pu_routed = snap.get(
                f"cluster_pu_updates_routed_total{{shard=shard-{i}}}", 0
            )
            # Each request scatters phase 1, and only phase 1, to every
            # shard.
            assert subqueries == NUM_REQUESTS + pu_routed
