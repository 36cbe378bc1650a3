"""Socket-plane partition drills: wire-typed fencing and gray slowness.

``proc-split-brain`` deposes a live, serving worker and proves the
stale lease dies *over the wire* — the worker raises, the error frame
carries the type, and the broker rethrows a real FencedError.
``proc-gray-slow`` is the gray-failure regression on real sockets: a
worker that answers everything 400 ms late is suspected and routed
around, never spuriously restarted or promoted.
"""

import pytest

from repro.errors import ChaosPlanError
from repro.resilience.chaos import SOCKET_PLAN_NAMES, ChaosHarness
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def split_brain():
    registry = MetricsRegistry()
    return ChaosHarness(metrics=registry).run(["proc-split-brain"]), registry


@pytest.fixture(scope="module")
def gray_slow():
    registry = MetricsRegistry()
    return ChaosHarness(metrics=registry).run(["proc-gray-slow"]), registry


class TestProcSplitBrain:
    def test_stale_commit_rejected_with_typed_error(self, split_brain):
        result, _ = split_brain
        assert result.fenced_rejections == 1
        assert any(
            "rejected over the wire" in note for note in result.notes
        ), result.notes
        assert not any("SPLIT BRAIN" in note for note in result.notes)

    def test_transcript_and_licenses_survive_the_promotion(self, split_brain):
        result, _ = split_brain
        assert result.ok, result.notes
        assert result.transcript_equal
        assert result.licenses_valid

    def test_fencing_metric_families_scraped(self, split_brain):
        _, registry = split_brain
        text = registry.to_prometheus()
        assert 'fencing_tokens_current{shard="shard-0"} 2' in text
        assert 'fenced_requests_total{shard="shard-0"} 1' in text
        assert 'promotions_total{reason="failover"} 1' in text
        assert 'promotions_total{reason="manual"} 1' in text


class TestProcGraySlow:
    def test_slow_worker_is_suspected_never_promoted(self, gray_slow):
        result, _ = gray_slow
        assert result.ok, result.notes
        assert result.suspects >= 1
        assert result.failovers == 0
        assert any("promoted none" in note for note in result.notes)

    def test_rtt_histogram_populated(self, gray_slow):
        _, registry = gray_slow
        assert "heartbeat_rtt_seconds" in registry.to_prometheus()


class TestValidation:
    def test_unknown_plan_rejected(self):
        with pytest.raises(ChaosPlanError, match="unknown fault plan"):
            ChaosHarness().run(["proc-meteor"])

    def test_plan_names_are_proc_prefixed(self):
        assert all(p.startswith("proc-") for p in SOCKET_PLAN_NAMES)
