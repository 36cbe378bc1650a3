"""Workload-driven loadtests: determinism, CBRS tiering, transcripts.

Full-crypto runs are kept tiny (a handful of requests at 256-bit keys
where the builders allow, 512-bit packed otherwise); the properties
under test are ordering and byte-equality, not throughput.
"""

import pytest

from repro.errors import ConfigurationError
from repro.net.recording import TranscriptTransport
from repro.resilience.chaos import FROZEN_CLOCK
from repro.service.broker import REASON_TIER_BUDGET, ServiceConfig
from repro.service.loadtest import LoadtestConfig, run_loadtest
from repro.telemetry.metrics import MetricsRegistry

#: Byte-identity configuration: one request per epoch, no batching
#: window, so epochs serialize in submission order on every plane.
TIERED_CONFIG = LoadtestConfig(
    seed=11,
    num_requests=6,
    arrivals_per_second=300.0,
    num_sus=6,
    num_pu_switches=1,
    key_bits=512,
    scenario="cbrs-tiered",
    workload="diurnal",
    tier_capacity=1,
    service=ServiceConfig(batch_window_s=0.0, max_batch=1),
)


class TestWorkloadConfigValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadtestConfig(scenario="mars-band")

    def test_unknown_workload_rejected(self):
        # "" selected a second, fixed-cadence driver once; it is no name now.
        for name in ("tsunami", ""):
            with pytest.raises(ConfigurationError, match="unknown workload"):
                LoadtestConfig(workload=name)

    def test_negative_tier_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadtestConfig(tier_capacity=-1)

    def test_named_shapes_accepted(self):
        config = LoadtestConfig(scenario="cbrs-tiered", workload="flash-crowd")
        assert config.scenario == "cbrs-tiered"
        assert config.workload == "flash-crowd"


@pytest.fixture(scope="module")
def tiered_runs():
    """Two identical tiered runs with recorded transcripts."""
    runs = []
    for _ in range(2):
        metrics = MetricsRegistry()
        transport = TranscriptTransport()
        report = run_loadtest(
            TIERED_CONFIG,
            metrics=metrics,
            transport=transport,
            clock=lambda: FROZEN_CLOCK,
        )
        runs.append((report, tuple(transport.fingerprints), metrics))
    return runs


class TestTieredWorkloadRun:
    def test_repeated_runs_byte_identical(self, tiered_runs):
        (_, fps_a, _), (_, fps_b, _) = tiered_runs
        assert len(fps_a) > 0
        assert fps_a == fps_b

    def test_decisions_identical(self, tiered_runs):
        (report_a, _, _), (report_b, _, _) = tiered_runs
        key = lambda r: [  # noqa: E731
            (d.su_id, d.status, d.reason) for d in r.decisions
        ]
        assert key(report_a) == key(report_b)

    def test_tier_budget_rejections_surface(self, tiered_runs):
        report, _, _ = tiered_runs[0]
        reasons = {d.reason for d in report.decisions if d.status == "rejected"}
        assert REASON_TIER_BUDGET in reasons

    def test_tier_metric_families_present(self, tiered_runs):
        _, _, metrics = tiered_runs[0]
        prom = metrics.to_prometheus()
        assert "# TYPE grants_total counter" in prom
        assert "# TYPE preemptions_total counter" in prom
        assert "# TYPE tier_rejections_total counter" in prom

    def test_incumbent_activity_counted(self, tiered_runs):
        """The schedule's one physical PU switch lands as incumbent
        activity in the per-tier grant family."""
        _, _, metrics = tiered_runs[0]
        counters = metrics.snapshot()["counters"]
        assert counters.get("grants_total{tier=incumbent}", 0) >= 1

    def test_all_requests_accounted(self, tiered_runs):
        report, _, _ = tiered_runs[0]
        assert len(report.decisions) == TIERED_CONFIG.num_requests


class TestUhfWorkloadRun:
    def test_plain_scenario_runs_workload_without_admission(self):
        config = LoadtestConfig(
            seed=5,
            num_requests=4,
            arrivals_per_second=300.0,
            num_sus=2,
            num_pu_switches=0,
            key_bits=512,
            workload="flash-crowd",
            service=ServiceConfig(batch_window_s=0.0, max_batch=1),
        )
        report = run_loadtest(config, clock=lambda: FROZEN_CLOCK)
        assert len(report.decisions) == 4
        assert all(d.reason != REASON_TIER_BUDGET for d in report.decisions)
