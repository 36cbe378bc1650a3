"""Loadtest config validation and report arithmetic (no crypto here —
the CLI test runs the full pipeline once)."""

import pytest

from repro.errors import ConfigurationError
from repro.service.broker import ServiceDecision
from repro.service.loadtest import LoadtestConfig, LoadtestReport


def _decision(status: str, reason: str | None = None) -> ServiceDecision:
    return ServiceDecision(
        su_id="su-1", status=status, reason=reason,
        latency_s=0.1, batch_size=1,
    )


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = LoadtestConfig()
        assert config.num_requests >= 1
        assert config.workload == "steady"

    def test_zero_requests_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadtestConfig(num_requests=0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadtestConfig(arrivals_per_second=0.0)

    def test_zero_sus_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadtestConfig(num_sus=0)


class TestReport:
    def _report(self) -> LoadtestReport:
        decisions = (
            _decision("granted"),
            _decision("granted"),
            _decision("denied"),
            _decision("rejected", reason="queue_full"),
        )
        return LoadtestReport(
            decisions=decisions,
            wall_seconds=2.0,
            metrics={"counters": {}, "gauges": {}, "histograms": {}},
        )

    def test_counts(self):
        report = self._report()
        assert report.completed == 3
        assert report.granted == 2
        assert report.rejected == 1

    def test_throughput_counts_only_completed(self):
        assert self._report().throughput_rps == pytest.approx(1.5)

    def test_missing_histograms_default_to_zero(self):
        report = self._report()
        assert report.latency_stats()["count"] == 0
        assert report.arrival_lag_stats()["count"] == 0
        assert report.batch_stats()["count"] == 0

    def test_table_and_json_shapes(self):
        report = self._report()
        rows = dict(report.as_table_rows())
        assert rows["requests submitted"] == "4"
        payload = report.to_json_dict()
        assert payload["completed"] == 3
        assert payload["throughput_rps"] == pytest.approx(1.5)

    def test_arrival_lag_is_reported(self):
        lag = {"count": 4, "sum": 1.0, "mean": 0.25, "min": 0.0, "max": 0.625,
               "p50": 0.125, "p95": 0.625, "p99": 0.625}
        report = LoadtestReport(
            decisions=(),
            wall_seconds=1.0,
            metrics={"counters": {}, "gauges": {},
                     "histograms": {"arrival_lag_s": lag}},
        )
        assert dict(report.as_table_rows())["arrival lag p50 / max"] == (
            "0.125 / 0.625 s"
        )
        assert report.to_json_dict()["arrival_lag_s"] == lag

    def test_stp_obfuscator_counts_are_reported(self):
        assert dict(self._report().as_table_rows())[
            "stp obfuscators ready / inline"
        ] == "0 / 0"
        report = LoadtestReport(
            decisions=(),
            wall_seconds=1.0,
            metrics={"counters": {"stp_obfuscators_stocked_total": 240,
                                  "stp_obfuscators_inline_total": 120},
                     "gauges": {}, "histograms": {}},
        )
        assert dict(report.as_table_rows())["stp obfuscators ready / inline"] == (
            "240 / 120"
        )
        assert report.to_json_dict()["stp_obfuscators"] == {
            "ready": 240, "inline": 120,
        }


class TestClusterConfigValidation:
    def test_negative_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadtestConfig(shards=-1)


class TestClusterLoadtest:
    def test_two_shard_run_with_mid_run_kill_completes(self):
        """The §VI-style smoke: a 2-shard service that has lost a primary
        fails over on the first scatter and still decides every request
        — whatever shape the arrivals have."""
        from repro.service.loadtest import build_cluster_service

        for workload in ("steady", "flash-crowd"):
            config = LoadtestConfig(
                seed=3,
                num_requests=4,
                num_sus=2,
                num_pu_switches=1,
                key_bits=256,
                shards=2,
                workload=workload,
            )
            with build_cluster_service(config) as fixture:
                fixture.coordinator.kill_shard("shard-0")
                report = fixture.run()
            assert report.completed == 4
            assert report.rejected == 0
            counters = report.metrics["counters"]
            assert counters["cluster_failovers_total{shard=shard-0}"] == 1
            # Every request was timed against its scheduled instant.
            lag = report.arrival_lag_stats()
            assert lag["count"] == 4
            assert 0.0 <= lag["p50"] <= lag["max"]

    def test_the_executor_runs_the_shards_phase_1(self):
        """``run_loadtest(executor=…)`` feeds the shards' kernels, not only
        the STP: every phase-1 exponentiation (eqs. (10)-(14), one per
        cell plus one per PU-occupied cell, mod the group key's n²) is
        counted by the executor handed in."""
        from unittest import mock

        from repro.crypto.parallel import SerialExecutor
        from repro.pisa.kernel import BlockKernel
        from repro.service.loadtest import run_loadtest

        class Recording(SerialExecutor):
            def __init__(self):
                super().__init__()
                self.moduli = []

            def pow_many(self, jobs):
                self.moduli += [modulus for _, _, modulus in jobs]
                return super().pow_many(jobs)

        phase1 = []  # (n², jobs) per shard sub-query
        blind = BlockKernel.blind

        def counted_blind(kernel, cells, blindings):
            jobs = sum(1 + (w_ct is not None) for row in cells for _, w_ct, _ in row)
            phase1.append((kernel.group_public_key.n_sq, jobs))
            return blind(kernel, cells, blindings)

        config = LoadtestConfig(
            seed=3, num_requests=2, num_sus=2, num_pu_switches=0,
            key_bits=256, shards=2,
        )
        executor = Recording()
        with mock.patch.object(BlockKernel, "blind", counted_blind):
            report = run_loadtest(config, executor=executor)
        assert report.completed == 2
        assert len(phase1) >= 2  # both shards hold some of each region
        (n_sq,) = {n_sq for n_sq, _ in phase1}
        assert executor.moduli.count(n_sq) == sum(jobs for _, jobs in phase1) > 0
