"""Integration tests for the deployment simulator."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.costmodel import ServiceCostModel
from repro.sim.simulator import DeploymentSimulator
from repro.sim.traffic import PHYSICAL_SWITCH_FRACTION, VIRTUAL_SWITCHES_PER_HOUR
from tests.sim.test_costmodel import PAPER_PROFILE


@pytest.fixture(scope="module")
def model():
    return ServiceCostModel(PAPER_PROFILE, num_channels=100, num_blocks=600)


@pytest.fixture(scope="module")
def packed_model():
    return ServiceCostModel(
        PAPER_PROFILE, num_channels=100, num_blocks=600, packing_factor=12
    )


class TestBasicRun:
    def test_produces_requests(self, scenario, model):
        sim = DeploymentSimulator(
            scenario, model, 2, seed=0
        )
        report = sim.run(4 * 3600)
        assert report.num_requests > 0
        assert 0.0 <= report.grant_ratio <= 1.0
        assert report.mean_latency_s > 0

    def test_deterministic_per_seed(self, scenario, model):
        def run(seed):
            sim = DeploymentSimulator(
                scenario, model, 2, seed=seed
            )
            return sim.run(2 * 3600)

        a, b = run(7), run(7)
        assert a.num_requests == b.num_requests
        assert a.mean_latency_s == b.mean_latency_s
        assert run(8).num_requests != a.num_requests or (
            run(8).mean_latency_s != a.mean_latency_s
        )

    def test_duration_validation(self, scenario, model):
        sim = DeploymentSimulator(scenario, model, 1)
        with pytest.raises(ConfigurationError):
            sim.run(0)

    def test_no_sus_rejected(self, model):
        from repro.watch.scenario import ScenarioConfig, build_scenario

        empty = build_scenario(ScenarioConfig(seed=0, num_sus=0))
        with pytest.raises(ConfigurationError):
            DeploymentSimulator(empty, model, 1)


class TestQueueingBehaviour:
    def test_overload_inflates_latency(self, scenario, model):
        """Arrivals beyond the bottleneck's saturation rate must queue."""

        def mean_latency(rate):
            sim = DeploymentSimulator(
                scenario, model, rate, seed=3
            )
            return sim.run(6 * 3600).mean_latency_s

        assert mean_latency(8.0) > 2 * mean_latency(0.25)

    def test_stp_is_the_bottleneck_at_paper_scale(self, scenario, model):
        """A finding the paper does not report: the STP's 60 000
        decrypt+encrypt pairs exceed the SDC's homomorphic work."""
        assert model.costs.stp_convert_s > 2 * model.costs.sdc_per_request_s
        sim = DeploymentSimulator(
            scenario, model, 4, seed=1
        )
        report = sim.run(4 * 3600)
        assert report.stp_utilization >= report.sdc_utilization

    def test_packing_raises_capacity(self, scenario, model, packed_model):
        def p95(m):
            sim = DeploymentSimulator(
                scenario, m, 4, seed=5
            )
            return sim.run(4 * 3600).latency_percentile_s(95)

        assert p95(packed_model) < p95(model) / 3


class TestPuChurn:
    def test_virtual_switches_suppressed(self, scenario, model):
        sim = DeploymentSimulator(scenario, model, 1, seed=2)
        report = sim.run(8 * 3600)
        total = report.pu_updates + report.virtual_switches_suppressed
        assert total > 0
        # Roughly the paper's 20% reach the SDC.
        assert report.pu_updates < total * 0.5

    def test_switch_rate_and_physical_share(self, model):
        """§VI-A's rate per PU-hour, a fifth of the switches physical."""
        from repro.watch.scenario import ScenarioConfig, build_scenario

        many_pus = build_scenario(ScenarioConfig(seed=0, num_pus=20))
        report = DeploymentSimulator(many_pus, model, 1, seed=3).run(8 * 3600)
        total = report.pu_updates + report.virtual_switches_suppressed
        assert total == pytest.approx(VIRTUAL_SWITCHES_PER_HOUR * 20 * 8, rel=0.12)
        assert report.pu_updates / total == pytest.approx(
            PHYSICAL_SWITCH_FRACTION, abs=0.06
        )

    def test_report_rows_render(self, scenario, model):
        sim = DeploymentSimulator(scenario, model, 1, seed=0)
        rows = sim.run(3600).as_table_rows()
        assert len(rows) == 9


class TestTraffic:
    def test_default_is_the_steady_workload(self, scenario, model):
        """One arrival path: no ``traffic`` is the named steady workload."""
        default = DeploymentSimulator(scenario, model, 2.5, seed=9).run(6 * 3600)
        steady = DeploymentSimulator(
            scenario, model, 2.5, seed=9, traffic="steady"
        ).run(6 * 3600)
        assert default.requests
        assert default.requests == steady.requests

    def test_rate_validation(self, scenario, model):
        with pytest.raises(ConfigurationError):
            DeploymentSimulator(scenario, model, 0)
