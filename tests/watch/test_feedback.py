"""Tests for multi-SU admission physics and the Δ_redn feedback loop."""

import numpy as np
import pytest

from repro.watch import feedback
from repro.watch.entities import SUTransmitter
from repro.watch.feedback import (
    AdmissionSimulator,
    FeedbackController,
    PuProtectionState,
)
from repro.watch.params import WatchParameters
from repro.watch.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def dense_scenario():
    return build_scenario(ScenarioConfig(
        seed=5, grid_rows=8, grid_cols=8, num_channels=6,
        num_towers=3, num_pus=6, num_sus=0,
    ))


def su_population(count: int, num_blocks: int, seed: int = 1) -> list[SUTransmitter]:
    rng = np.random.default_rng(seed)
    return [
        SUTransmitter(
            f"su-{i}",
            block_index=int(rng.integers(0, num_blocks)),
            tx_power_dbm=float(rng.uniform(0.0, 18.0)),
        )
        for i in range(count)
    ]


class TestProtectionState:
    def test_infinite_sinr_without_interference(self, dense_scenario):
        state = PuProtectionState(pu=dense_scenario.pus[0])
        assert state.sinr_db == float("inf")

    def test_sinr_drops_with_interference(self, dense_scenario):
        pu = dense_scenario.pus[0]
        state = PuProtectionState(pu=pu)
        state.aggregate_interference_mw = pu.signal_strength_mw / 10.0
        assert state.sinr_db == pytest.approx(10.0)


class TestAdmissionSimulator:
    def test_granted_sus_accumulate_interference(self, dense_scenario):
        simulator = AdmissionSimulator(dense_scenario.environment, dense_scenario.pus)
        sus = su_population(20, dense_scenario.grid.num_blocks)
        simulator.run(sus)
        assert 0 < simulator.num_admitted <= 20
        assert simulator.worst_sinr_db() < float("inf")

    def test_denied_sus_leave_physics_untouched(self, dense_scenario):
        simulator = AdmissionSimulator(dense_scenario.environment, dense_scenario.pus)
        # An absurdly loud SU right on a PU is denied and must not count.
        loud = SUTransmitter("boom", block_index=dense_scenario.pus[0].block_index,
                             tx_power_dbm=36.0)
        outcome = simulator.attempt(loud)
        assert not outcome.decision.granted
        assert simulator.worst_sinr_db() == float("inf")

    def test_budget_stationary_under_admissions(self, dense_scenario):
        """§IV-A: granting SUs never mutates N (Δ_redn absorbs it)."""
        simulator = AdmissionSimulator(dense_scenario.environment, dense_scenario.pus)
        simulator.run(su_population(10, dense_scenario.grid.num_blocks))
        assert simulator.budget_is_stationary()

    def test_aggregate_violation_emerges(self, dense_scenario):
        """Each SU passes per-SU admission, yet the aggregate can break
        the SINR floor — the phenomenon Δ_redn must absorb."""
        params = dense_scenario.environment.params
        simulator = AdmissionSimulator(dense_scenario.environment, dense_scenario.pus)
        simulator.run(su_population(40, dense_scenario.grid.num_blocks))
        if simulator.num_admitted >= 10:
            assert simulator.worst_sinr_db() < params.tv_sinr_db + 10


class TestFeedbackController:
    @pytest.fixture(scope="class")
    def report(self, dense_scenario):
        controller = FeedbackController(
            dense_scenario.environment.grid,
            dense_scenario.towers,
            dense_scenario.pus,
            WatchParameters(num_channels=6, redn_db=1.0),
        )
        return controller.converge(
            su_population(40, dense_scenario.grid.num_blocks)
        )

    def test_converges_to_protection(self, report):
        """The paper's claim: the loop ends with all PUs protected."""
        assert report.protected
        assert report.worst_sinr_db >= 15.0

    def test_margin_monotonically_widens(self, report):
        margins = [step[0] for step in report.trajectory]
        assert margins == sorted(margins)

    def test_admissions_shrink_as_margin_widens(self, report):
        admitted = [step[1] for step in report.trajectory]
        assert admitted[-1] <= admitted[0]

    def test_final_round_admits_someone(self, report):
        """Protection must not be achieved by shutting everyone out."""
        assert report.num_admitted > 0

    def test_gives_up_after_max_iterations(self, dense_scenario, monkeypatch):
        # far too timid to converge in 2 rounds
        monkeypatch.setattr(feedback, "FEEDBACK_STEP_DB", 0.1)
        monkeypatch.setattr(feedback, "FEEDBACK_MAX_ITERATIONS", 2)
        controller = FeedbackController(
            dense_scenario.environment.grid,
            dense_scenario.towers,
            dense_scenario.pus,
            WatchParameters(num_channels=6, redn_db=1.0),
        )
        report = controller.converge(
            su_population(40, dense_scenario.grid.num_blocks)
        )
        assert not report.protected
        assert report.iterations == 2
