"""Tests for the probing attack and the breach comparison."""

import pytest

from repro.baselines.probing import ProbingAttack, sdc_breach_view
from repro.crypto.rand import DeterministicRandomSource
from repro.pisa.protocol import PisaCoordinator
from repro.watch.sdc import PlaintextSDC
from repro.watch.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def attack_scenario():
    return build_scenario(ScenarioConfig(
        seed=5, grid_rows=6, grid_cols=6, num_channels=3,
        num_towers=2, num_pus=3, num_sus=0,
    ))


@pytest.fixture(scope="module")
def oracle(attack_scenario):
    sdc = PlaintextSDC(attack_scenario.environment)
    for pu in attack_scenario.pus:
        sdc.pu_update(pu)

    def decide(su, channel):
        return sdc.process_request(su, channels=[channel]).granted

    return decide


class TestProbingSweep:
    def test_recovers_active_pus(self, attack_scenario, oracle):
        """The §II threat is real: decisions leak PU cells."""
        attack = ProbingAttack(attack_scenario.environment, oracle,
                               probe_power_dbm=10.0)
        report = attack.sweep(attack_scenario.pus)
        assert report.recall == 1.0  # every active PU cell flagged
        # Denial clusters include neighbours, so precision < 1 but the
        # inferred set must stay local (not the whole grid).
        env = attack_scenario.environment
        assert len(report.inferred_cells) < env.num_channels * env.num_blocks / 2

    def test_probe_budget(self, attack_scenario, oracle):
        attack = ProbingAttack(attack_scenario.environment, oracle)
        report = attack.sweep(attack_scenario.pus)
        env = attack_scenario.environment
        assert report.probes_used == env.num_channels * env.num_blocks

    def test_no_pus_nothing_inferred(self, attack_scenario):
        sdc = PlaintextSDC(attack_scenario.environment)

        def decide(su, channel):
            return sdc.process_request(su, channels=[channel]).granted

        attack = ProbingAttack(attack_scenario.environment, decide,
                               probe_power_dbm=10.0)
        report = attack.sweep([])
        assert report.inferred_cells == frozenset()
        assert report.recall == 1.0


class TestBreachComparison:
    def test_watch_breach_recovers_channel(self, attack_scenario):
        result = sdc_breach_view(
            attack_scenario.environment, attack_scenario.pus
        )
        assert result["watch"] == 1.0

    def test_pisa_breach_is_a_guess(self, attack_scenario):
        """Over many deployments the ciphertext 'attack' hits ≈1/C."""
        hits = 0
        trials = 8
        for seed in range(trials):
            coordinator = PisaCoordinator(
                attack_scenario.environment,
                key_bits=256,
                rng=DeterministicRandomSource(f"breach-{seed}"),
            )
            for pu in attack_scenario.pus:
                coordinator.enroll_pu(pu)
            result = sdc_breach_view(
                attack_scenario.environment, attack_scenario.pus,
                coordinator=coordinator,
            )
            hits += result["pisa"]
            assert result["pisa_baseline"] == pytest.approx(1 / 3)
        # 8 trials at p = 1/3: P[hits = 8] ≈ 1.5e-4; require non-perfect.
        assert hits < trials
