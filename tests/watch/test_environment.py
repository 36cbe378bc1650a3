"""Unit tests for the shared spectrum environment."""

import pytest

from repro.geo.grid import BlockGrid
from repro.radio.pathloss import ExtendedHataModel, FreeSpaceModel, LogDistanceModel
from repro.watch.environment import SpectrumEnvironment
from repro.watch.params import WatchParameters


@pytest.fixture()
def env(scenario):
    return scenario.environment


class TestModels:
    def test_su_model_type_and_cache(self, env):
        model = env.su_pathloss(0)
        assert isinstance(model, LogDistanceModel)
        assert env.su_pathloss(0) is model

    def test_tv_model_type(self, env):
        assert isinstance(env.tv_pathloss(0), ExtendedHataModel)

    def test_hmax_is_free_space(self, env):
        assert isinstance(env.hmax_pathloss(0), FreeSpaceModel)

    def test_hmax_dominates_su_model(self, env):
        """h_max must be the most favourable propagation (eq. (1))."""
        su = env.su_pathloss(0)
        hmax = env.hmax_pathloss(0)
        for d in (100.0, 1e3, 1e4):
            assert hmax.gain_linear(d) >= su.gain_linear(d)


class TestExclusion:
    def test_cached(self, env):
        assert env.exclusion_distance(0) == env.exclusion_distance(0)

    def test_positive_and_large(self, env):
        # At UHF with FCC-scale SU power the exclusion zone spans many km.
        assert env.exclusion_distance(0) > 1e4


class TestEMatrix:
    def test_shape(self, env):
        assert env.e_matrix.shape == (env.num_channels, env.num_blocks)

    def test_lazy_and_cached(self, env):
        assert env.e_matrix is env.e_matrix

    def test_entries_positive_and_bounded(self, env):
        max_value = env.params.max_quantised_value
        for value in env.e_matrix.flat:
            assert 0 < value <= max_value

    def test_no_towers_cap_is_regulatory_max(self):
        grid = BlockGrid(rows=2, cols=2)
        params = WatchParameters(num_channels=2)
        env = SpectrumEnvironment(grid, params, transmitters=())
        from repro.radio.units import dbm_to_mw

        expected = params.encoder.encode(dbm_to_mw(params.max_su_eirp_dbm))
        assert all(v == expected for v in env.e_matrix.flat)

    def test_coverage_reduces_cap(self, env):
        """Blocks inside tower coverage have a lower cap than S_max."""
        from repro.radio.units import dbm_to_mw

        s_max = env.params.encoder.encode(dbm_to_mw(env.params.max_su_eirp_dbm))
        covered_slots = {t.channel_slot for t in env.transmitters}
        values = [env.e_matrix[c, b] for c in covered_slots for b in range(env.num_blocks)]
        assert any(v < s_max for v in values)


class TestHeightAwareModel:
    def test_default_ignores_height(self, scenario):
        from repro.radio.antenna import Antenna
        from repro.watch.entities import SUTransmitter

        env = scenario.environment
        short = SUTransmitter("a", 0, antenna=Antenna(height_m=1.5))
        tall = SUTransmitter("b", 0, antenna=Antenna(height_m=15.0))
        assert env.su_pathloss_for(short, 0) is env.su_pathloss_for(tall, 0)

    def test_height_aware_taller_carries_further(self):
        from repro.geo.grid import BlockGrid
        from repro.radio.antenna import Antenna
        from repro.watch.entities import SUTransmitter
        from repro.watch.params import WatchParameters

        env = SpectrumEnvironment(
            BlockGrid(rows=2, cols=2), WatchParameters(num_channels=2),
            height_aware_su_model=True,
        )
        short = SUTransmitter("a", 0, antenna=Antenna(height_m=1.5))
        tall = SUTransmitter("b", 0, antenna=Antenna(height_m=15.0))
        d = 2000.0
        assert (
            env.su_pathloss_for(tall, 0).gain_linear(d)
            > env.su_pathloss_for(short, 0).gain_linear(d)
        )

    def test_height_aware_decisions_differ(self):
        """The privacy-sensitive parameter visibly shapes admission."""
        from repro.geo.grid import BlockGrid
        from repro.radio.antenna import Antenna
        from repro.watch.entities import PUReceiver, SUTransmitter
        from repro.watch.params import WatchParameters
        from repro.watch.sdc import PlaintextSDC

        grid = BlockGrid(rows=1, cols=30, block_size_m=100.0)
        env = SpectrumEnvironment(
            grid, WatchParameters(num_channels=1), height_aware_su_model=True
        )
        sdc = PlaintextSDC(env)
        sdc.pu_update(PUReceiver("pu", block_index=0, channel_slot=0,
                                 signal_strength_mw=1e-5))
        results = {}
        for label, height in (("short", 1.0), ("tall", 18.0)):
            su = SUTransmitter(
                f"su-{label}", block_index=29, tx_power_dbm=34.0,
                antenna=Antenna(height_m=height),
            )
            results[label] = sdc.process_request(su).granted
        # At 34 dBm the 18 m mast reaches the distant PU over the
        # two-ray path and is denied, while the 1 m antenna is not —
        # the height is decision-relevant, hence privacy-sensitive.
        assert results == {"short": True, "tall": False}


class TestTerrainAwareCoverage:
    def test_terrain_selects_itm(self):
        from repro.geo.grid import BlockGrid
        from repro.radio.itm import IrregularTerrainModel
        from repro.radio.terrain import SyntheticTerrain
        from repro.watch.params import WatchParameters

        env = SpectrumEnvironment(
            BlockGrid(rows=2, cols=2), WatchParameters(num_channels=2),
            terrain=SyntheticTerrain(seed=3),
        )
        assert isinstance(env.tv_pathloss(0), IrregularTerrainModel)

    def test_rough_terrain_weakens_coverage(self, scenario):
        """Rougher terrain → more path loss → weaker PU signals."""
        from repro.radio.terrain import SyntheticTerrain
        from repro.watch.system import received_tv_signal_mw

        flat = SpectrumEnvironment(
            scenario.environment.grid, scenario.params,
            transmitters=scenario.towers,
            terrain=SyntheticTerrain(relief_m=1.0, seed=1),
        )
        rough = SpectrumEnvironment(
            scenario.environment.grid, scenario.params,
            transmitters=scenario.towers,
            terrain=SyntheticTerrain(relief_m=300.0, seed=1),
        )
        pu = scenario.pus[0]
        flat_signal = received_tv_signal_mw(flat, pu.block_index, pu.channel_slot)
        rough_signal = received_tv_signal_mw(rough, pu.block_index, pu.channel_slot)
        assert 0 < rough_signal < flat_signal

    def test_pisa_runs_on_terrain_environment(self):
        """End-to-end sanity: the protocol is propagation-model agnostic."""
        from repro.crypto.rand import DeterministicRandomSource
        from repro.pisa.protocol import PisaCoordinator
        from repro.radio.terrain import SyntheticTerrain
        from repro.watch.sdc import PlaintextSDC
        from repro.watch.scenario import ScenarioConfig, build_scenario
        from repro.watch.system import received_tv_signal_mw

        base = build_scenario(ScenarioConfig(seed=0, num_sus=1))
        env = SpectrumEnvironment(
            base.environment.grid, base.params,
            transmitters=base.towers,
            terrain=SyntheticTerrain(seed=5),
        )
        oracle = PlaintextSDC(env)
        coord = PisaCoordinator(
            env, key_bits=256, rng=DeterministicRandomSource("terrain-e2e")
        )
        for pu in base.pus:
            signal = received_tv_signal_mw(env, pu.block_index, pu.channel_slot)
            refreshed = pu.switched_to(pu.channel_slot, signal_strength_mw=signal)
            oracle.pu_update(refreshed)
            coord.enroll_pu(refreshed)
        su = base.sus[0]
        coord.enroll_su(su)
        assert (
            coord.run_request_round(su.su_id).granted
            == oracle.process_request(su).granted
        )
