"""Cross-variant conformance: one scenario, three protocols, one truth.

A downstream user should be able to swap protocol variants without
changing outcomes.  This suite runs the baseline (STP), the two-server
(threshold), and the packed variant against the same scenario and the
plaintext oracle, through the same client-facing surfaces: request
rounds, cached refreshes, power negotiation, and license sessions.
"""

import copy
from dataclasses import replace

import pytest

from repro.cluster import ClusterCoordinator
from repro.crypto.paillier import EncryptedNumber
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ProtocolError
from repro.pisa.messages import PUUpdateMessage
from repro.pisa.negotiation import PowerNegotiator
from repro.pisa.packed import PackedCoordinator, PackedRequestMessage
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.session import SessionState, SuSession
from repro.pisa.two_server import TwoServerCoordinator
from repro.watch.sdc import PlaintextSDC
from repro.watch.scenario import ScenarioConfig, build_scenario

VARIANTS = {
    "baseline": (PisaCoordinator, 256),
    "two-server": (TwoServerCoordinator, 256),
    "packed": (PackedCoordinator, 512),  # packing needs slot room
}


@pytest.fixture(scope="module")
def cross_scenario():
    return build_scenario(ScenarioConfig(seed=4, num_sus=3))


@pytest.fixture(scope="module")
def cross_oracle(cross_scenario):
    sdc = PlaintextSDC(cross_scenario.environment)
    for pu in cross_scenario.pus:
        sdc.pu_update(pu)
    return sdc


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def deployment(request, cross_scenario):
    cls, key_bits = VARIANTS[request.param]
    coordinator = cls(
        cross_scenario.environment,
        key_bits=key_bits,
        rng=DeterministicRandomSource(f"cross-{request.param}"),
    )
    for pu in cross_scenario.pus:
        coordinator.enroll_pu(pu)
    for su in cross_scenario.sus:
        coordinator.enroll_su(su)
    return request.param, coordinator


class TestConformance:
    def test_decisions_match_oracle(self, deployment, cross_oracle, cross_scenario):
        name, coordinator = deployment
        for su in cross_scenario.sus:
            assert (
                coordinator.run_request_round(su.su_id).granted
                == cross_oracle.process_request(su).granted
            ), (name, su.su_id)

    def test_refresh_rounds_supported_everywhere(
        self, deployment, cross_scenario
    ):
        name, coordinator = deployment
        su = cross_scenario.sus[0]
        fresh = coordinator.run_request_round(su.su_id)
        cached = coordinator.run_request_round(su.su_id, reuse_cached_request=True)
        assert fresh.granted == cached.granted, name

    def test_negotiation_works_everywhere(self, deployment, cross_scenario):
        name, coordinator = deployment
        su = cross_scenario.sus[0]
        result = PowerNegotiator(coordinator, resolution_db=8.0).negotiate(
            su, floor_dbm=-20.0, cap_dbm=36.0
        )
        assert result.rounds_used >= 1, name

    def test_sessions_work_everywhere(self, deployment, cross_scenario, cross_oracle):
        name, coordinator = deployment
        granted_su = next(
            su for su in cross_scenario.sus
            if cross_oracle.process_request(su).granted
        )

        class Clock:
            now = 2_000_000.0

            def __call__(self):
                return self.now

        clock = Clock()
        # Point the license issuer at the same clock so validity windows
        # line up.
        coordinator.sdc._clock = clock
        session = SuSession(
            coordinator, granted_su.su_id, clock=clock,
            renew_margin_s=60,
        )
        status = session.ensure_license()
        assert status.state is SessionState.LICENSED, name
        clock.now += status.license.valid_seconds + 1
        renewed = session.ensure_license()
        assert renewed.renewals == 2, name


def _two_shard_cluster(environment, key_bits, rng):
    return ClusterCoordinator(environment, num_shards=2, key_bits=key_bits, rng=rng)


class TestMalformedInputRejected:
    """Every SDC front rejects the same malformed inputs the same way:
    a typed ``ProtocolError`` and no state change — the copies of the
    validation code used to disagree on exactly these."""

    FRONTS = dict(VARIANTS, cluster=(_two_shard_cluster, 256))

    @pytest.fixture(scope="class", params=sorted(FRONTS))
    def enrolled(self, request, cross_scenario):
        build, key_bits = self.FRONTS[request.param]
        coordinator = build(
            cross_scenario.environment,
            key_bits=key_bits,
            rng=DeterministicRandomSource(f"malformed-{request.param}"),
        )
        pu_clients = [coordinator.enroll_pu(pu) for pu in cross_scenario.pus]
        for su in cross_scenario.sus:
            coordinator.enroll_su(su)
        yield coordinator, pu_clients
        close = getattr(coordinator, "close", None)
        if close is not None:
            close()

    #: Ciphertexts outside ``Z*_{n²}``: 0, and one sharing a factor with ``n``.
    NON_UNITS = {"zero": lambda n: 0, "multiple-of-n": lambda n: 7 * n}

    @staticmethod
    def _stream(coordinator):
        """A copy of the front's draw stream, readable without consuming it."""
        return copy.copy(coordinator.sdc._rng)

    def _assert_no_draws(self, coordinator, before):
        assert self._stream(coordinator).randbits(64) == before.randbits(64)

    def _assert_state_untouched(self, coordinator, cross_scenario, cross_oracle):
        assert coordinator.sdc.pending_rounds == 0
        su = cross_scenario.sus[0]
        assert (
            coordinator.run_request_round(su.su_id).granted
            == cross_oracle.process_request(su).granted
        )

    def test_pu_update_under_foreign_key(
        self, enrolled, cross_scenario, cross_oracle, fresh_rng
    ):
        coordinator, pu_clients = enrolled
        good = pu_clients[0].build_update()
        foreign = coordinator.su_client(cross_scenario.sus[0].su_id).public_key
        bad = PUUpdateMessage(
            good.pu_id,
            good.block_index,
            tuple(foreign.encrypt(0, rng=fresh_rng) for _ in good.ciphertexts),
        )
        with pytest.raises(ProtocolError):
            coordinator.sdc.handle_pu_update(bad)
        self._assert_state_untouched(coordinator, cross_scenario, cross_oracle)

    @pytest.mark.parametrize("offset", [0, 1000])
    def test_pu_update_outside_the_area(
        self, enrolled, cross_scenario, cross_oracle, offset
    ):
        coordinator, pu_clients = enrolled
        good = pu_clients[0].build_update()
        bad = replace(
            good, block_index=cross_scenario.environment.num_blocks + offset
        )
        with pytest.raises(ProtocolError):
            coordinator.sdc.handle_pu_update(bad)
        self._assert_state_untouched(coordinator, cross_scenario, cross_oracle)

    @pytest.mark.parametrize("block", [-1, 10**6])
    def test_request_discloses_block_outside_the_area(
        self, enrolled, cross_scenario, cross_oracle, block
    ):
        coordinator, _ = enrolled
        su = cross_scenario.sus[0]
        good = coordinator.su_client(su.su_id).prepare_request()
        bad = replace(good, region_blocks=(block,) + good.region_blocks[1:])
        with pytest.raises(ProtocolError):
            coordinator.sdc.start_request(bad)
        self._assert_state_untouched(coordinator, cross_scenario, cross_oracle)

    @pytest.mark.parametrize("non_unit", sorted(NON_UNITS))
    def test_request_cell_not_a_unit(
        self, enrolled, cross_scenario, cross_oracle, non_unit
    ):
        """Refused before the first draw: unchecked, such a cell surfaced
        only after every cell's (α, β, ε) was drawn, or not at all."""
        coordinator, _ = enrolled
        pk = coordinator.sdc.group_public_key
        good = coordinator.su_client(cross_scenario.sus[0].su_id).prepare_request()
        field = "rows" if isinstance(good, PackedRequestMessage) else "matrix"
        rows = [list(row) for row in getattr(good, field)]
        rows[-1][-1] = EncryptedNumber(pk, self.NON_UNITS[non_unit](pk.n))
        bad = replace(good, **{field: tuple(tuple(row) for row in rows)})
        before = self._stream(coordinator)
        with pytest.raises(ProtocolError):
            coordinator.sdc.start_request(bad)
        self._assert_no_draws(coordinator, before)
        self._assert_state_untouched(coordinator, cross_scenario, cross_oracle)

    @pytest.mark.parametrize("non_unit", sorted(NON_UNITS))
    def test_pu_update_not_a_unit(
        self, enrolled, cross_scenario, cross_oracle, non_unit
    ):
        coordinator, pu_clients = enrolled
        pk = coordinator.sdc.group_public_key
        good = pu_clients[0].build_update()
        bad = replace(
            good,
            ciphertexts=good.ciphertexts[:-1]
            + (EncryptedNumber(pk, self.NON_UNITS[non_unit](pk.n)),),
        )
        before = self._stream(coordinator)
        with pytest.raises(ProtocolError):
            coordinator.sdc.handle_pu_update(bad)
        self._assert_no_draws(coordinator, before)
        self._assert_state_untouched(coordinator, cross_scenario, cross_oracle)


class TestVariantDistinctions:
    def test_packed_is_smaller_on_the_wire(self, cross_scenario):
        reports = {}
        for name in ("baseline", "packed"):
            cls, key_bits = VARIANTS[name]
            coordinator = cls(
                cross_scenario.environment, key_bits=512,
                rng=DeterministicRandomSource(f"size-{name}"),
            )
            su = cross_scenario.sus[0]
            coordinator.enroll_su(su)
            reports[name] = coordinator.run_request_round(su.su_id)
        assert (
            reports["packed"].request_bytes
            < reports["baseline"].request_bytes / 2
        )

    def test_two_server_extraction_carries_partials(self, cross_scenario):
        cls, key_bits = VARIANTS["two-server"]
        coordinator = cls(
            cross_scenario.environment, key_bits=key_bits,
            rng=DeterministicRandomSource("partials"),
        )
        su = cross_scenario.sus[0]
        coordinator.enroll_su(su)
        report = coordinator.run_request_round(su.su_id)
        assert report.sign_extraction_bytes > 1.7 * report.request_bytes
