"""Runtime protocol sanitizer: end-to-end and injected-fault coverage."""

import pytest

from repro.audit.runtime import SanitizingTransport, iter_ciphertexts
from repro.crypto.paillier import EncryptedNumber
from repro.errors import SanitizerViolation
from repro.net.transport import InMemoryTransport, resolve_transport
from repro.pisa.messages import PUUpdateMessage, SignExtractionRequest, SURequestMessage
from repro.service import loadtest
from repro.service.batching import BatchSignExtractionRequest


@pytest.fixture()
def sanitizer():
    return SanitizingTransport(InMemoryTransport())


def _pu_update(pk, rng, values=(1, 0, 1)):
    return PUUpdateMessage(
        pu_id="pu-0",
        block_index=0,
        ciphertexts=tuple(pk.encrypt(v, rng=rng) for v in values),
    )


class TestEndToEndProtocol:
    def test_full_pisa_round_passes_sanitized(self, scenario, protocol_transport):
        """A complete allocation round survives every in-flight check."""
        from repro.crypto.rand import DeterministicRandomSource
        from repro.pisa.protocol import PisaCoordinator

        coordinator = PisaCoordinator(
            scenario.environment,
            key_bits=256,
            rng=DeterministicRandomSource("sanitized-round"),
            transport=protocol_transport,
        )
        if isinstance(protocol_transport, SanitizingTransport):
            protocol_transport.bind_group_key(coordinator.stp.group_public_key)
        for pu in scenario.pus:
            coordinator.enroll_pu(pu)
        su = scenario.sus[0]
        coordinator.enroll_su(su)

        report = coordinator.run_request_round(su.su_id)
        assert report.granted in (True, False)

        # The refresh fast path re-randomizes the cached request; the
        # freshness tracker must accept the new ciphertexts.
        refresh = coordinator.run_request_round(su.su_id, reuse_cached_request=True)
        assert refresh.granted == report.granted

        if isinstance(protocol_transport, SanitizingTransport):
            assert protocol_transport.messages_checked >= 8
            assert protocol_transport.ciphertexts_checked > 0
        # Accounting still flows through to the inner transport.
        assert protocol_transport.total_bytes() > 0
        assert protocol_transport.count("SURequestMessage") == 2


class TestWellFormedness:
    def test_out_of_range_ciphertext_rejected(self, sanitizer, keypair, fresh_rng):
        pk = keypair.public_key
        message = _pu_update(pk, fresh_rng)
        # Bypass the constructor's reduction to forge an oversized value.
        message.ciphertexts[0].ciphertext = pk.n_sq + 7
        with pytest.raises(SanitizerViolation, match="out of range"):
            sanitizer.send(message, "pu-0", "sdc")

    def test_zero_ciphertext_rejected(self, sanitizer, keypair, fresh_rng):
        pk = keypair.public_key
        message = _pu_update(pk, fresh_rng)
        message.ciphertexts[1].ciphertext = 0
        with pytest.raises(SanitizerViolation, match="out of range"):
            sanitizer.send(message, "pu-0", "sdc")

    def test_non_coprime_ciphertext_rejected(self, sanitizer, keypair, fresh_rng):
        pk = keypair.public_key
        message = _pu_update(pk, fresh_rng)
        # gcd(n, n²) = n: a ciphertext divisible by a prime factor of n
        # can never be a unit mod n².
        message.ciphertexts[2].ciphertext = pk.n
        with pytest.raises(SanitizerViolation, match="shares a factor"):
            sanitizer.send(message, "pu-0", "sdc")

    def test_unknown_key_type_fails_closed(self, sanitizer, keypair, fresh_rng):
        # A ciphertext whose key is no Paillier key — a forged object with
        # a modulus ``n`` and nothing else — has no modulus the sanitizer
        # knows, so it refuses rather than skipping the check.
        class ForeignKey:
            n = keypair.public_key.n

        ciphertext = keypair.public_key.encrypt(1, rng=fresh_rng)
        ciphertext.public_key = ForeignKey()
        message = PUUpdateMessage(pu_id="pu-0", block_index=0, ciphertexts=(ciphertext,))
        with pytest.raises(SanitizerViolation, match="exposes no modulus"):
            sanitizer.send(message, "pu-0", "sdc")

    def test_valid_message_passes_and_counts(self, sanitizer, keypair, fresh_rng):
        message = _pu_update(keypair.public_key, fresh_rng)
        sanitizer.send(message, "pu-0", "sdc")
        assert sanitizer.messages_checked == 1
        assert sanitizer.ciphertexts_checked == 3


class TestStpEnvelope:
    def test_non_envelope_kind_blocked(self, sanitizer, keypair, fresh_rng):
        message = _pu_update(keypair.public_key, fresh_rng)
        with pytest.raises(SanitizerViolation, match="sign-extraction envelopes"):
            sanitizer.send(message, "sdc", "stp")

    def test_personal_key_material_blocked(self, keypair, second_keypair, fresh_rng):
        group_pk = keypair.public_key
        su_pk = second_keypair.public_key
        sanitizer = SanitizingTransport(InMemoryTransport(), group_key=group_pk)
        request = SignExtractionRequest(
            round_id="r-1",
            su_id="su-0",
            matrix=((su_pk.encrypt(5, rng=fresh_rng),),),
        )
        with pytest.raises(SanitizerViolation, match="group key"):
            sanitizer.send(request, "sdc", "stp")

    def test_blinded_group_key_envelope_passes(self, keypair, fresh_rng):
        group_pk = keypair.public_key
        sanitizer = SanitizingTransport(InMemoryTransport())
        sanitizer.bind_group_key(group_pk)
        request = SignExtractionRequest(
            round_id="r-1",
            su_id="su-0",
            matrix=((group_pk.encrypt(-3, rng=fresh_rng),),),
        )
        sanitizer.send(request, "sdc", "stp")
        assert sanitizer.messages_checked == 1


class TestBatchEnvelope:
    """The broker frames an epoch's sign extractions in one envelope;
    the sanitizer lets the frame through and still checks its members."""

    @pytest.mark.parametrize("shards", [0, 2], ids=["packed", "2-shard"])
    def test_sanitized_service_run_decides_every_request(self, shards):
        config = loadtest.LoadtestConfig(
            num_requests=2, num_sus=2, num_pu_switches=0, key_bits=256, shards=shards
        )
        sanitizer = SanitizingTransport(InMemoryTransport())
        build = loadtest.build_cluster_service if shards else loadtest.build_packed_service
        with build(config, transport=sanitizer) as fixture:
            sanitizer.bind_group_key(fixture.coordinator.stp.group_public_key)
            report = fixture.run()
        assert [d.reason for d in report.decisions] == [None, None]
        assert report.completed == 2
        assert fixture.coordinator.transport.count("BatchSignExtractionRequest") >= 1

    def _envelope(self, *keys, rng):
        return BatchSignExtractionRequest(
            epoch_id=0,
            requests=tuple(
                SignExtractionRequest(
                    round_id=f"r-{i}", su_id=f"su-{i}", matrix=((pk.encrypt(i, rng=rng),),)
                )
                for i, pk in enumerate(keys)
            ),
        )

    def test_member_under_an_su_key_blocked(self, keypair, second_keypair, fresh_rng):
        group_pk, su_pk = keypair.public_key, second_keypair.public_key
        sanitizer = SanitizingTransport(InMemoryTransport(), group_key=group_pk)
        envelope = self._envelope(group_pk, su_pk, rng=fresh_rng)
        assert len(list(iter_ciphertexts(envelope))) == 2
        with pytest.raises(SanitizerViolation, match="group key"):
            sanitizer.send(envelope, "sdc", "stp")
        sanitizer.send(self._envelope(group_pk, group_pk, rng=fresh_rng), "sdc", "stp")
        assert sanitizer.ciphertexts_checked == 2

    def test_non_envelope_member_blocked(self, sanitizer, keypair, fresh_rng):
        envelope = BatchSignExtractionRequest(
            epoch_id=0, requests=(_pu_update(keypair.public_key, fresh_rng),)
        )
        with pytest.raises(SanitizerViolation, match="sign-extraction envelopes"):
            sanitizer.send(envelope, "sdc", "stp")


class TestFreshness:
    def _request(self, pk, rng):
        return SURequestMessage(
            su_id="su-0",
            region_blocks=(0, 1),
            matrix=((pk.encrypt(1, rng=rng), pk.encrypt(0, rng=rng)),),
        )

    def test_replayed_request_rejected(self, sanitizer, keypair, fresh_rng):
        message = self._request(keypair.public_key, fresh_rng)
        sanitizer.send(message, "su-0", "sdc")
        with pytest.raises(SanitizerViolation, match="re-randomization"):
            sanitizer.send(message, "su-0", "sdc")

    def test_new_epoch_resets_tracking(self, sanitizer, keypair, fresh_rng):
        message = self._request(keypair.public_key, fresh_rng)
        sanitizer.send(message, "su-0", "sdc")
        sanitizer.new_epoch()
        sanitizer.send(message, "su-0", "sdc")
        assert sanitizer.messages_checked == 2

    def test_rerandomized_request_accepted(self, sanitizer, keypair, fresh_rng):
        pk = keypair.public_key
        sanitizer.send(self._request(pk, fresh_rng), "su-0", "sdc")
        sanitizer.send(self._request(pk, fresh_rng), "su-0", "sdc")
        assert sanitizer.messages_checked == 2

    def test_non_request_kinds_exempt(self, sanitizer, keypair, fresh_rng):
        message = _pu_update(keypair.public_key, fresh_rng)
        sanitizer.send(message, "pu-0", "sdc")
        sanitizer.send(message, "pu-0", "sdc")
        assert sanitizer.messages_checked == 2


class TestCiphertextDiscovery:
    def test_walks_nested_dataclasses_and_tuples(self, keypair, fresh_rng):
        pk = keypair.public_key
        message = _pu_update(pk, fresh_rng)
        assert len(list(iter_ciphertexts(message))) == 3

    def test_walks_matrices(self, keypair, fresh_rng):
        pk = keypair.public_key
        request = SignExtractionRequest(
            round_id="r",
            su_id="s",
            matrix=tuple(
                tuple(pk.encrypt(c, rng=fresh_rng) for c in range(3))
                for _ in range(2)
            ),
        )
        assert len(list(iter_ciphertexts(request))) == 6

    def test_plain_values_yield_nothing(self):
        assert list(iter_ciphertexts({"a": [1, "x", (2.5,)]})) == []


class TestDelegation:
    def test_accounting_passthrough(self, sanitizer, keypair, fresh_rng):
        message = _pu_update(keypair.public_key, fresh_rng)
        sanitizer.send(message, "pu-0", "sdc")
        assert sanitizer.total_bytes("PUUpdateMessage") == message.wire_size()
        assert sanitizer.count() == 1
        assert "PUUpdateMessage" in sanitizer.by_kind()

    def test_unknown_attribute_still_raises(self, sanitizer):
        with pytest.raises(AttributeError):
            sanitizer.no_such_attribute

    def test_link_admin_delegates_to_inner(self):
        inner = InMemoryTransport()
        sanitizer = SanitizingTransport(inner)
        sanitizer.fail_link("a", "b")  # __getattr__ delegation
        assert not inner.link_is_up("a", "b")
        assert resolve_transport(sanitizer) is inner


def test_injected_violation_caught_mid_protocol(scenario):
    """EncryptedNumber forged after SDC processing is caught at the send."""
    from repro.crypto.rand import DeterministicRandomSource
    from repro.pisa.protocol import PisaCoordinator

    transport = SanitizingTransport(InMemoryTransport())
    coordinator = PisaCoordinator(
        scenario.environment,
        key_bits=256,
        rng=DeterministicRandomSource("inject"),
        transport=transport,
    )
    transport.bind_group_key(coordinator.stp.group_public_key)
    for pu in scenario.pus:
        coordinator.enroll_pu(pu)
    su = scenario.sus[0]
    client = coordinator.enroll_su(su)

    request = client.prepare_request()
    request.matrix[0][0].ciphertext = coordinator.stp.group_public_key.n_sq + 1
    with pytest.raises(SanitizerViolation, match="out of range"):
        transport.send(request, su.su_id, "sdc")

