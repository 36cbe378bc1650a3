"""Absolute transcript pins: fixed-seed sessions hashed to constants.

Every other byte-identity test in the suite is *relative* — it compares
two deployments built at the same commit, so a change made to both
sides at once passes them all.  These pins are the absolute reference:
each variant runs one fixed-seed session (three Figure 5 rounds with a
PU channel switch after the first) and the sha-256 over every protocol
message it emitted — requests, blinded ``Ṽ``, STP conversions, license
responses, the switch's PU update — must equal a constant recorded
before the SDC implementations were unified.

A pin only ever changes together with a deliberate, documented change
of the wire transcript.  Five so far, each re-recorded in a commit that
shifted the draws and nothing else:

* the STP draws each SU's *next* request's re-encryption nonces while
  serving the current one (docs/protocol.md §4), which moved every later
  draw — ``BASIC_DIGEST`` and ``JOURNAL_DIGEST``; the packed and
  two-server variants drew inline then and kept theirs;
* β became a plaintext blind (docs/security.md, "β is a plaintext
  blind"): the SDC front no longer draws an obfuscator nonce per cell —
  ``BASIC_DIGEST``, ``JOURNAL_DIGEST``, ``REPEAT_DIGEST`` and
  ``TWO_SERVER_DIGEST`` (its front is an ``SdcServer``); the packed SDC
  has its own blinding and kept ``PACKED_DIGEST``, and ``DECISIONS`` did
  not move;
* the packed STP and the two-server backend became the baseline's
  converter with another way to open a ciphertext, so they too draw one
  request ahead — ``PACKED_DIGEST`` and ``TWO_SERVER_DIGEST``; the
  baseline's stream did not change, and ``DECISIONS`` held because a
  re-encryption nonce decides nothing: it only re-randomises ``X̃``;
* the blinding bound is taken against the smaller prime, not ``n``
  (docs/security.md, "The STP opens with one CRT half"), which clamps α
  to 59 bits at the 256-bit keys pinned here — ``BASIC_DIGEST``,
  ``REPEAT_DIGEST``, ``JOURNAL_DIGEST`` and ``TWO_SERVER_DIGEST``; the
  512-bit ``PACKED_DIGEST`` and ``DECISIONS`` did not move;
* every Paillier nonce is a 256-bit exponent ``s`` of a fixed per-key
  base, the obfuscator ``h_n^s mod n²`` in place of ``r**n``
  (docs/security.md, "Short fixed-base randomness"): each nonce is one
  256-bit draw instead of an ``n``-bit one, so every pin moved —
  ``BASIC_DIGEST``, ``TWO_SERVER_DIGEST``, ``PACKED_DIGEST``,
  ``JOURNAL_DIGEST`` and ``REPEAT_DIGEST``; ``DECISIONS`` did not.
"""

import hashlib
import io

import pytest

from repro.cluster import ClusterCoordinator
from repro.crypto.rand import DeterministicRandomSource
from repro.pisa.packed import PackedCoordinator
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.two_server import TwoServerCoordinator
from repro.resilience.journal import EpochJournal, JournalWriter
from repro.store import MemoryStateStore
from repro.watch.scenario import ScenarioConfig, build_scenario

FROZEN_CLOCK = 1_700_000_000.0
SEED = "golden"

#: The single SDC and every cluster shape draw the same stream, so one
#: constant pins all four deployments.
BASIC_DIGEST = "befbc22d640539d106cc95fef9a37cc7accc563519fbae88ad3442fea4a46170"
TWO_SERVER_DIGEST = "8b7e773129010cd8b6a9954053859e2557123f58a8b1022e52fecb5aaf38e740"
PACKED_DIGEST = "647f0c7fd0932ef4bb8138a23a35be4e9be774d4da0bdd11c9f6412842482746"
JOURNAL_DIGEST = "142baf3a9d16522adabb415e4195bcf785f6b595bde1cf3090f2073dabd3cf23"
#: Seed-4 scenario, SUs 0..2: a deny followed by two grants.
DECISIONS = (False, True, True)
#: The same session with every SU asking twice: the second pass is served
#: from the nonces the STP drew during the first.  Re-pinned whenever
#: BASIC_DIGEST is.
REPEAT_DIGEST = "957dd95bba1c7a4de697a64591499c2ec4f2879c6d9a765f841e44d84a398e28"


def frozen_clock() -> float:
    return FROZEN_CLOCK


def run_session(coordinator, scenario, passes=1) -> tuple[str, tuple[bool, ...]]:
    """Enrol, run the fixed session, hash every message in order.

    ``passes=2`` sends every SU round a second time (re-randomised
    requests), so the STP serves those from nonces it drew a pass
    earlier.
    """
    sdc, stp = coordinator.sdc, coordinator.stp
    pu_clients = [coordinator.enroll_pu(pu) for pu in scenario.pus]
    for su in scenario.sus:
        coordinator.enroll_su(su)

    digest = hashlib.sha256()
    decisions = []

    def absorb(message) -> None:
        raw = message.to_bytes()
        digest.update(len(raw).to_bytes(8, "big") + raw)

    for i, su in enumerate(scenario.sus * passes):
        client = coordinator.su_client(su.su_id)
        if i < len(scenario.sus):
            request = client.prepare_request()
        else:
            request = client.refresh_request()
        sign_request = sdc.start_request(request)
        sign_response = stp.handle_sign_extraction(sign_request)
        response = sdc.finish_request(sign_response)
        for message in (request, sign_request, sign_response, response):
            absorb(message)
        decisions.append(client.process_response(response, stp.directory).granted)
        if i == 0:
            update = pu_clients[0].switch_channel(1, signal_strength_mw=2.0)
            absorb(update)
            sdc.handle_pu_update(update)
    return digest.hexdigest(), tuple(decisions)


@pytest.fixture(scope="module")
def golden_scenario():
    return build_scenario(ScenarioConfig(seed=4, num_sus=3))


def build_cluster(scenario, num_shards, **kwargs):
    return ClusterCoordinator(
        scenario.environment,
        num_shards=num_shards,
        key_bits=256,
        rng=DeterministicRandomSource(SEED),
        clock=frozen_clock,
        **kwargs,
    )


class TestGoldenTranscripts:
    def test_basic(self, golden_scenario):
        coordinator = PisaCoordinator(
            golden_scenario.environment,
            key_bits=256,
            rng=DeterministicRandomSource(SEED),
        )
        coordinator.sdc._clock = frozen_clock
        assert run_session(coordinator, golden_scenario) == (
            BASIC_DIGEST,
            DECISIONS,
        )

    def test_repeated_sus(self, golden_scenario):
        coordinator = PisaCoordinator(
            golden_scenario.environment,
            key_bits=256,
            rng=DeterministicRandomSource(SEED),
        )
        coordinator.sdc._clock = frozen_clock
        assert run_session(coordinator, golden_scenario, passes=2) == (
            REPEAT_DIGEST,
            DECISIONS * 2,
        )

    def test_repeated_sus_cluster(self, golden_scenario):
        coordinator = build_cluster(golden_scenario, 2)
        try:
            assert run_session(coordinator, golden_scenario, passes=2) == (
                REPEAT_DIGEST,
                DECISIONS * 2,
            )
        finally:
            coordinator.close()

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_cluster(self, golden_scenario, num_shards):
        coordinator = build_cluster(golden_scenario, num_shards)
        try:
            assert run_session(coordinator, golden_scenario) == (
                BASIC_DIGEST,
                DECISIONS,
            )
        finally:
            coordinator.close()

    def test_journaled_store_backed_cluster(self, golden_scenario):
        """Journal + store change no protocol byte; the journal's own
        bytes (every draw, clock read and barrier marker, in order) are
        pinned too."""
        buffer = io.BytesIO()
        journal = EpochJournal(JournalWriter(fileobj=buffer))
        coordinator = build_cluster(
            golden_scenario, 2, journal=journal, store=MemoryStateStore()
        )
        try:
            assert run_session(coordinator, golden_scenario) == (
                BASIC_DIGEST,
                DECISIONS,
            )
            journal.barrier()
            assert hashlib.sha256(buffer.getvalue()).hexdigest() == JOURNAL_DIGEST
        finally:
            coordinator.close()

    def test_two_server(self, golden_scenario):
        coordinator = TwoServerCoordinator(
            golden_scenario.environment,
            key_bits=256,
            rng=DeterministicRandomSource(SEED),
        )
        coordinator.front._clock = frozen_clock
        assert run_session(coordinator, golden_scenario) == (
            TWO_SERVER_DIGEST,
            DECISIONS,
        )

    def test_packed(self, golden_scenario):
        coordinator = PackedCoordinator(
            golden_scenario.environment,
            key_bits=512,
            rng=DeterministicRandomSource(SEED),
            clock=frozen_clock,
        )
        assert run_session(coordinator, golden_scenario) == (
            PACKED_DIGEST,
            DECISIONS,
        )
