"""AuthorityServer dispatch: one draw stream, whoever is connected.

``_dispatch`` does blocking work (journal fsync on draws, key
serialization in bootstrap providers); every connection has a thread of
its own for it, and a dispatch lock keeps the draw stream single-file.
These tests pin the stream's equality with a local source and its
single order under racing clients, plus the audit-clean status of the
whole socket plane.

The ``rand_exponents`` frame — one request's worth of STP nonces in
one round trip — is covered here too: stream equivalence with a local
source, a hostile peer's malformed requests (of every control kind the
authority serves), and the per-request frame count on a live socket
plane.
"""

import pathlib
import threading

import pytest

from repro.crypto.rand import NONCE_EXPONENT_BITS, DeterministicRandomSource
from repro.errors import SerializationError, TransportError
from repro.netd.plane import build_socket_coordinator
from repro.netd.remote import AuthorityServer, RemoteRandomSource
from repro.netd.transport import PeerClient
from repro.netd.wire import (
    MAX_EXPONENTS_PER_FRAME,
    MAX_RAND_BITS,
    encode_control,
    encode_exponents_request,
)
from repro.telemetry import MetricsRegistry
from repro.watch.scenario import ScenarioConfig


class RecordingRng(DeterministicRandomSource):
    """Records every raw draw (as the thread it executed on)."""

    def __init__(self) -> None:
        super().__init__(seed=7)
        self.draw_threads: list[int] = []

    def randbits(self, bits: int) -> int:
        self.draw_threads.append(threading.get_ident())
        return super().randbits(bits)


def _client(address) -> PeerClient:
    return PeerClient("authority", lambda: address, metrics=MetricsRegistry())


def _dials(peer: PeerClient) -> int:
    return peer._metrics.counter("netd_dials_total", peer="authority").value


class TestOffLoopDispatch:
    """There is no loop to be off any more — a thread per connection
    dispatches directly; the class keeps its name so the test ids do."""

    def test_remote_draws_match_local_stream(self):
        """A thread per connection must not perturb the draw stream itself."""
        server = AuthorityServer(DeterministicRandomSource(seed=7))
        address = server.start()
        peer = _client(address)
        try:
            remote = RemoteRandomSource(peer)
            local = DeterministicRandomSource(seed=7)
            assert [remote.randbits(32) for _ in range(8)] == [
                local.randbits(32) for _ in range(8)
            ]
        finally:
            peer.close()
            server.stop()

    def test_concurrent_clients_see_disjoint_draws(self):
        """The dispatch lock serialises draws into one stream: two racing
        clients never observe the same raw draw twice."""
        server = AuthorityServer(DeterministicRandomSource(seed=11))
        address = server.start()
        peers = [_client(address) for _ in range(2)]
        try:
            results: list[list[int]] = [[], []]

            def drain(i: int) -> None:
                remote = RemoteRandomSource(peers[i])
                for _ in range(16):
                    results[i].append(remote.randbits(48))

            threads = [
                threading.Thread(target=drain, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            combined = results[0] + results[1]
            assert len(combined) == 32
            assert len(set(combined)) == 32
        finally:
            for peer in peers:
                peer.close()
            server.stop()


@pytest.fixture()
def authority():
    """A seeded authority plus one client: ``(server rng, peer)``."""
    rng = RecordingRng()
    server = AuthorityServer(rng)
    peer = _client(server.start())
    yield rng, peer
    peer.close()
    server.stop()


class TestBatchedExponents:
    def test_remote_batch_matches_local_and_leaves_the_stream_in_step(self, authority):
        rng, peer = authority
        local = DeterministicRandomSource(seed=7)
        exponents = RemoteRandomSource(peer).random_exponents(40)
        assert exponents == local.random_exponents(40)
        assert all(0 <= s < 1 << NONCE_EXPONENT_BITS for s in exponents)
        assert len(rng.draw_threads) == 40  # one raw draw per nonce, broker-side
        assert rng.randbits(64) == local.randbits(64)

    def test_batch_over_the_frame_cap_splits_in_stream_order(
        self, authority, monkeypatch
    ):
        monkeypatch.setattr("repro.netd.remote.MAX_EXPONENTS_PER_FRAME", 16)
        rng, peer = authority
        local = DeterministicRandomSource(seed=7)
        assert RemoteRandomSource(peer).random_exponents(40) == local.random_exponents(40)
        assert rng.randbits(64) == local.randbits(64)

    def test_empty_batch_sends_no_frame(self, authority):
        rng, peer = authority
        assert RemoteRandomSource(peer).random_exponents(0) == []
        assert rng.draw_threads == []

    @pytest.mark.parametrize(
        "kind, payload, expected",
        [
            ("rand_exponents", encode_exponents_request(0), SerializationError),
            (
                "rand_exponents",
                encode_exponents_request(MAX_EXPONENTS_PER_FRAME + 1),
                SerializationError,
            ),
            ("rand_exponents", b"", SerializationError),
            ("rand_exponents", encode_exponents_request(4)[:-1], SerializationError),
            ("rand_exponents", encode_exponents_request(4) + b"\x00", SerializationError),
            ("rand_units", encode_exponents_request(4), TransportError),
            ("rand", encode_control({}), SerializationError),
            ("rand", encode_control({"bits": "x"}), SerializationError),
            ("rand", encode_control({"bits": -5}), SerializationError),
            ("rand", encode_control({"bits": MAX_RAND_BITS + 1}), SerializationError),
            ("rand", encode_control({"bits": 200_000_000}), SerializationError),
            ("bootstrap", encode_control({}), SerializationError),
            ("bootstrap", encode_control({"name": 7}), SerializationError),
        ],
        ids=[
            "count-zero",
            "count-over-cap",
            "missing-count",
            "truncated",
            "trailing-byte",
            "retired-rand-units-kind",
            "rand-no-width",
            "rand-width-not-a-number",
            "rand-width-negative",
            "rand-width-over-cap",
            "rand-width-that-held-the-lock-for-minutes",
            "bootstrap-no-name",
            "bootstrap-name-not-a-string",
        ],
    )
    def test_hostile_request_is_refused_before_any_draw(
        self, authority, kind, payload, expected
    ):
        """A typed ``err`` frame, nothing consumed, and the same
        connection (no second dial) serves the next well-formed request.
        A negative count has no encoding: ``encode_int`` refuses it."""
        rng, peer = authority
        with pytest.raises(expected):
            peer.transact(kind, payload)
        assert rng.draw_threads == []
        assert RemoteRandomSource(peer).random_exponents(3) == (
            DeterministicRandomSource(seed=7).random_exponents(3)
        )
        assert _dials(peer) == 1


class TestSocketPlaneAuthorityTraffic:
    def test_two_authority_frames_per_sign_extraction(self):
        """One ``rand_exponents`` request and its response — not a pair per cell."""
        metrics = MetricsRegistry()
        coordinator, scenario = build_socket_coordinator(
            1,
            256,
            DeterministicRandomSource(seed=7),
            ScenarioConfig(seed=7, num_sus=1),
            metrics=metrics,
        )
        try:
            for pu in scenario.pus:
                coordinator.enroll_pu(pu)
            su = scenario.sus[0]
            coordinator.enroll_su(su)
            frames = metrics.counter("netd_frames_total", peer="authority")
            # The first round also dials: a hello pair on top.
            coordinator.run_request_round(su.su_id)
            for _ in range(2):
                before = frames.value
                coordinator.run_request_round(su.su_id)
                assert frames.value - before == 2
        finally:
            coordinator.close()


class TestSocketPlaneAuditClean:
    def test_netd_has_no_concurrency_or_determinism_findings(self):
        """Audit guard: the socket plane stays free of ASY0xx/DET0xx
        findings without waivers — the fixes, not baselines, hold."""
        from repro.audit import AuditConfig, AuditEngine

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        config = AuditConfig(
            select=frozenset(
                {"ASY001", "ASY002", "ASY003", "ASY004", "ASY005"}
                | {"DET001", "DET002", "DET003", "DET004", "DET005"}
            )
        )
        findings = AuditEngine(config).run([str(repo_root / "src" / "repro" / "netd")])
        assert findings == [], [f.render() for f in findings]
