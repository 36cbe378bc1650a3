"""AuthorityServer handler threading: dispatch runs off the event loop.

Regression suite for the ASY001 finding the interprocedural audit
surfaced: ``_dispatch`` does blocking work (journal fsync on draws, key
serialization in bootstrap providers) and used to run directly on the
NetLoop, stalling every authority client behind it.  It now runs under
``asyncio.to_thread`` with a dispatch lock keeping the draw stream
single-file.  These tests pin both properties, plus the audit-clean
status of the whole socket plane.

The ``rand_units`` frame — one request's worth of STP nonces in one
round trip — is covered here too: stream equivalence with a local
source, a hostile peer's malformed requests, and the per-request frame
count on a live socket plane.
"""

import pathlib
import threading

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.crypto.serialization import encode_int
from repro.errors import SerializationError
from repro.netd.plane import build_socket_coordinator
from repro.netd.remote import AuthorityServer, RemoteRandomSource
from repro.netd.transport import NetLoop, PeerClient
from repro.netd.wire import (
    MAX_UNITS_MODULUS_BITS,
    MAX_UNITS_PER_FRAME,
    encode_units_request,
)
from repro.telemetry import MetricsRegistry
from repro.watch.scenario import ScenarioConfig


class RecordingRng(DeterministicRandomSource):
    """Records the thread each draw executes on."""

    def __init__(self) -> None:
        super().__init__(seed=7)
        self.draw_threads: list[int] = []

    def randbits(self, bits: int) -> int:
        self.draw_threads.append(threading.get_ident())
        return super().randbits(bits)


@pytest.fixture()
def netloop():
    loop = NetLoop(name="test-authority-loop")
    yield loop
    loop.close()


def _client(netloop, address) -> PeerClient:
    return PeerClient("authority", lambda: address, netloop, pool_size=2)


class TestOffLoopDispatch:
    def test_rand_draws_execute_off_the_loop_thread(self, netloop):
        rng = RecordingRng()
        server = AuthorityServer(netloop, rng)
        address = server.start()
        peer = _client(netloop, address)
        try:
            remote = RemoteRandomSource(peer)
            values = [remote.randbits(64) for _ in range(3)]
            assert all(0 <= v < 2**64 for v in values)
            assert len(rng.draw_threads) == 3
            loop_thread = netloop._thread.ident
            assert all(t != loop_thread for t in rng.draw_threads), (
                "blocking draw ran on the event loop thread"
            )
        finally:
            peer.close()
            server.stop()

    def test_remote_draws_match_local_stream(self, netloop):
        """Off-loop dispatch must not perturb the draw stream itself."""
        server = AuthorityServer(netloop, DeterministicRandomSource(seed=7))
        address = server.start()
        peer = _client(netloop, address)
        try:
            remote = RemoteRandomSource(peer)
            local = DeterministicRandomSource(seed=7)
            assert [remote.randbits(32) for _ in range(8)] == [
                local.randbits(32) for _ in range(8)
            ]
        finally:
            peer.close()
            server.stop()

    def test_concurrent_clients_see_disjoint_draws(self, netloop):
        """The dispatch lock serialises draws into one stream: two racing
        clients never observe the same raw draw twice."""
        server = AuthorityServer(netloop, DeterministicRandomSource(seed=11))
        address = server.start()
        peers = [_client(netloop, address) for _ in range(2)]
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


#: Just above a power of two: ``randbelow`` rejects about half its
#: candidates, so the batch's raw draws outnumber its units.
REJECTING_MODULUS = (1 << 64) + 1
#: 3·5·7: 48 of the 104 candidates are units, so the gcd retry fires.
COMPOSITE_MODULUS = 105


@pytest.fixture()
def authority(netloop):
    """A seeded authority plus one client: ``(server rng, peer)``."""
    rng = RecordingRng()
    server = AuthorityServer(netloop, rng)
    peer = _client(netloop, server.start())
    yield rng, peer
    peer.close()
    server.stop()


class TestBatchedUnits:
    @pytest.mark.parametrize("modulus", [REJECTING_MODULUS, COMPOSITE_MODULUS])
    def test_remote_batch_matches_local_and_leaves_the_stream_in_step(
        self, authority, modulus
    ):
        rng, peer = authority
        local = DeterministicRandomSource(seed=7)
        assert RemoteRandomSource(peer).random_units(modulus, 40) == (
            local.random_units(modulus, 40)
        )
        assert len(rng.draw_threads) > 40  # retries ran broker-side
        assert rng.randbits(64) == local.randbits(64)

    def test_batch_over_the_frame_cap_splits_in_stream_order(
        self, authority, monkeypatch
    ):
        monkeypatch.setattr("repro.netd.remote.MAX_UNITS_PER_FRAME", 16)
        rng, peer = authority
        local = DeterministicRandomSource(seed=7)
        assert RemoteRandomSource(peer).random_units(COMPOSITE_MODULUS, 40) == (
            local.random_units(COMPOSITE_MODULUS, 40)
        )
        assert rng.randbits(64) == local.randbits(64)

    def test_empty_batch_sends_no_frame(self, authority):
        rng, peer = authority
        assert RemoteRandomSource(peer).random_units(REJECTING_MODULUS, 0) == []
        assert rng.draw_threads == []

    @pytest.mark.parametrize(
        "payload",
        [
            encode_units_request(REJECTING_MODULUS, 0),
            encode_units_request(REJECTING_MODULUS, MAX_UNITS_PER_FRAME + 1),
            encode_units_request(14, 4),
            encode_units_request(1 << MAX_UNITS_MODULUS_BITS, 4),
            encode_int(REJECTING_MODULUS),
            encode_units_request(REJECTING_MODULUS, 4)[:-1],
            encode_units_request(REJECTING_MODULUS, 4) + b"\x00",
        ],
        ids=[
            "count-zero",
            "count-over-cap",
            "modulus-below-floor",
            "modulus-over-bit-cap",
            "missing-count",
            "truncated",
            "trailing-byte",
        ],
    )
    def test_hostile_request_is_refused_before_any_draw(self, authority, payload):
        """A typed ``err`` frame, nothing consumed, and the connection
        (``pool_size`` keeps it) serves the next well-formed request.
        A negative count has no encoding: ``encode_int`` refuses it."""
        rng, peer = authority
        with pytest.raises(SerializationError):
            peer.transact("rand_units", payload)
        assert rng.draw_threads == []
        assert RemoteRandomSource(peer).random_units(COMPOSITE_MODULUS, 3) == (
            DeterministicRandomSource(seed=7).random_units(COMPOSITE_MODULUS, 3)
        )


class TestSocketPlaneAuthorityTraffic:
    def test_two_authority_frames_per_sign_extraction(self):
        """One ``rand_units`` request and its response — not a pair per cell."""
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
