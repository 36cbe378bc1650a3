"""Unit tests for the STP (sign extraction + key conversion)."""

import threading
import time

import pytest

from repro.crypto.paillier import generate_keypair
from repro.crypto.parallel import SerialExecutor
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ProtocolError
from repro.pisa.messages import SignExtractionRequest
from repro.pisa.packed import PackedSignExtractionRequest, PackedStpServer
from repro.pisa import stp_server
from repro.pisa.stp_server import StpServer
from repro.pisa.two_server import (
    BackendServer,
    PartialSignExtractionRequest,
    deal_two_server_keys,
)


@pytest.fixture()
def stp(fresh_rng):
    return StpServer(key_bits=256, rng=fresh_rng)


@pytest.fixture()
def su_keys(fresh_rng):
    return generate_keypair(256, rng=fresh_rng)


def extraction_request(stp, values, rng):
    pk = stp.group_public_key
    matrix = tuple(
        tuple(pk.encrypt(v, rng=rng) for v in row) for row in values
    )
    return SignExtractionRequest(round_id="r0", su_id="su-1", matrix=matrix)


class TestKeyAuthority:
    def test_directory_holds_group_key(self, stp):
        assert stp.directory.group_public_key == stp.group_public_key

    def test_accepts_external_keypair(self, fresh_rng):
        kp = generate_keypair(256, rng=fresh_rng)
        stp = StpServer(group_keypair=kp)
        assert stp.group_public_key == kp.public_key


class TestSignExtraction:
    def test_signs_follow_eq_15(self, stp, su_keys, fresh_rng):
        stp.register_su("su-1", su_keys.public_key)
        values = [[-100, -1, 1], [50, 7, -3]]
        response = stp.handle_sign_extraction(
            extraction_request(stp, values, fresh_rng)
        )
        sk = su_keys.private_key
        signs = [[sk.decrypt(ct) for ct in row] for row in response.matrix]
        assert signs == [[-1, -1, 1], [1, 1, -1]]

    def test_zero_maps_to_minus_one(self, stp, su_keys, fresh_rng):
        """eq. (15): V ≤ 0 → X = −1 (boundary included)."""
        stp.register_su("su-1", su_keys.public_key)
        response = stp.handle_sign_extraction(
            extraction_request(stp, [[0]], fresh_rng)
        )
        assert su_keys.private_key.decrypt(response.matrix[0][0]) == -1

    def test_output_under_su_key(self, stp, su_keys, fresh_rng):
        stp.register_su("su-1", su_keys.public_key)
        response = stp.handle_sign_extraction(
            extraction_request(stp, [[5]], fresh_rng)
        )
        assert response.matrix[0][0].public_key == su_keys.public_key

    def test_round_id_echoed(self, stp, su_keys, fresh_rng):
        stp.register_su("su-1", su_keys.public_key)
        response = stp.handle_sign_extraction(
            extraction_request(stp, [[1]], fresh_rng)
        )
        assert response.round_id == "r0"
        assert response.su_id == "su-1"

    def test_unregistered_su_rejected(self, stp, fresh_rng):
        with pytest.raises(ProtocolError):
            stp.handle_sign_extraction(extraction_request(stp, [[1]], fresh_rng))

    def test_foreign_ciphertext_rejected(self, stp, su_keys, fresh_rng):
        stp.register_su("su-1", su_keys.public_key)
        foreign = su_keys.public_key.encrypt(1, rng=fresh_rng)  # not group key
        request = SignExtractionRequest("r0", "su-1", ((foreign,),))
        with pytest.raises(ProtocolError):
            stp.handle_sign_extraction(request)

    def test_stats_counted(self, stp, su_keys, fresh_rng):
        stp.register_su("su-1", su_keys.public_key)
        stp.handle_sign_extraction(extraction_request(stp, [[1, 2], [3, 4]], fresh_rng))
        assert stp.stats.conversions == 1
        assert stp.stats.cells_decrypted == 4
        assert stp.stats.cells_encrypted == 4


# -- validate-then-draw, every variant -------------------------------------------


def _baseline_stp(rng, environment):
    keypair = generate_keypair(256, rng=DeterministicRandomSource("vtd-keys"))
    stp = StpServer(group_keypair=keypair, rng=rng)

    def make_request(su_id, cells):
        return SignExtractionRequest("r0", su_id, (tuple(cells),))

    return stp, stp.handle_sign_extraction, make_request


def _packed_stp(rng, environment):
    keypair = generate_keypair(512, rng=DeterministicRandomSource("vtd-keys"))
    stp = PackedStpServer(keypair, environment, rng=rng)

    def make_request(su_id, cells):
        return PackedSignExtractionRequest("r0", su_id, tuple(cells))

    return stp, stp.handle_sign_extraction, make_request


def _two_server_backend(rng, environment):
    keypair, directory = deal_two_server_keys(
        256, rng=DeterministicRandomSource("vtd-keys")
    )
    backend = BackendServer(keypair.shares[1], directory, rng=rng)

    def make_request(su_id, cells):
        return PartialSignExtractionRequest(
            "r0", su_id, (tuple(cells),), (tuple(1 for _ in cells),)
        )

    return backend, backend.handle_sign_extraction, make_request


@pytest.mark.parametrize(
    "build",
    [_baseline_stp, _packed_stp, _two_server_backend],
    ids=["baseline", "packed", "two-server"],
)
def test_rejected_extraction_consumes_no_draws(build, pisa_scenario, su_keys, fresh_rng):
    """A bad entry anywhere in Ṽ — here the *last* cell — or an unknown
    SU is rejected before the first nonce is drawn."""
    rng = DeterministicRandomSource("vtd-stream")
    untouched = DeterministicRandomSource("vtd-stream")
    server, handle, make_request = build(rng, pisa_scenario.environment)
    server.register_su("su-1", su_keys.public_key)
    good = [server.group_public_key.encrypt(v, rng=fresh_rng) for v in (5, -5)]
    foreign = su_keys.public_key.encrypt(1, rng=fresh_rng)  # not the group key
    for bad in (make_request("su-1", good + [foreign]), make_request("ghost", good)):
        with pytest.raises(ProtocolError):
            handle(bad)
    assert rng.randbits(64) == untouched.randbits(64)


# -- the per-SU nonce stock ------------------------------------------------------


class RecordingSource(DeterministicRandomSource):
    """Notes the size of every ``random_units`` batch."""

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self.batches: list[int] = []

    def random_units(self, modulus, count):
        self.batches.append(count)
        return super().random_units(modulus, count)


class TestNonceStock:
    """While serving SU *j* the STP draws *j*'s next request's nonces."""

    @pytest.fixture()
    def stocked(self, pisa_scenario, su_keys):
        rng = RecordingSource("stock-stream")
        stp, _, make_request = _baseline_stp(rng, pisa_scenario.environment)
        for su_id in ("su-1", "su-2", "su-3"):
            stp.register_su(su_id, su_keys.public_key)
        cell = stp.group_public_key.encrypt(
            5, rng=DeterministicRandomSource("stock-cells")
        )

        def ask(su_id, width):
            return stp.handle_sign_extraction(make_request(su_id, [cell] * width))

        return stp, rng, ask

    def test_narrower_then_wider_request(self, stocked, su_keys):
        """Surplus is kept, a shortfall is drawn with the same batch, and
        nonces are used in the order they were drawn."""
        _, rng, ask = stocked
        pk = su_keys.public_key
        stream = DeterministicRandomSource("stock-stream").random_units(pk.n, 16)
        responses = [ask("su-1", width) for width in (4, 2, 5)]
        # 4 + the next 4; nothing (2 of the 4 stocked are left, which is
        # a request's worth); the 3 missing + the next 5.
        assert rng.batches == [8, 0, 8]
        used = stream[0:4] + stream[4:6] + stream[6:11]
        emitted = [ct for response in responses for ct in response.matrix[0]]
        assert emitted == [pk.encrypt(1, r=r) for r in used]

    def test_rejected_request_leaves_the_stock_alone(self, stocked, su_keys, fresh_rng):
        stp, rng, ask = stocked
        ask("su-1", 3)
        position = len(rng.batches)
        foreign = su_keys.public_key.encrypt(1, rng=fresh_rng)  # not the group key
        good = stp.group_public_key.encrypt(1, rng=fresh_rng)
        for bad in (
            SignExtractionRequest("r0", "su-1", ((good, foreign),)),
            SignExtractionRequest("r0", "ghost", ((good,),)),
        ):
            with pytest.raises(ProtocolError):
                stp.handle_sign_extraction(bad)
        assert len(rng.batches) == position
        ask("su-1", 3)
        assert rng.batches[position:] == [3]  # still served from its stock

    def test_eviction_at_the_cap_is_in_request_order(self, stocked, monkeypatch):
        _, rng, ask = stocked
        monkeypatch.setattr(stp_server, "MAX_STOCKED_SUS", 2)
        for su_id in ("su-1", "su-2", "su-3"):
            ask(su_id, 2)
        assert rng.batches == [4, 4, 4]
        ask("su-2", 2)  # still stocked: only the next request's worth
        ask("su-1", 2)  # asked longest ago, evicted by su-3: draws inline again
        assert rng.batches[3:] == [2, 4]


class GatedExecutor(SerialExecutor):
    """Parks the gated thread inside ``pow_many`` until released."""

    def __init__(self) -> None:
        super().__init__()
        self.gated = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def pow_many(self, jobs):
        if threading.current_thread() is self.gated:
            self.entered.set()
            assert self.release.wait(10)
        return super().pow_many(jobs)


def serve(stp, executor, request):
    return stp.handle_sign_extraction(request)


def serve_after_full_fill(stp, executor, request):
    stp.fill_stock()
    return stp.handle_sign_extraction(request)


def serve_preempting_fill(stp, executor, request):
    """The request arrives from a second thread while a fill is mid-chunk."""
    executor.entered.clear()
    executor.release.clear()
    executor.gated = fill = threading.Thread(target=stp.fill_stock)
    fill.start()
    while fill.is_alive() and not executor.entered.wait(0.01):
        pass
    responses = []
    request_thread = threading.Thread(
        target=lambda: responses.append(stp.handle_sign_extraction(request))
    )
    request_thread.start()
    if fill.is_alive():  # parked mid-chunk: let the request queue up behind it
        while not stp._serving.locked():
            time.sleep(0.001)
    executor.release.set()
    fill.join(10)
    request_thread.join(10)
    return responses[0]


class TestFillStock:
    """``fill_stock()`` moves work, never bytes."""

    #: (SU, width): repeats, a narrower request (its surplus partly
    #: filled), then a wider one.
    SESSION = (
        ("su-1", 6), ("su-2", 6), ("su-1", 6), ("su-2", 3), ("su-1", 9), ("su-2", 6),
    )

    def run(self, serve_one, environment, su_public_key):
        executor = GatedExecutor()
        keypair = generate_keypair(256, rng=DeterministicRandomSource("vtd-keys"))
        stp = StpServer(
            group_keypair=keypair,
            rng=DeterministicRandomSource("fill-stream"),
            executor=executor,
        )
        cell_rng = DeterministicRandomSource("fill-cells")
        emitted = []
        for su_id, width in self.SESSION:
            stp.register_su(su_id, su_public_key)
            cells = tuple(
                stp.group_public_key.encrypt(v, rng=cell_rng)
                for v in range(-2, width - 2)
            )
            request = SignExtractionRequest("r0", su_id, (cells,))
            emitted.append(serve_one(stp, executor, request).to_bytes())
        return emitted, stp

    def test_bytes_do_not_depend_on_the_fill(self, pisa_scenario, su_keys):
        env, pk = pisa_scenario.environment, su_keys.public_key
        never, idle_stp = self.run(serve, env, pk)
        always, filled_stp = self.run(serve_after_full_fill, env, pk)
        preempted, preempted_stp = self.run(serve_preempting_fill, env, pk)
        assert never == always == preempted
        cells = sum(width for _, width in self.SESSION)
        for stp in (idle_stp, filled_stp, preempted_stp):
            stats = stp.stats
            assert stats.obfuscators_stocked + stats.obfuscators_inline == cells
        assert idle_stp.stats.obfuscators_stocked == 0
        # Everything but the two first requests and the 3 + 3 nonces the
        # last two requests, wider than their stock, drew for themselves.
        assert filled_stp.stats.obfuscators_stocked == cells - 6 - 6 - 3 - 3
        # One chunk per gap, then the waiting request stopped the fill.
        assert (
            0
            < preempted_stp.stats.obfuscators_stocked
            < filled_stp.stats.obfuscators_stocked
        )

    def test_fill_stops_when_told_to(self, pisa_scenario, su_keys):
        _, stp = self.run(serve, pisa_scenario.environment, su_keys.public_key)
        stp.fill_stock(stop=lambda: True)
        assert stp.stock_counts()["stocked_obfuscators"] == 0
        stp.fill_stock()
        counts = stp.stock_counts()
        assert counts["stocked_sus"] == 2
        assert counts["stocked_obfuscators"] == counts["stocked_nonces"] == 9 + 6
