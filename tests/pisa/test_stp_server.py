"""Unit tests for the STP (sign extraction + key conversion)."""

import dataclasses
import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import powmod
from repro.crypto.encoding import decode_signed
from repro.crypto.numtheory import generate_prime
from repro.crypto.paillier import (
    EncryptedNumber,
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.parallel import SerialExecutor
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ConfigurationError, DecryptionError, ProtocolError, ReproError
from repro.pisa.messages import SignExtractionRequest
from repro.pisa.packed import PackedSignExtractionRequest, PackedStpServer
from repro.pisa import stp_server
from repro.pisa.blinding import BlindingParameters, indicator_bound_for
from repro.pisa.stp_server import StpServer, StpStats
from repro.pisa.two_server import (
    BackendServer,
    PartialSignExtractionRequest,
    deal_two_server_keys,
)
from repro.watch.params import WatchParameters


#: The indicator bound of every default-parameter scenario.
BOUND = indicator_bound_for(WatchParameters())


@pytest.fixture()
def stp(fresh_rng):
    return StpServer(key_bits=256, rng=fresh_rng, indicator_bound=BOUND)


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
        stp = StpServer(group_keypair=kp, indicator_bound=BOUND)
        assert stp.group_public_key == kp.public_key

    def test_unbalanced_keypair_refused(self):
        """One CRT half opens Ṽ only below half the smaller prime, which the
        blinding bound assumes has ⌊n_bits/2⌋ bits: a 256-bit modulus of a
        100-bit and a 156-bit prime is refused."""
        rng = DeterministicRandomSource("unbalanced")
        while True:
            p, q = generate_prime(100, rng=rng), generate_prime(156, rng=rng)
            if (p * q).bit_length() == 256:
                break
        public = PaillierPublicKey(p * q)
        keypair = PaillierKeypair(public, PaillierPrivateKey(public, p, q))
        with pytest.raises(ConfigurationError):
            StpServer(group_keypair=keypair, indicator_bound=BOUND)


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


# -- one converter, three ways to open a ciphertext ------------------------------


@dataclass
class Harness:
    """A conversion server and how to talk to it in its own message shape."""

    server: object
    #: ``(su_id, cells) -> request``.
    make_request: Callable
    #: A signed value as the ``Ṽ`` plaintext that carries it, and as the
    #: plaintext its sign comes back in.
    encode: Callable = lambda value: value
    expected: Callable = lambda value: 1 if value > 0 else -1
    #: A prime factor of the group modulus, where the test holds one.
    prime: int = 0

    def cell(self, value, rng) -> EncryptedNumber:
        return self.server.group_public_key.encrypt(self.encode(value), rng=rng)

    def ask(self, su_id, cells) -> list[EncryptedNumber]:
        return emitted(
            self.server.handle_sign_extraction(self.make_request(su_id, cells))
        )


def emitted(response) -> list[EncryptedNumber]:
    """Every ciphertext of a conversion response, in cell order."""
    if hasattr(response, "chunks"):
        return list(response.chunks)
    return [ct for row in response.matrix for ct in row]


@functools.lru_cache(maxsize=None)
def _group_keypair(bits):
    return generate_keypair(bits, rng=DeterministicRandomSource("vtd-keys"))


@functools.lru_cache(maxsize=None)
def _su_keypair():
    return generate_keypair(256, rng=DeterministicRandomSource("vtd-su-keys"))


def _baseline_stp(rng, environment, executor=None):
    stp = StpServer(
        group_keypair=_group_keypair(256),
        rng=rng,
        executor=executor,
        indicator_bound=indicator_bound_for(environment.params),
    )

    def make_request(su_id, cells):
        return SignExtractionRequest("r0", su_id, (tuple(cells),))

    return Harness(stp, make_request, prime=_group_keypair(256).private_key.p)


def _packed_stp(rng, environment, executor=None):
    stp = PackedStpServer(_group_keypair(512), environment, rng=rng, executor=executor)
    layout = stp.layout

    def make_request(su_id, cells):
        return PackedSignExtractionRequest("r0", su_id, tuple(cells))

    # The value rides in slot 0; the other slots sit at −half_slot and
    # come back 0.
    return Harness(
        stp,
        make_request,
        encode=lambda value: layout.pack([layout.half_slot + value]),
        expected=lambda value: layout.pack([2 if value > 0 else 0]),
        prime=_group_keypair(512).private_key.p,
    )


def _two_server_backend(rng, environment, executor=None):
    keypair, directory = deal_two_server_keys(
        256, rng=DeterministicRandomSource("vtd-keys")
    )
    backend = BackendServer(keypair.shares[1], directory, rng=rng, executor=executor)
    front, n_sq = keypair.shares[0], keypair.public_key.n_sq

    def make_request(su_id, cells, combine=True):
        partials = tuple(
            pow(ct.ciphertext, front.exponent, n_sq) if combine else 1 for ct in cells
        )
        return PartialSignExtractionRequest("r0", su_id, (tuple(cells),), (partials,))

    return Harness(backend, make_request)


BUILDERS = pytest.mark.parametrize(
    "build",
    [_baseline_stp, _packed_stp, _two_server_backend],
    ids=["baseline", "packed", "two-server"],
)


# -- validate-then-draw, every variant -------------------------------------------


@BUILDERS
def test_rejected_extraction_consumes_no_draws(build, pisa_scenario, su_keys, fresh_rng):
    """A bad entry anywhere in Ṽ — here the *last* cell: a foreign key, a
    ciphertext outside ``(0, n²)`` — or an unknown SU is rejected before
    the first nonce is drawn and before the stock is touched."""
    rng = DeterministicRandomSource("vtd-stream")
    untouched = DeterministicRandomSource("vtd-stream")
    harness = build(rng, pisa_scenario.environment)
    server, pk = harness.server, harness.server.group_public_key
    server.register_su("su-1", su_keys.public_key)
    good = [harness.cell(v, fresh_rng) for v in (5, -5)]
    foreign = su_keys.public_key.encrypt(1, rng=fresh_rng)  # not the group key
    zeroed = harness.make_request("su-1", good + [EncryptedNumber(pk, 0)])
    rejected = [
        (harness.make_request("su-1", good + [foreign]), ProtocolError),
        (harness.make_request("ghost", good), ProtocolError),
        (zeroed, ReproError),
    ]
    if build is _baseline_stp:  # the same cell, as the wire delivers it
        decoded = SignExtractionRequest.from_bytes(zeroed.to_bytes(), pk)
        rejected.append((decoded, ReproError))
    before = server.stock_counts()
    for bad, error in rejected:
        with pytest.raises(error):
            server.handle_sign_extraction(bad)
    assert rng.randbits(64) == untouched.randbits(64)
    assert server.stock_counts() == before
    assert server.stats == StpStats()


def assert_refused_without_a_draw(harness, rng, requests, error=ProtocolError):
    """Every request raises ``error``; no nonce is drawn, the stock and the
    stats stay as they were, and the SU's next request is still served
    from its stock."""
    server = harness.server
    batches, counts = list(rng.batches), server.stock_counts()
    stats = dataclasses.replace(server.stats)
    for request in requests:
        with pytest.raises(error):
            server.handle_sign_extraction(request)
    assert rng.batches == batches
    assert server.stock_counts() == counts
    assert server.stats == stats
    harness.ask("su-1", [harness.cell(5, DeterministicRandomSource("next"))] * 3)
    assert rng.batches == batches + [3]


@BUILDERS
def test_non_unit_entries_refused_before_any_draw(build, pisa_scenario, su_keys, fresh_rng):
    """``Ṽ = n``, another multiple of ``n`` or (where the test knows it) a
    multiple of ``p`` is refused whole: no unit, no opening."""
    rng = RecordingSource("non-unit-stream")
    harness = build(rng, pisa_scenario.environment)
    pk = harness.server.group_public_key
    harness.server.register_su("su-1", su_keys.public_key)
    good = harness.cell(5, fresh_rng)
    harness.ask("su-1", [good] * 3)  # stocks su-1's next request
    non_units = [pk.n, 3 * pk.n] + ([7 * harness.prime] if harness.prime else [])
    assert_refused_without_a_draw(
        harness,
        rng,
        [harness.make_request("su-1", [good, EncryptedNumber(pk, c)]) for c in non_units],
    )


# -- the baseline STP opens with one CRT half --------------------------------------


class TestOneHalfOpen:
    """``V mod p`` read in ``(−p/2, p/2)`` is ``V`` for every ``|V|`` the
    blinding can produce; a larger one is refused, so the signs are no
    oracle on ``p``."""

    @staticmethod
    def max_blinded(keypair) -> int:
        return BlindingParameters.for_key(keypair.public_key, BOUND).max_blinded

    @pytest.mark.parametrize("bits", [256, 512])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_half_equals_the_full_decryption(self, bits, data):
        keypair = _group_keypair(bits)
        pk, sk = keypair.public_key, keypair.private_key
        bound = self.max_blinded(keypair)
        value = data.draw(
            st.one_of(
                st.sampled_from([bound, -bound, bound - 1, -bound + 1, 1, -1, 0]),
                st.integers(min_value=-bound, max_value=bound),
            )
        )
        ct = pk.encrypt(value, rng=DeterministicRandomSource(f"half-{value}")).ciphertext
        opened = sk.signed_from_half(powmod(*sk.half_decrypt_job(ct)))
        assert opened == decode_signed(sk.raw_decrypt(ct), pk.n) == value

    def test_out_of_range_values_refused_before_any_draw(self, pisa_scenario, su_keys):
        rng = RecordingSource("range-stream")
        harness = _baseline_stp(rng, pisa_scenario.environment)
        harness.server.register_su("su-1", su_keys.public_key)
        good = harness.cell(5, DeterministicRandomSource("range-cells"))
        harness.ask("su-1", [good] * 3)
        bound = self.max_blinded(_group_keypair(256))
        p = harness.prime
        assert bound + 1 < p // 2 - 1
        cells = [
            harness.cell(value, DeterministicRandomSource(f"range-{value}"))
            for value in (bound + 1, -(bound + 1), p // 2 - 1)
        ]
        assert_refused_without_a_draw(
            harness, rng, [harness.make_request("su-1", [good, bad]) for bad in cells]
        )

    def test_extremes_answered(self, pisa_scenario, su_keys):
        harness = _baseline_stp(
            DeterministicRandomSource("extremes"), pisa_scenario.environment
        )
        harness.server.register_su("su-1", su_keys.public_key)
        bound = self.max_blinded(_group_keypair(256))
        values = [bound, -bound, 1, -1]
        cells = [harness.cell(v, DeterministicRandomSource(f"x-{v}")) for v in values]
        answers = harness.ask("su-1", cells)
        assert [su_keys.private_key.decrypt(ct) for ct in answers] == [1, -1, 1, -1]


@BUILDERS
def test_opening_jobs_per_cell(build, pisa_scenario, su_keys):
    """TestStpJobCount: with the SU's stock filled, a conversion is its
    opening alone — one job per cell on the baseline STP (one CRT half)
    and the two-server backend (``Ṽ^{d₂}``), two per chunk on the packed
    STP (both CRT halves)."""
    executor = SerialExecutor()
    harness = build(
        DeterministicRandomSource("job-count"), pisa_scenario.environment, executor=executor
    )
    harness.server.register_su("su-1", su_keys.public_key)
    cells = [harness.cell(v, DeterministicRandomSource("job-cells")) for v in range(-3, 9)]
    harness.ask("su-1", cells)
    harness.server.fill_stock()
    before = executor.jobs_executed
    harness.ask("su-1", cells)
    per_cell = 2 if build is _packed_stp else 1
    assert executor.jobs_executed - before == per_cell * len(cells)


# -- the per-SU nonce stock ------------------------------------------------------


class RecordingSource(DeterministicRandomSource):
    """Notes the size and the output of every ``random_exponents`` batch."""

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self.batches: list[int] = []
        self.drawn: list[int] = []

    def random_exponents(self, count):
        self.batches.append(count)
        exponents = super().random_exponents(count)
        self.drawn.extend(exponents)
        return exponents


class TestNonceStock:
    """While serving SU *j* the converter draws *j*'s next request's
    nonces.  The baseline STP here; the subclasses below run the same
    tests on the packed STP and the two-server backend."""

    build = staticmethod(_baseline_stp)

    @pytest.fixture()
    def stocked(self, pisa_scenario, su_keys):
        rng = RecordingSource("stock-stream")
        harness = self.build(rng, pisa_scenario.environment)
        for su_id in ("su-1", "su-2", "su-3"):
            harness.server.register_su(su_id, su_keys.public_key)
        cell = harness.cell(5, DeterministicRandomSource("stock-cells"))

        def ask(su_id, width):
            return harness.ask(su_id, [cell] * width)

        return harness, rng, ask

    def test_narrower_then_wider_request(self, stocked, su_keys):
        """Surplus is kept, a shortfall is drawn with the same batch, and
        nonces are used in the order they were drawn."""
        harness, rng, ask = stocked
        pk = su_keys.public_key
        stream = DeterministicRandomSource("stock-stream").random_exponents(16)
        answers = [ct for width in (4, 2, 5) for ct in ask("su-1", width)]
        # 4 + the next 4; nothing (2 of the 4 stocked are left, which is
        # a request's worth); the 3 missing + the next 5.
        assert rng.batches == [8, 0, 8]
        used = stream[0:4] + stream[4:6] + stream[6:11]
        assert answers == [pk.encrypt(harness.expected(5), s=s) for s in used]

    def test_rejected_request_leaves_the_stock_alone(self, stocked, su_keys, fresh_rng):
        harness, rng, ask = stocked
        ask("su-1", 3)
        position = len(rng.batches)
        counts = harness.server.stock_counts()
        foreign = su_keys.public_key.encrypt(1, rng=fresh_rng)  # not the group key
        good = harness.cell(1, fresh_rng)
        zero = EncryptedNumber(harness.server.group_public_key, 0)
        for bad in (
            harness.make_request("su-1", [good, foreign]),
            harness.make_request("ghost", [good]),
            harness.make_request("su-1", [good, zero]),
        ):
            with pytest.raises(ReproError):
                harness.server.handle_sign_extraction(bad)
        assert len(rng.batches) == position
        assert harness.server.stock_counts() == counts
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


class TestNonceStockPacked(TestNonceStock):
    build = staticmethod(_packed_stp)


class TestNonceStockTwoServer(TestNonceStock):
    build = staticmethod(_two_server_backend)

    def test_partials_that_do_not_combine_burn_no_nonces(self, stocked, su_keys):
        """A failure only the opening can see comes before the draw too:
        a ``DecryptionError``, nothing drawn, the SU's stock untouched and
        its next request served from it."""
        harness, rng, ask = stocked
        pk = su_keys.public_key
        first = ask("su-1", 2)
        counts = harness.server.stock_counts()
        cell = harness.cell(5, DeterministicRandomSource("stock-cells"))
        bad = harness.make_request("su-1", [cell] * 2, combine=False)
        with pytest.raises(DecryptionError):
            harness.server.handle_sign_extraction(bad)
        assert rng.batches == [4]
        assert harness.server.stock_counts() == counts
        assert harness.server.stats.conversions == 1
        second = ask("su-1", 2)
        assert rng.batches == [4, 2]
        assert first + second == [
            pk.encrypt(harness.expected(5), s=s) for s in rng.drawn[0:4]
        ]


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
    """``fill_stock()`` moves work, never bytes — on the baseline STP
    here, on the other two converters in the subclasses below."""

    build = staticmethod(_baseline_stp)

    #: (SU, width): repeats, a narrower request (its surplus partly
    #: filled), then a wider one.
    SESSION = (
        ("su-1", 6), ("su-2", 6), ("su-1", 6), ("su-2", 3), ("su-1", 9), ("su-2", 6),
    )

    def run(self, serve_one, environment, su_public_key):
        executor = GatedExecutor()
        harness = self.build(
            DeterministicRandomSource("fill-stream"), environment, executor=executor
        )
        stp = harness.server
        cell_rng = DeterministicRandomSource("fill-cells")
        emitted = []
        for su_id, width in self.SESSION:
            stp.register_su(su_id, su_public_key)
            cells = [harness.cell(v, cell_rng) for v in range(-2, width - 2)]
            request = harness.make_request(su_id, cells)
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


class TestFillStockPacked(TestFillStock):
    build = staticmethod(_packed_stp)


class TestFillStockTwoServer(TestFillStock):
    build = staticmethod(_two_server_backend)


# -- every nonce once, in draw order, whatever the fill did ------------------------


def _fill_skipped(server):
    pass


def _fill_one_chunk(server):
    calls = itertools.count()
    server.fill_stock(stop=lambda: next(calls) >= 1)


def _fill_all(server):
    server.fill_stock()


@BUILDERS
@settings(max_examples=40, deadline=None)
@given(
    session=st.lists(
        st.tuples(
            st.sampled_from(("su-1", "su-2", "su-3")),
            st.integers(min_value=0, max_value=6),
            st.sampled_from((_fill_skipped, _fill_one_chunk, _fill_all)),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_every_nonce_is_used_once_in_draw_order(build, session, pisa_scenario):
    """Whatever the widths, the interleaving of SUs and the fill between
    requests: every emitted ciphertext is the expected sign encrypted with
    the next unused nonce of those drawn while serving that SU."""
    rng = RecordingSource("property-stream")
    harness = build(rng, pisa_scenario.environment)
    server, pk = harness.server, _su_keypair().public_key
    cell_rng = DeterministicRandomSource("property-cells")
    drawn_for: dict[str, list[int]] = {}
    used: dict[str, int] = {}
    consumed = []
    for su_id, width, fill in session:
        server.register_su(su_id, pk)
        values = [3 if i % 2 else -3 for i in range(width)]
        cells = [harness.cell(v, cell_rng) for v in values]
        mark = len(rng.drawn)
        answers = harness.ask(su_id, cells)
        mine = drawn_for.setdefault(su_id, [])
        mine.extend(rng.drawn[mark:])
        start = used.get(su_id, 0)
        nonces = mine[start : start + width]
        used[su_id] = start + width
        assert answers == [
            pk.encrypt(harness.expected(v), s=s) for v, s in zip(values, nonces)
        ]
        consumed.extend(nonces)
        fill(server)
    assert len(set(consumed)) == len(consumed) == sum(w for _, w, _ in session)
    replay = DeterministicRandomSource("property-stream")
    assert rng.drawn == replay.random_exponents(len(rng.drawn))
    stats = server.stats
    assert stats.obfuscators_stocked + stats.obfuscators_inline == len(consumed)
