"""Unit tests for the SU-side client (Figure 5)."""

import pytest

from repro.crypto.paillier import generate_keypair
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ProtocolError
from repro.geo.region import PrivacyRegion
from repro.pisa.su_client import SUClient
from repro.watch.matrices import su_request_matrix


@pytest.fixture()
def group_keys(fresh_rng):
    return generate_keypair(256, rng=fresh_rng)


@pytest.fixture()
def su_keys(fresh_rng):
    return generate_keypair(256, rng=fresh_rng)


@pytest.fixture()
def client(scenario, group_keys, su_keys, fresh_rng):
    return SUClient(
        scenario.sus[0],
        scenario.environment,
        group_keys.public_key,
        su_keys,
        rng=fresh_rng,
    )


class TestPrepareRequest:
    def test_full_privacy_covers_every_block(self, client, scenario):
        request = client.prepare_request()
        env = scenario.environment
        assert len(request.region_blocks) == env.num_blocks
        assert len(request.matrix) == env.num_channels

    def test_entries_decrypt_to_f_matrix(self, client, scenario, group_keys):
        """The ciphertext matrix must encrypt eq. (5) exactly."""
        request = client.prepare_request()
        env = scenario.environment
        f = su_request_matrix(
            client.su,
            env.grid,
            env.params,
            pathloss_for_channel=env.su_pathloss,
            exclusion_distance_for_channel=env.exclusion_distance,
        )
        sk = group_keys.private_key
        for c in range(env.num_channels):
            for k, b in enumerate(request.region_blocks):
                assert sk.decrypt(request.matrix[c][k]) == int(f[c, b])

    def test_region_shrinks_matrix(self, scenario, group_keys, su_keys, fresh_rng):
        """§VI-A privacy/size trade-off: fewer blocks → smaller request."""
        su = scenario.sus[0]
        grid = scenario.environment.grid
        region = PrivacyRegion.around(grid, su.block_index, 15.0)
        client = SUClient(
            su, scenario.environment, group_keys.public_key, su_keys,
            region=region, rng=fresh_rng,
        )
        small = client.prepare_request()
        assert len(small.region_blocks) == region.num_blocks < grid.num_blocks

    def test_region_must_contain_su(self, scenario, group_keys, su_keys, fresh_rng):
        su = scenario.sus[0]
        grid = scenario.environment.grid
        other_block = (su.block_index + 1) % grid.num_blocks
        region = PrivacyRegion(grid, frozenset({other_block}))
        with pytest.raises(ProtocolError):
            SUClient(
                su, scenario.environment, group_keys.public_key, su_keys,
                region=region, rng=fresh_rng,
            )


class TestRefreshRequest:
    def test_requires_prepared_request(self, client):
        with pytest.raises(ProtocolError):
            client.refresh_request()

    def test_preserves_plaintexts_changes_ciphertexts(self, client, group_keys):
        original = client.prepare_request()
        refreshed = client.refresh_request()
        sk = group_keys.private_key
        changed = 0
        for row_o, row_r in zip(original.matrix, refreshed.matrix):
            for ct_o, ct_r in zip(row_o, row_r):
                assert sk.decrypt(ct_o) == sk.decrypt(ct_r)
                changed += ct_o.ciphertext != ct_r.ciphertext
        assert changed == sum(len(r) for r in original.matrix)

    def test_unlinkable_across_refreshes(self, client):
        client.prepare_request()
        a = client.refresh_request()
        b = client.refresh_request()
        assert a.matrix[0][0].ciphertext != b.matrix[0][0].ciphertext


class TestRefreshPrecompute:
    @pytest.mark.parametrize("packed", [False, True], ids=["baseline", "packed"])
    def test_precompute_before_the_first_preparation(self, scenario, su_keys, packed):
        """A pool stocked before any request holds exactly one request's
        obfuscators (channels × blocks, or × chunks when packed); the
        first preparation then runs no exponentiation, and its bytes are
        those of an unstocked client on the same stream."""
        from repro.crypto.parallel import default_executor
        from repro.pisa.packed import PackedSuClient

        cls, bits = (PackedSuClient, 512) if packed else (SUClient, 256)
        group = generate_keypair(bits, rng=DeterministicRandomSource("group"))
        stocked, inline = (
            cls(
                scenario.sus[0],
                scenario.environment,
                group.public_key,
                su_keys,
                rng=DeterministicRandomSource("first-preparation"),
            )
            for _ in range(2)
        )
        stocked.precompute_refresh_material(rounds=1)  # nothing cached yet
        stocked_pool = len(stocked._obfuscators)
        serial = default_executor()
        before = serial.jobs_executed
        request = stocked.prepare_request()
        assert serial.jobs_executed == before
        assert len(stocked._obfuscators) == 0
        rows = request.rows if packed else request.matrix
        assert stocked_pool == sum(len(row) for row in rows)
        assert request.to_bytes() == inline.prepare_request().to_bytes()

    def test_stocked_refresh_uses_no_exponentiation(self, client, group_keys):
        """After stocking, a refresh drains the pool one per ciphertext."""
        request = client.prepare_request()
        cells = sum(len(row) for row in request.matrix)
        client.precompute_refresh_material(rounds=2)
        assert len(client._obfuscators) == 2 * cells
        client.refresh_request()
        assert len(client._obfuscators) == cells
        client.refresh_request()
        assert len(client._obfuscators) == 0

    def test_stocked_preparation_emits_the_inline_bytes_without_a_modexp(
        self, scenario, group_keys, su_keys
    ):
        """``prepare_request`` takes each cell's obfuscator from the pool:
        over a stocked pool it submits no ``pow_many`` job at all, over
        an empty one it computes one per cell inline — same bytes."""
        from repro.crypto.parallel import default_executor

        stocked, inline = (
            SUClient(
                scenario.sus[0],
                scenario.environment,
                group_keys.public_key,
                su_keys,
                rng=DeterministicRandomSource("prepare"),
            )
            for _ in range(2)
        )
        first = stocked.prepare_request()
        assert first.to_bytes() == inline.prepare_request().to_bytes()
        cells = sum(len(row) for row in first.matrix)
        stocked.precompute_refresh_material(rounds=1)  # offline
        serial = default_executor()

        before = serial.jobs_executed
        stocked_bytes = stocked.prepare_request().to_bytes()
        assert serial.jobs_executed == before
        assert len(stocked._obfuscators) == 0

        inline_bytes = inline.prepare_request().to_bytes()
        assert serial.jobs_executed == before + cells
        assert stocked_bytes == inline_bytes != first.to_bytes()

    def test_stocked_refresh_emits_the_inline_bytes(self, scenario, group_keys, su_keys):
        """Whether the pool was pre-stocked changes no request byte."""
        stocked, inline = (
            SUClient(
                scenario.sus[0],
                scenario.environment,
                group_keys.public_key,
                su_keys,
                rng=DeterministicRandomSource("refresh"),
            )
            for _ in range(2)
        )
        assert stocked.prepare_request().to_bytes() == inline.prepare_request().to_bytes()
        stocked.precompute_refresh_material(rounds=2)
        for _ in range(2):
            assert stocked.refresh_request().to_bytes() == inline.refresh_request().to_bytes()


class RecordingSource(DeterministicRandomSource):
    """Every raw draw, in order, as ``(bits, value)``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randbits(self, bits):
        value = super().randbits(bits)
        self.draws.append((bits, value))
        return value


class CountingSerial:
    """The process-wide executor, counting ``pow_many`` calls."""

    def __init__(self):
        self.batches = []

    def pow_many(self, jobs):
        self.batches.append(len(jobs))
        return [pow(*job) for job in jobs]


class TestOneBatchPerRequest:
    """An unstocked pool is topped up once per request, not per cell."""

    @pytest.mark.parametrize("packed", [False, True], ids=["baseline", "packed"])
    def test_draws_and_bytes_match_the_per_cell_path(self, scenario, su_keys, packed):
        from unittest import mock

        from repro.crypto.paillier import ObfuscatorPool
        from repro.pisa.packed import PackedSuClient

        cls, bits = (PackedSuClient, 512) if packed else (SUClient, 256)
        group = generate_keypair(bits, rng=DeterministicRandomSource("group"))

        def session(source):
            client = cls(scenario.sus[0], scenario.environment, group.public_key, su_keys,
                         rng=source)
            return [client.prepare_request().to_bytes(), client.refresh_request().to_bytes()]

        batched = RecordingSource("per-request")
        batched_bytes = session(batched)
        per_cell = RecordingSource("per-request")
        # Without ``ensure`` every ``take()`` refills one: the per-cell path.
        with mock.patch.object(ObfuscatorPool, "ensure", lambda self, count, executor=None: None):
            per_cell_bytes = session(per_cell)
        assert len(batched.draws) > 2
        assert batched.draws == per_cell.draws
        assert batched_bytes == per_cell_bytes

    @pytest.mark.parametrize("packed", [False, True], ids=["baseline", "packed"])
    def test_a_refresh_is_one_pow_many_batch(self, scenario, su_keys, packed):
        from unittest import mock

        from repro.crypto import parallel
        from repro.pisa.packed import PackedSuClient

        cls, bits = (PackedSuClient, 512) if packed else (SUClient, 256)
        group = generate_keypair(bits, rng=DeterministicRandomSource("group"))
        client = cls(scenario.sus[0], scenario.environment, group.public_key, su_keys,
                     rng=DeterministicRandomSource("one-batch"))
        counting = CountingSerial()
        with mock.patch.object(parallel, "_SERIAL", counting):
            request = client.prepare_request()
            cells = sum(len(row) for row in (request.rows if packed else request.matrix))
            assert counting.batches == [cells]
            client.refresh_request()
            assert counting.batches == [cells, cells]
