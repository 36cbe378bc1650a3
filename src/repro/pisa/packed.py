"""Packed-request PISA — a throughput extension using slot packing.

Figure 6's dominant costs are per-cell Paillier operations: 60 000
encryptions to prepare a request, 60 000 decrypt+encrypt pairs at the
STP.  With :mod:`repro.crypto.packing` the request carries ``k`` cells
per ciphertext (``k ≈ 12`` at the paper's 2048-bit key with 64-bit
blinding), dividing exactly those costs by ``k``:

* the SU packs each channel row of ``F`` into ``⌈B'/k⌉`` chunks and
  encrypts one ciphertext per chunk;
* the SDC evaluates eqs. (10)-(12) *slot-parallel*: one small-scalar
  multiplication applies ``Δ_SINR + Δ_redn`` to every slot at once, the
  public ``E`` terms arrive as one packed plaintext addition, and PU
  contributions are shifted into their slot (``2^{iW} ⊗ W̃``);
* blinding (eq. (14)) uses one shared ``α`` per chunk and independent
  per-slot ``β_i``, applied as a single packed plaintext addition — all
  executed as ``F^{−Δα} · Π W^{2^{iW}·α} · g^{α·E + bias}``, the same
  residue as the chain, one exponentiation per chunk and PU slot;
* the STP decrypts one ciphertext per chunk, extracts ``k`` signs, and
  returns them as one packed ciphertext under the SU's key (the
  baseline's converter, with its own opening and slot encoding);
* eq. (16)/(17) work on packed 0/−2 gadget slots: the homomorphic *sum
  of chunks* is the zero plaintext exactly when every slot of every
  chunk grants, so the license perturbation needs no unpacking.

Privacy trade-off (stated honestly)
-----------------------------------
The per-cell sign coin ``ε`` of eq. (14) cannot be applied per slot —
a scalar multiplies all slots alike, and a whole-chunk flip is visible
to the STP (the packed total's sign reveals it).  Packed mode therefore
**does** let the STP see the per-slot sign pattern of each chunk.  Two
mitigations are built in:

1. the SDC shuffles chunk order with a secret permutation, so the STP
   cannot map a chunk to (channel, block) coordinates; and
2. the SDC injects *dummy chunks* with uniformly random slot signs,
   diluting the violation counts the STP could tally.

What the STP learns is thus an anonymised, dummy-diluted multiset of
k-slot sign patterns — strictly more than the baseline's nothing, in
exchange for a ``k``x cost cut.  Deployments choose per SU; the
baseline protocol remains the default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.packing import SlotLayout
from repro.crypto.paillier import (
    EncryptedNumber,
    PaillierPublicKey,
    generate_keypair,
    hom_sum,
)
from repro.crypto.parallel import Executor, default_executor
from repro.crypto.rand import RandomSource
from repro.crypto.serialization import encode_bytes, encode_ciphertext, encode_int
from repro.errors import ProtocolError
from repro.pisa.blinding import indicator_bound_for
from repro.pisa.kernel import BlockKernel, CellTable, require_key
from repro.pisa.keys import KeyDirectory
from repro.pisa.license import TransmissionLicense
from repro.pisa.messages import LicenseResponse, PUUpdateMessage
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.sdc_server import SdcFront
from repro.pisa.stp_server import StpServer
from repro.pisa.su_client import SUClient
from repro.watch.environment import SpectrumEnvironment

__all__ = [
    "slot_layout",
    "PackedRequestMessage",
    "PackedSignExtractionRequest",
    "PackedSignExtractionResponse",
    "PackedSuClient",
    "PackedSdcServer",
    "PackedStpServer",
]


# Packed-mode parameters, part of the public protocol spec.  ALPHA_BITS
# is deliberately smaller than the baseline's 100 — slot width is
# ``indicator_bits + ALPHA_BITS + HEADROOM_BITS`` and every bit of α
# costs slot capacity.  DUMMY_FRACTION is the ratio of dummy chunks
# injected per request for count dilution.
ALPHA_BITS = 64
HEADROOM_BITS = 4
DUMMY_FRACTION = 0.25


def slot_layout(
    public_key: PaillierPublicKey, environment: SpectrumEnvironment
) -> SlotLayout:
    """The slot geometry every party derives identically."""
    return SlotLayout.for_key(
        public_key,
        value_bits=indicator_bound_for(environment.params).bit_length() + 1,
        scale_bits=ALPHA_BITS,
        headroom_bits=HEADROOM_BITS,
    )


# -- messages ---------------------------------------------------------------


def _encode_chunk_list(chunks) -> bytes:
    parts = [encode_int(len(chunks))]
    parts.extend(encode_ciphertext(ct) for ct in chunks)
    return b"".join(parts)


@dataclass(frozen=True)
class PackedRequestMessage:
    """SU → SDC: ``C`` rows of packed ``F`` chunks."""

    su_id: str
    region_blocks: tuple[int, ...]
    rows: tuple[tuple[EncryptedNumber, ...], ...]  # C × ⌈B'/k⌉

    def to_bytes(self) -> bytes:
        parts = [encode_bytes(self.su_id.encode("utf-8")),
                 encode_int(len(self.region_blocks))]
        parts.extend(encode_int(b) for b in self.region_blocks)
        parts.append(encode_int(len(self.rows)))
        parts.extend(_encode_chunk_list(row) for row in self.rows)
        return b"".join(parts)

    def wire_size(self) -> int:
        return len(self.to_bytes())

    def digest_bytes(self) -> bytes:
        return self.to_bytes()


@dataclass(frozen=True)
class PackedSignExtractionRequest:
    """SDC → STP: shuffled, dummy-diluted packed blinded chunks."""

    round_id: str
    su_id: str
    chunks: tuple[EncryptedNumber, ...]

    def to_bytes(self) -> bytes:
        return b"".join([
            encode_bytes(self.round_id.encode("utf-8")),
            encode_bytes(self.su_id.encode("utf-8")),
            _encode_chunk_list(self.chunks),
        ])

    def wire_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class PackedSignExtractionResponse:
    """STP → SDC: packed ``X_i + 1`` slots under the SU's key."""

    round_id: str
    su_id: str
    chunks: tuple[EncryptedNumber, ...]

    def to_bytes(self) -> bytes:
        return b"".join([
            encode_bytes(self.round_id.encode("utf-8")),
            encode_bytes(self.su_id.encode("utf-8")),
            _encode_chunk_list(self.chunks),
        ])

    def wire_size(self) -> int:
        return len(self.to_bytes())


# -- SU client -----------------------------------------------------------------


class PackedSuClient(SUClient):
    """The baseline SU client with packed request preparation.

    Key handling and response processing (decrypt ``G̃``, verify the
    signature) are inherited unchanged.
    """

    def __init__(
        self,
        su,
        environment: SpectrumEnvironment,
        group_public_key: PaillierPublicKey,
        keypair,
        region=None,
        rng: RandomSource | None = None,
    ) -> None:
        super().__init__(
            su, environment, group_public_key, keypair, region=region, rng=rng
        )
        self.layout = slot_layout(group_public_key, environment)

    def prepare_request(self) -> PackedRequestMessage:
        """Eq. (5), packed: one encryption per k-cell chunk, its obfuscator
        from the pool as in :meth:`SUClient.prepare_request`."""
        from repro.watch.matrices import su_request_matrix

        env = self.environment
        f_matrix = su_request_matrix(
            self.su,
            env.grid,
            env.params,
            pathloss_for_channel=lambda c: env.su_pathloss_for(self.su, c),
            exclusion_distance_for_channel=env.exclusion_distance,
            region=self.region,
        )
        blocks = tuple(self.region.sorted_indices())
        self._obfuscators.ensure(self._ciphertexts_per_request())
        rows = []
        for c in range(env.num_channels):
            values = [int(f_matrix[c, b]) for b in blocks]
            chunks = tuple(
                self.group_public_key.encrypt_with_obfuscator(
                    self.layout.pack(chunk), self._obfuscators.take()
                )
                for chunk in self.layout.chunks(values)
            )
            rows.append(chunks)
        self._cached_request = PackedRequestMessage(
            su_id=self.su.su_id, region_blocks=blocks, rows=tuple(rows)
        )
        return self._cached_request

    def _ciphertexts_per_request(self) -> int:
        """Ciphertexts in one packed request: every channel × the region's chunks."""
        return self.environment.num_channels * self.layout.chunk_count(len(self.region))

    def refresh_request(self) -> PackedRequestMessage:
        """Re-randomise the cached packed request (one multiply per chunk).

        Packing makes this even cheaper than the baseline fast path:
        the §VI-A refresh touches ⌈B'/k⌉ chunks instead of B' cells.
        """
        if self._cached_request is None:
            raise ProtocolError("no cached request; call prepare_request first")
        self._obfuscators.ensure(self._ciphertexts_per_request())
        refreshed = tuple(
            tuple(ct.rerandomize_with(self._obfuscators.take()) for ct in row)
            for row in self._cached_request.rows
        )
        self._cached_request = PackedRequestMessage(
            su_id=self._cached_request.su_id,
            region_blocks=self._cached_request.region_blocks,
            rows=refreshed,
        )
        return self._cached_request


# -- SDC ------------------------------------------------------------------------


@dataclass
class _PendingPackedRound:
    round_id: str
    su_id: str
    #: Positions of the real chunks inside the shuffled message.
    real_positions: tuple[int, ...]
    #: Per real chunk: number of used slots.
    used_slots: tuple[int, ...]
    request_digest: bytes
    channels: tuple[int, ...]


class PackedSdcServer(SdcFront):
    """The SDC's packed-mode engine.

    The shared request front's validation, pending rounds and license
    issuance, and the shared block kernel's PU state; only SU request
    processing differs — it is slot-parallel, with one shared ``α`` per
    chunk, no ``ε``, and dummy chunks plus a shuffle in its place.
    """

    def __init__(
        self,
        environment: SpectrumEnvironment,
        directory: KeyDirectory,
        signer,
        issuer_id: str = "sdc",
        rng: RandomSource | None = None,
        clock=None,
        executor: Executor | None = None,
    ) -> None:
        import time

        super().__init__(
            environment, directory, signer, issuer_id=issuer_id, rng=rng,
            clock=clock or time.time,
        )
        self._executor = default_executor(executor)
        self.layout = slot_layout(directory.group_public_key, environment)
        self.kernel = BlockKernel(CellTable.of(environment), directory.group_public_key)
        self.chunks_processed = 0

    def handle_pu_update(self, message: PUUpdateMessage) -> None:
        self.kernel.fold_pu_update(message)

    # -- packed request processing -------------------------------------------

    def _draw_chunk_blinding(self, blocks: list[int]) -> tuple[int, int]:
        """Eq. (14), packed: shared α per chunk plus per-slot bias terms.

        Returns ``(alpha, packed_bias)``; the half-slot bias keeps every
        final slot non-negative.
        """
        layout = self.layout
        alpha = self._rng.randrange(1 << (ALPHA_BITS - 1), 1 << ALPHA_BITS)
        bias_terms = [
            layout.half_slot - self._rng.randrange(1, 1 << (ALPHA_BITS - 1))
            for _ in blocks
        ]
        return alpha, layout.pack(bias_terms)

    def _draw_dummy_chunk(self) -> tuple[int, int]:
        """Random slots + encryption nonce for one dummy chunk."""
        packed = self.layout.pack([
            self._rng.randbelow(self.layout.slot_modulus)
            for _ in range(self.layout.num_slots)
        ])
        return packed, self.group_public_key.random_nonce(self._rng)

    def start_request(
        self, request: PackedRequestMessage, span=None
    ) -> PackedSignExtractionRequest:
        cells = self.kernel.cells
        if span is not None:
            span.set_attribute("blocks", len(request.region_blocks))
        self._check_request(request.su_id, request.region_blocks, request.rows)
        layout = self.layout
        block_chunks = layout.chunks(list(request.region_blocks))
        for row in request.rows:
            if len(row) != len(block_chunks):
                raise ProtocolError("row chunk count does not match the region")
        pk = self.group_public_key
        delta = cells.delta
        # Pass 1: all randomness in chunk order (so results are
        # byte-identical whichever executor runs pass 2), and each chunk's
        # eqs. (10)-(14) in closed form, F^{−Δα} · Π W^{2^{iW}·α} ·
        # g^{α·E + bias}: its exponentiations as jobs, the rest as
        # (PU factors, plaintext) to finish with.
        jobs, finishes, used_slots = [], [], []
        for c, row in enumerate(request.rows):
            for f_chunk, blocks in zip(row, block_chunks):
                alpha, packed_bias = self._draw_chunk_blinding(blocks)
                pu_jobs = [
                    (w_ct.ciphertext, layout.shift(slot) * alpha, pk.n_sq)
                    for slot, block in enumerate(blocks)
                    if (w_ct := self.kernel.cell(c, block)) is not None
                ]
                jobs += [(f_chunk.ciphertext, -delta * alpha, pk.n_sq), *pu_jobs]
                e_packed = layout.pack([cells.e[c][b] for b in blocks])
                finishes.append((len(pu_jobs), alpha * e_packed + packed_bias))
                used_slots.append(len(blocks))
        self.chunks_processed += len(finishes)
        num_dummies = max(1, int(len(finishes) * DUMMY_FRACTION))
        dummy_draws = [self._draw_dummy_chunk() for _ in range(num_dummies)]
        # Pass 2: one batch with the dummy obfuscators.
        jobs.extend(pk.obfuscator_job(s) for _, s in dummy_draws)
        powers = iter(self._executor.pow_many(jobs))
        real_chunks = []
        for pu_factors, plain in finishes:
            product = next(powers)
            for _ in range(pu_factors):
                product = product * next(powers) % pk.n_sq
            real_chunks.append(EncryptedNumber(pk, product).add_plain(plain))
        dummies = [
            pk.encrypt_with_obfuscator(packed, next(powers))
            for (packed, _) in dummy_draws
        ]
        # Dummy dilution + secret shuffle.
        total = len(real_chunks) + num_dummies
        positions = list(range(total))
        self._shuffle(positions)
        shuffled: list[EncryptedNumber | None] = [None] * total
        real_positions = positions[: len(real_chunks)]
        for chunk, position in zip(real_chunks, real_positions):
            shuffled[position] = chunk
        for dummy, position in zip(dummies, positions[len(real_chunks):]):
            shuffled[position] = dummy
        round_id = f"packed-round-{next(self._round_counter)}"
        self._pending[round_id] = _PendingPackedRound(
            round_id=round_id,
            su_id=request.su_id,
            real_positions=tuple(real_positions),
            used_slots=tuple(used_slots),
            request_digest=TransmissionLicense.digest_of(request.digest_bytes()),
            channels=tuple(range(cells.num_channels)),
        )
        return PackedSignExtractionRequest(
            round_id=round_id, su_id=request.su_id, chunks=tuple(shuffled)
        )

    def finish_request(
        self, response: PackedSignExtractionResponse, span=None
    ) -> LicenseResponse:
        pending, su_key = self._claim_round(response.round_id, response.su_id)
        require_key(response.chunks, su_key, "converted chunk")
        if len(response.chunks) <= max(pending.real_positions, default=0):
            raise ProtocolError("response chunk count mismatch")
        del self._pending[response.round_id]
        # ΣQ̃ over the chunks: slots (X_i + 1) − 2 = X_i − 1 ∈ {0, −2} on used
        # slots, the −2s added once to the sum (the same residue as per chunk).
        twos = sum(self.layout.pack([2] * used) for used in pending.used_slots)
        q_sum = hom_sum(response.chunks[p] for p in pending.real_positions).add_plain(-twos)
        sig_s = su_key.random_nonce(self._rng)
        eta = self._rng.randrange(1 << 63, 1 << 64)
        return self._issue_license(pending, su_key, q_sum, sig_s, eta, int(self._clock()))

    def _shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self._rng.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


# -- STP --------------------------------------------------------------------------


class PackedStpServer(StpServer):
    """The STP's packed conversion: one decrypt + one encrypt per chunk.

    The baseline STP's converter; what differs is the message shape (a
    flat chunk list), that a ciphertext opens to ``k`` slots, and how
    their signs go back.  The slots span ``n``, so a chunk opens with
    both CRT halves and the CRT combine, not the baseline's one half.
    """

    def __init__(
        self,
        group_keypair,
        environment: SpectrumEnvironment,
        rng: RandomSource | None = None,
        executor: Executor | None = None,
    ) -> None:
        super().__init__(
            group_keypair=group_keypair,
            rng=rng,
            executor=executor,
            indicator_bound=indicator_bound_for(environment.params),
        )
        self.layout = slot_layout(group_keypair.public_key, environment)

    def handle_sign_extraction(
        self, request: PackedSignExtractionRequest, span=None
    ) -> PackedSignExtractionResponse:
        if span is not None:
            span.set_attribute("chunks", len(request.chunks))
        return PackedSignExtractionResponse(
            round_id=request.round_id,
            su_id=request.su_id,
            chunks=tuple(self._convert(request, request.chunks)),
        )

    def _open_jobs(self, ciphertext: int):
        return self._keypair.private_key.decrypt_pow_jobs(ciphertext)

    def _open(self, request, powers: list[int]):
        layout, sk = self.layout, self._keypair.private_key
        halves = iter(powers)
        return [
            [
                slot - layout.half_slot
                for slot in layout.unpack(sk.raw_decrypt_from_pows(pow_p, pow_q))
            ]
            for pow_p, pow_q in zip(halves, halves)
        ]

    def _encode(self, signs: list[int]) -> int:
        # Stored as X_i + 1 ∈ {0, 2} to keep the packed plaintext
        # non-negative.
        return self.layout.pack([sign + 1 for sign in signs])


class PackedCoordinator(PisaCoordinator):
    """Deploys and drives packed-mode PISA end to end.

    A :class:`repro.pisa.protocol.PisaCoordinator` whose build hooks
    supply the packed STP, SDC and SU client; enrolment and the round
    driver are the baseline's.
    """

    def __init__(
        self,
        environment: SpectrumEnvironment,
        key_bits: int = 2048,
        rng: RandomSource | None = None,
        transport=None,
        executor: Executor | None = None,
        clock=None,
    ) -> None:
        self._clock = clock
        super().__init__(
            environment,
            key_bits=key_bits,
            rng=rng,
            transport=transport,
            executor=executor,
        )

    def _build_stp(self, key_bits: int, executor) -> PackedStpServer:
        return PackedStpServer(
            generate_keypair(key_bits, rng=self._rng),
            self.environment,
            rng=self._rng,
            executor=executor,
        )

    def _build_sdc(self, signer, executor) -> PackedSdcServer:
        return PackedSdcServer(
            self.environment,
            directory=self.stp.directory,
            signer=signer,
            rng=self._rng,
            clock=self._clock,
            executor=executor,
        )

    def _build_su_client(self, su, keypair, region) -> PackedSuClient:
        return PackedSuClient(
            su,
            self.environment,
            self.stp.group_public_key,
            keypair,
            region=region,
            rng=self._rng,
        )

    @property
    def layout(self) -> SlotLayout:
        return self.sdc.layout


__all__.append("PackedCoordinator")
