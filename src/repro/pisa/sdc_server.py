"""The Spectrum Database Controller, privacy-preserving edition (§IV-B).

The SDC performs WATCH's entire spectrum computation over ciphertexts.
It is one algorithm in two halves.  The **block kernel**
(:mod:`repro.pisa.kernel`) holds what decomposes over cells and draws
nothing: the encrypted PU aggregate (eqs. (9)-(10)), the blinded
indicators (eqs. (11)-(14)) and the ``Q̃`` gadget sum (eq. (16)).  The
**request front** (:class:`SdcFront`, this module) holds what is
cross-block:

* validation of every SU request and STP response;
* all randomness — per-cell ``(α, β, ε)`` in phase 1 (Figure 5,
  steps 3-5), the signature nonce and ``η`` in phase 2 (steps 9-11) —
  drawn in one fixed order;
* the pending rounds between the two STP phases;
* license issuance: sign, encrypt under the SU's key, perturb with
  ``η ⊗ ΣQ̃`` (eq. (17)) so the result decrypts to a valid signature
  iff every cell's interference budget holds.

:class:`SdcServer` is the front over one in-process kernel that owns
every block; the sharded plane (:mod:`repro.cluster`) is the same front
over a fleet of kernels, so the single SDC is exactly its one-shard case.

The SDC never decrypts anything and never learns the decision.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey
from repro.crypto.parallel import Executor, default_executor
from repro.crypto.rand import RandomSource, default_rng
from repro.crypto.signatures import RsaFdhSigner
from repro.errors import ProtocolError
from repro.pisa.blinding import (
    BlindingFactory,
    BlindingParameters,
    CellBlinding,
    indicator_bound_for,
)
from repro.pisa.kernel import (
    BlockKernel,
    CellTable,
    partial_q_sum,
    require_key,
    require_units,
)
from repro.pisa.keys import KeyDirectory
from repro.pisa.license import TransmissionLicense
from repro.pisa.messages import (
    LicenseResponse,
    PUUpdateMessage,
    SignExtractionRequest,
    SignExtractionResponse,
    SURequestMessage,
)
from repro.watch.environment import SpectrumEnvironment

__all__ = ["SdcFront", "SdcServer", "PendingRound"]


@dataclass
class PendingRound:
    """Per-request state the SDC holds between the two STP phases."""

    round_id: str
    su_id: str
    blindings: tuple[tuple[CellBlinding, ...], ...]
    request_digest: bytes
    channels: tuple[int, ...]


class SdcFront:
    """The request front every SDC deployment shares.

    Owns what is *cross-block*: message validation, every random draw
    (centrally, in cell order), the pending rounds, and license
    issuance.  The block-state arithmetic sits behind two hooks —
    :meth:`handle_pu_update` and :meth:`_blind` — that a subclass points
    at one in-process :class:`~repro.pisa.kernel.BlockKernel`
    (:class:`SdcServer`) or at a shard fleet
    (:class:`repro.cluster.coordinator.ClusterSdc`).  Phase 2 reads no
    block state, so :meth:`_q_sum` runs here for every deployment.  No
    hook draws, so every deployment seeded alike emits the same bytes.
    """

    def __init__(
        self,
        environment: SpectrumEnvironment,
        directory: KeyDirectory,
        signer: RsaFdhSigner,
        issuer_id: str = "sdc",
        rng: RandomSource | None = None,
        clock=time.time,
    ) -> None:
        self.environment = environment
        self.directory = directory
        self.signer = signer
        self.issuer_id = issuer_id
        self._rng = default_rng(rng)
        self._clock = clock
        self._pending: dict[str, PendingRound] = {}
        self._round_counter = itertools.count()
        #: The most recent round's ΣQ̃ — probe point for the cluster
        #: transcript-equivalence tests.
        self.last_q_sum: EncryptedNumber | None = None
        directory.register_signing_key(issuer_id, signer.public_key)

    @property
    def group_public_key(self) -> PaillierPublicKey:
        return self.directory.group_public_key

    def blinding_parameters(self) -> BlindingParameters:
        """Safe α/β widths for this deployment's value range
        (:func:`~repro.pisa.blinding.indicator_bound_for`)."""
        return BlindingParameters.for_key(
            self.group_public_key, indicator_bound_for(self.environment.params)
        )

    # -- the arithmetic seam ---------------------------------------------------------

    def handle_pu_update(self, message: PUUpdateMessage) -> None:
        """Figure 4 step 4: fold a PU's encrypted update into ``W̃'``."""
        raise NotImplementedError

    def _blind(self, round_id, request, blindings, span):
        """The blinded ``Ṽ`` matrix (eqs. (10)-(14)) for ``request``."""
        raise NotImplementedError

    def _q_sum(self, pending, response) -> EncryptedNumber:
        """``ΣQ̃`` (eq. (16)) over every cell of ``response``.

        Needs only ``X̃`` and the ε the front drew itself, so it runs in
        the front on every deployment.
        """
        epsilons = [[cell.epsilon for cell in row] for row in pending.blindings]
        return partial_q_sum(response.matrix, epsilons)

    # -- Figure 5 steps 3-5: request phase 1 ---------------------------------------------

    def _check_request(self, su_id: str, region_blocks, rows) -> None:
        """Reject a malformed SU request before any draw or state change."""
        env = self.environment
        if len(rows) != env.num_channels:
            raise ProtocolError("request must carry one row per channel")
        if not self.directory.has_su_key(su_id):
            raise ProtocolError(f"SU {su_id!r} has no registered key")
        for block in region_blocks:
            if not 0 <= block < env.num_blocks:
                raise ProtocolError(f"disclosed block {block} outside the area")
        require_units((ct for row in rows for ct in row), self.group_public_key, "request entry")

    def start_request(
        self, request: SURequestMessage, span=None
    ) -> SignExtractionRequest:
        """Process an SU request up to the blinded-indicator hand-off.

        ``span`` is an optional :class:`repro.telemetry.Span` annotated
        with operational shape only (block count) — phase boundaries
        never record protocol values, and tracing draws no randomness.
        """
        if span is not None:
            span.set_attribute("blocks", len(request.region_blocks))
        self._check_request(request.su_id, request.region_blocks, request.matrix)
        factory = BlindingFactory(self.blinding_parameters(), rng=self._rng)
        # All randomness, drawn here in cell order (row-major) — the
        # arithmetic behind _blind never touches the RNG, so the
        # transcript cannot depend on the executor or on how the map is
        # partitioned.
        blindings = tuple(
            tuple(factory.draw() for _ in row) for row in request.matrix
        )
        round_id = f"round-{next(self._round_counter)}"
        blinded = self._blind(round_id, request, blindings, span)
        self._pending[round_id] = PendingRound(
            round_id=round_id,
            su_id=request.su_id,
            blindings=blindings,
            request_digest=TransmissionLicense.digest_of(request.digest_bytes()),
            channels=tuple(range(self.environment.num_channels)),
        )
        return SignExtractionRequest(
            round_id=round_id, su_id=request.su_id, matrix=blinded
        )

    # -- Figure 5 steps 9-11: request phase 2 ----------------------------------------------

    def _claim_round(self, round_id: str, su_id: str):
        """The pending round a sign response answers, and its SU's key.

        The round stays pending: the caller validates the rest of the
        response and only then consumes it, so a malformed or spliced
        response cannot destroy a round.
        """
        pending = self._pending.get(round_id)
        if pending is None:
            raise ProtocolError(f"unknown round {round_id!r}")
        if su_id != pending.su_id:
            raise ProtocolError("sign-extraction response for the wrong SU")
        return pending, self.directory.su_key(pending.su_id)

    def _issue_license(
        self, pending, su_key: PaillierPublicKey, q_sum: EncryptedNumber,
        sig_s: int, eta: int, issued_at: int,
    ) -> LicenseResponse:
        """Sign the license and perturb its encrypted signature (eq. (17)).

        ``G̃ = SG̃ ⊕ (η ⊗ ΣQ̃)`` decrypts to the valid signature iff
        ``ΣQ̃`` is zero, i.e. iff every cell's interference budget holds.
        """
        license_body = TransmissionLicense(
            su_id=pending.su_id,
            issuer_id=self.issuer_id,
            request_digest=pending.request_digest,
            channels=pending.channels,
            issued_at=issued_at,
        )
        signature = license_body.sign(self.signer, max_value=su_key.n)
        encrypted_signature = EncryptedNumber(
            su_key, su_key.raw_encrypt(signature, s=sig_s)
        )
        return LicenseResponse(
            license=license_body,
            encrypted_signature=encrypted_signature.add(q_sum.scalar_mul(eta)),
        )

    def finish_request(
        self, response: SignExtractionResponse, span=None
    ) -> LicenseResponse:
        """Unblind the STP's signs and issue the perturbed encrypted license."""
        pending, su_key = self._claim_round(response.round_id, response.su_id)
        if len(response.matrix) != len(pending.blindings):
            raise ProtocolError("sign matrix shape mismatch")
        for x_row, blinding_row in zip(response.matrix, pending.blindings):
            if len(x_row) != len(blinding_row):
                raise ProtocolError("sign matrix shape mismatch")
            require_key(x_row, su_key, "converted sign")
        del self._pending[response.round_id]
        # Every phase-2 random input — signature obfuscator, then η, then
        # the license clock — is drawn before the arithmetic starts, so a
        # journaling subclass can make them durable before the license leaves.
        sig_s = su_key.random_nonce(self._rng)
        eta = BlindingFactory(self.blinding_parameters(), rng=self._rng).draw_eta()
        issued_at = int(self._clock())
        q_sum = self._q_sum(pending, response)
        self.last_q_sum = q_sum
        return self._issue_license(pending, su_key, q_sum, sig_s, eta, issued_at)

    def discard_round(self, round_id: str) -> None:
        """Forget a round phase 2 will never finish, and its blinding.

        A no-op for a round already finished or discarded.
        """
        self._pending.pop(round_id, None)

    @property
    def pending_rounds(self) -> int:
        return len(self._pending)


class SdcServer(SdcFront):
    """The honest-but-curious spectrum controller, in one process.

    The request front over a single kernel that owns every block — the
    one-shard case of the cluster decomposition.
    """

    def __init__(
        self,
        environment: SpectrumEnvironment,
        directory: KeyDirectory,
        signer: RsaFdhSigner,
        issuer_id: str = "sdc",
        rng: RandomSource | None = None,
        clock=time.time,
        executor: Executor | None = None,
    ) -> None:
        super().__init__(
            environment, directory, signer, issuer_id=issuer_id, rng=rng, clock=clock
        )
        self._executor = default_executor(executor)
        self.kernel = BlockKernel(
            CellTable.of(environment), directory.group_public_key, executor=self._executor
        )

    def handle_pu_update(self, message: PUUpdateMessage) -> None:
        self.kernel.fold_pu_update(message)

    def _blind(self, round_id, request, blindings, span):
        cells = self.kernel.phase1_cells(request.region_blocks, request.matrix)
        return self.kernel.blind(cells, blindings)

    @property
    def num_tracked_pus(self) -> int:
        return self.kernel.num_tracked_pus
