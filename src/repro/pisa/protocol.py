"""End-to-end PISA protocol orchestration.

:class:`PisaCoordinator` wires the four parties (PU clients, SU clients,
the SDC, and the STP) over an accounted transport and runs complete
rounds of Figures 4 and 5.  It is a *test harness and evaluation
driver* — in a deployment the parties are separate processes; here the
message objects flow through :class:`~repro.net.transport.InMemoryTransport`
so every byte is accounted exactly as it would appear on the wire.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from repro.analysis.overhead import leg_bytes
from repro.crypto.paillier import PaillierKeypair, generate_keypair
from repro.crypto.rand import DeterministicRandomSource, RandomSource, default_rng
from repro.crypto.signatures import RsaFdhSigner, generate_rsa_keypair
from repro.geo.region import PrivacyRegion
from repro.net.transport import InMemoryTransport
from repro.pisa.blinding import indicator_bound_for
from repro.pisa.pu_client import PUClient
from repro.pisa.sdc_server import SdcServer
from repro.pisa.stp_server import StpServer
from repro.pisa.su_client import RequestOutcome, SUClient
from repro.service.batching import SDC_ENDPOINT, BatchAllocator, Epoch
from repro.telemetry import Tracer
from repro.watch.entities import PUReceiver, SUTransmitter
from repro.watch.environment import SpectrumEnvironment

__all__ = ["PisaCoordinator", "RoundReport", "RoundTimings", "small_demo"]


@dataclass(frozen=True)
class RoundTimings:
    """Wall-clock phase timings (seconds) of one request round."""

    request_preparation: float
    sdc_phase1: float
    stp_conversion: float
    sdc_phase2: float
    su_decryption: float

    @property
    def sdc_processing(self) -> float:
        """SDC-side total — the paper's "processing this request" time."""
        return self.sdc_phase1 + self.sdc_phase2

    @property
    def total(self) -> float:
        return (
            self.request_preparation
            + self.sdc_phase1
            + self.stp_conversion
            + self.sdc_phase2
            + self.su_decryption
        )


@dataclass(frozen=True)
class RoundReport:
    """Outcome and cost accounting of one complete request round."""

    su_id: str
    granted: bool
    outcome: RequestOutcome
    timings: RoundTimings
    request_bytes: int
    sign_extraction_bytes: int
    conversion_bytes: int
    response_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.request_bytes
            + self.sign_extraction_bytes
            + self.conversion_bytes
            + self.response_bytes
        )


class PisaCoordinator:
    """Builds and drives a complete PISA deployment.

    Every protocol variant deploys through this class: the variants'
    coordinators subclass it and override only the build hooks
    (:meth:`_build_stp`, :meth:`_build_sdc`, :meth:`_build_su_client`).
    Whatever they build answers ``start_request`` / ``finish_request``
    at the SDC and ``handle_sign_extraction`` at the conversion server,
    so enrolment is defined here once, and a Figure 5 round is the
    broker's own pass: :meth:`run_request_round` runs the
    :class:`~repro.service.batching.BatchAllocator` wired by
    ``for_coordinator`` over a one-request epoch.

    Parameters
    ----------
    environment:
        The shared public substrate.
    key_bits:
        Paillier modulus size for the group key and every SU key.  The
        paper uses 2048; tests use small keys for speed.  The license
        signing key is an RSA modulus of ``max(32, key_bits // 2)`` bits,
        so signatures fit SU plaintext spaces.
    rng:
        Randomness source (pass a DRBG for reproducible runs).
    """

    def __init__(
        self,
        environment: SpectrumEnvironment,
        key_bits: int = 2048,
        rng: RandomSource | None = None,
        transport: InMemoryTransport | None = None,
        executor=None,
    ) -> None:
        self.environment = environment
        self.key_bits = key_bits
        self._rng = default_rng(rng)
        self.transport = transport if transport is not None else InMemoryTransport()
        # Draw order is part of the transcript contract: the group key
        # first, then the signing key; nothing after that draws.
        self.stp = self._build_stp(key_bits, executor)
        _, signing_private = generate_rsa_keypair(
            max(32, key_bits // 2), rng=self._rng
        )
        self.sdc = self._build_sdc(RsaFdhSigner(signing_private), executor)
        self._pu_clients: dict[str, PUClient] = {}
        self._su_clients: dict = {}
        self._allocator = BatchAllocator.for_coordinator(self)
        self._epoch_ids = itertools.count()

    # -- build hooks -----------------------------------------------------------------

    def _build_stp(self, key_bits: int, executor):
        """The conversion server; draws the group keypair."""
        return StpServer(
            key_bits=key_bits,
            rng=self._rng,
            executor=executor,
            indicator_bound=indicator_bound_for(self.environment.params),
        )

    def _build_sdc(self, signer: RsaFdhSigner, executor):
        return SdcServer(
            self.environment,
            directory=self.stp.directory,
            signer=signer,
            rng=self._rng,
            executor=executor,
        )

    def _build_su_client(self, su: SUTransmitter, keypair: PaillierKeypair, region):
        return SUClient(
            su,
            self.environment,
            self.stp.group_public_key,
            keypair,
            region=region,
            rng=self._rng,
        )

    # -- enrolment -----------------------------------------------------------------

    def enroll_pu(self, pu: PUReceiver) -> PUClient:
        """Create a PU client and send its initial encrypted update."""
        client = PUClient(
            pu, self.environment, self.stp.group_public_key, rng=self._rng
        )
        self._pu_clients[pu.receiver_id] = client
        update = client.build_update()
        self.transport.send(update, sender=pu.receiver_id, receiver=SDC_ENDPOINT)
        self.sdc.handle_pu_update(update)
        return client

    def enroll_su(
        self,
        su: SUTransmitter,
        region: PrivacyRegion | None = None,
        keypair: PaillierKeypair | None = None,
    ) -> SUClient:
        """Create an SU client, generate/register its personal key pair."""
        keypair = keypair or generate_keypair(self.key_bits, rng=self._rng)
        client = self._build_su_client(su, keypair, region)
        self.stp.register_su(su.su_id, client.public_key)
        self._su_clients[su.su_id] = client
        return client

    def pu_client(self, pu_id: str) -> PUClient:
        return self._pu_clients[pu_id]

    def su_client(self, su_id: str):
        return self._su_clients[su_id]

    # -- protocol rounds ------------------------------------------------------------

    def pu_switch_channel(
        self, pu_id: str, channel_slot: int | None, signal_strength_mw: float = 0.0
    ) -> bool:
        """Run Figure 4 for a channel switch; returns True if an update flowed."""
        client = self._pu_clients[pu_id]
        update = client.switch_channel(channel_slot, signal_strength_mw)
        if update is None:
            return False
        self.transport.send(update, sender=pu_id, receiver=SDC_ENDPOINT)
        self.sdc.handle_pu_update(update)
        return True

    def run_request_round(
        self, su_id: str, reuse_cached_request: bool = False
    ) -> RoundReport:
        """Run Figure 5 end to end for one SU and report outcome + costs.

        ``reuse_cached_request=True`` exercises the §VI-A fast path: the
        cached encrypted request is re-randomised instead of rebuilt.
        The round is one epoch of the broker's allocator, so a failed
        round leaves no pending round and a cluster commits its epoch.
        Phase timings are read off the allocator's spans (a local
        tracer with its own RNG), bytes off the transport.
        """
        client = self._su_clients[su_id]
        t0 = time.perf_counter()
        if reuse_cached_request:
            request = client.refresh_request()
        else:
            request = client.prepare_request()
        preparation = time.perf_counter() - t0

        before = self.transport.by_kind()
        root = Tracer().start_span("round")
        epoch = Epoch(next(self._epoch_ids), t0, t0, [(su_id, request)])
        [result] = self._allocator.allocate(epoch, spans=[root])
        phase = {span.name: span.duration_s for span in root.children}
        legs = leg_bytes(self.transport.by_kind(), since=before)
        return RoundReport(
            su_id=su_id,
            granted=result.granted,
            outcome=result.outcome,
            timings=RoundTimings(
                request_preparation=preparation,
                sdc_phase1=phase["phase1"],
                stp_conversion=phase["stp"],
                sdc_phase2=phase["phase2"],
                su_decryption=phase["license"],
            ),
            request_bytes=legs["request_bytes"],
            sign_extraction_bytes=legs["sign_extraction_bytes"],
            conversion_bytes=legs["conversion_bytes"],
            response_bytes=legs["response_bytes"],
        )


def small_demo(seed: int = 0) -> RoundReport:
    """A complete tiny PISA round — the library's quickstart entry point.

    Builds a 4x6-block scenario, enrols its PUs and one SU with small
    (insecure, fast) keys, and runs one request round.
    """
    from repro.watch.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(seed=seed))
    rng = DeterministicRandomSource(seed)
    coordinator = PisaCoordinator(scenario.environment, key_bits=256, rng=rng)
    for pu in scenario.pus:
        coordinator.enroll_pu(pu)
    su = scenario.sus[0]
    coordinator.enroll_su(su)
    return coordinator.run_request_round(su.su_id)
