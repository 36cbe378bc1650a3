"""End-to-end PISA protocol orchestration.

:class:`PisaCoordinator` wires the four parties (PU clients, SU clients,
the SDC, and the STP) over an accounted transport and runs complete
rounds of Figures 4 and 5.  It is a *test harness and evaluation
driver* — in a deployment the parties are separate processes; here the
message objects flow through :class:`~repro.net.transport.InMemoryTransport`
so every byte is accounted exactly as it would appear on the wire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    so enrolment and the Figure 5 round driver are defined here once.

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

    #: Transport endpoint names of the SDC and of its conversion peer.
    sdc_endpoint = "sdc"
    stp_endpoint = "stp"

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
        self.transport.send(update, sender=pu.receiver_id, receiver=self.sdc_endpoint)
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
        self.transport.send(update, sender=pu_id, receiver=self.sdc_endpoint)
        self.sdc.handle_pu_update(update)
        return True

    def run_request_round(
        self, su_id: str, reuse_cached_request: bool = False
    ) -> RoundReport:
        """Run Figure 5 end to end for one SU and report outcome + costs.

        ``reuse_cached_request=True`` exercises the §VI-A fast path: the
        cached encrypted request is re-randomised instead of rebuilt.
        """
        client = self._su_clients[su_id]
        sdc_name, stp_name = self.sdc_endpoint, self.stp_endpoint

        t0 = time.perf_counter()
        if reuse_cached_request:
            request = client.refresh_request()
        else:
            request = client.prepare_request()
        t1 = time.perf_counter()
        self.transport.send(request, sender=su_id, receiver=sdc_name)

        sign_request = self.sdc.start_request(request)
        t2 = time.perf_counter()
        self.transport.send(sign_request, sender=sdc_name, receiver=stp_name)

        sign_response = self.stp.handle_sign_extraction(sign_request)
        t3 = time.perf_counter()
        self.transport.send(sign_response, sender=stp_name, receiver=sdc_name)

        response = self.sdc.finish_request(sign_response)
        t4 = time.perf_counter()
        self.transport.send(response, sender=sdc_name, receiver=su_id)

        outcome = client.process_response(response, self.stp.directory)
        t5 = time.perf_counter()

        return RoundReport(
            su_id=su_id,
            granted=outcome.granted,
            outcome=outcome,
            timings=RoundTimings(
                request_preparation=t1 - t0,
                sdc_phase1=t2 - t1,
                stp_conversion=t3 - t2,
                sdc_phase2=t4 - t3,
                su_decryption=t5 - t4,
            ),
            request_bytes=request.wire_size(),
            sign_extraction_bytes=sign_request.wire_size(),
            conversion_bytes=sign_response.wire_size(),
            response_bytes=response.wire_size(),
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
