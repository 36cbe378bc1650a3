"""The §VI-B four-scenario experiment, driven through the real PISA stack.

The paper's testbed: PU (USRP X310) monitoring WiFi channel 6, SU1 and
SU2 (USRP N210) at *different distances* from the PU, and a laptop SDC.
The four scenarios:

1. PU idle; SU1 and SU2 transmit — the PU's monitor shows two packets of
   different amplitudes (Figure 8).
2. PU claims the channel: it updates the SDC, which tells both SUs to
   stop transmitting (Figure 10).
3. Both SUs send PISA transmission requests; the SDC acknowledges
   (Figure 11).
4. The SDC runs the privacy-preserving decision; only the SU whose
   interference stays under the PU's threshold is granted and resumes
   transmitting — in the paper's run, SU2, which then sends ≈11 packets
   in 20 ms (Figure 9).

Everything below scenario scripting is the production code path: the
requests are real encrypted PISA requests and the grant decision comes
out of the homomorphic protocol, not a shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto.rand import DeterministicRandomSource
from repro.geo.grid import BlockGrid
from repro.pisa.protocol import PisaCoordinator, RoundReport
from repro.radio.antenna import Antenna
from repro.sdr.devices import USRP_N210, USRP_X310, RadioMedium, SimulatedUSRP
from repro.service.batching import SDC_ENDPOINT
from repro.watch.entities import PUReceiver, SUTransmitter
from repro.watch.environment import SpectrumEnvironment
from repro.watch.params import WatchParameters

__all__ = ["SdrTestbed", "ScenarioResult"]

#: Paillier modulus of the lab's SDC/STP pair: the scenarios check
#: decisions and air-time, not key strength, so 256 bits keeps them fast.
TESTBED_KEY_BITS = 256


@dataclass
class ScenarioResult:
    """Outcome of one scenario step."""

    name: str
    events: list[str]
    traces: dict[str, np.ndarray] = field(default_factory=dict)
    reports: dict[str, RoundReport] = field(default_factory=dict)


class SdrTestbed:
    """The simulated lab: one PU, two SUs, an SDC+STP pair, one channel.

    Geometry (defaults): a 100 m × 100 m lab area in 10 m blocks; the PU
    sits at (15, 15) m, SU1 adjacent at (25, 15) m — close enough that
    its interference breaks the PU's budget — and SU2 at (95, 85) m,
    far enough to be granted.  SU distances to the PU differ by design,
    producing Figure 8's two amplitudes.
    """

    #: Channel slot playing the role of "WiFi channel 6" in the plan.
    CHANNEL = 0

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        grid = BlockGrid(rows=10, cols=10, block_size_m=10.0)
        params = WatchParameters(num_channels=2)
        # No TV towers: the PU reports its own measured signal strength,
        # exactly like the testbed's monitoring-based setup.
        self.environment = SpectrumEnvironment(grid, params, transmitters=())
        self.medium = RadioMedium()
        self.pu_device = SimulatedUSRP("pu", USRP_X310, x_m=15.0, y_m=15.0)
        self.su1_device = SimulatedUSRP("su1", USRP_N210, x_m=25.0, y_m=15.0,
                                        tx_power_dbm=16.0)
        self.su2_device = SimulatedUSRP("su2", USRP_N210, x_m=95.0, y_m=85.0,
                                        tx_power_dbm=10.0)
        for device in (self.pu_device, self.su1_device, self.su2_device):
            self.medium.register(device)

        rng = DeterministicRandomSource(seed)
        self.coordinator = PisaCoordinator(self.environment, key_bits=TESTBED_KEY_BITS, rng=rng)
        #: The PU's measured mean signal strength on the channel (mW);
        #: ≈ −50 dBm, a strong near-field reception.
        self.pu_signal_mw = 1e-5
        self.pu = PUReceiver(
            receiver_id="pu",
            block_index=grid.block_at(self.pu_device.x_m, self.pu_device.y_m).index,
            channel_slot=None,
        )
        self.su1 = SUTransmitter(
            su_id="su1",
            block_index=grid.block_at(self.su1_device.x_m, self.su1_device.y_m).index,
            tx_power_dbm=self.su1_device.tx_power_dbm,
            antenna=Antenna(gain_dbi=0.0, height_m=1.5),
        )
        self.su2 = SUTransmitter(
            su_id="su2",
            block_index=grid.block_at(self.su2_device.x_m, self.su2_device.y_m).index,
            tx_power_dbm=self.su2_device.tx_power_dbm,
            antenna=Antenna(gain_dbi=0.0, height_m=1.5),
        )
        self.coordinator.enroll_pu(self.pu)
        self.coordinator.enroll_su(self.su1)
        self.coordinator.enroll_su(self.su2)

    # -- scenarios -------------------------------------------------------------

    def scenario_1_sus_transmit(self) -> ScenarioResult:
        """SUs occupy the idle channel; the PU monitors (Figure 8)."""
        events = []
        start = self.medium.clock_s
        self.medium.transmit("su1", duration_s=60e-6)
        self.medium.advance(100e-6)
        self.medium.transmit("su2", duration_s=60e-6)
        events.append("su1 and su2 each sent one packet on channel 6")
        trace = self.pu_device.observe(
            self.medium, window_s=0.35e-3, sample_rate_hz=20e6,
            since_s=start, seed=self.seed,
        )
        return ScenarioResult(
            name="scenario-1", events=events, traces={"pu": trace}
        )

    def scenario_2_pu_claims_channel(self) -> ScenarioResult:
        """PU starts using the channel; the SDC halts the SUs (Figure 10)."""
        events = []
        self.coordinator.pu_switch_channel(
            "pu", self.CHANNEL, signal_strength_mw=self.pu_signal_mw
        )
        events.append("pu sent encrypted channel-reception update to sdc")
        for device in (self.su1_device, self.su2_device):
            device.transmitting_allowed = False
        events.append("sdc requested su1 and su2 to stop transmitting")
        return ScenarioResult(name="scenario-2", events=events)

    def scenario_3_sus_request(self) -> ScenarioResult:
        """Both SUs prepare and send encrypted requests (Figure 11)."""
        events = []
        for su_id in ("su1", "su2"):
            request = self.coordinator.su_client(su_id).prepare_request()
            self.coordinator.transport.send(request, sender=su_id, receiver=SDC_ENDPOINT)
            events.append(
                f"{su_id} sent encrypted request ({request.wire_size()} bytes); "
                "sdc acknowledged"
            )
        return ScenarioResult(name="scenario-3", events=events)

    def scenario_4_decision(self) -> ScenarioResult:
        """The SDC decides privately; the granted SU resumes (Figure 9)."""
        events = []
        reports = {}
        for su_id, device in (("su1", self.su1_device), ("su2", self.su2_device)):
            report = self.coordinator.run_request_round(
                su_id, reuse_cached_request=True
            )
            reports[su_id] = report
            device.transmitting_allowed = report.granted
            events.append(
                f"{su_id}: {'granted' if report.granted else 'denied'} "
                "(learned only by the SU itself)"
            )
        traces = {}
        granted = [s for s, r in reports.items() if r.granted]
        if granted:
            start = self.medium.clock_s
            # The paper's granted SU sends ≈11 packets within 20 ms.
            for k in range(11):
                self.medium.transmit(granted[0], duration_s=60e-6)
                self.medium.advance(1.7e-3)
            traces["pu"] = self.pu_device.observe(
                self.medium, window_s=20e-3, sample_rate_hz=20e6,
                since_s=start, seed=self.seed + 1,
            )
            events.append(f"{granted[0]} sent 11 packets within 20 ms")
        return ScenarioResult(
            name="scenario-4", events=events, traces=traces, reports=reports
        )

    def run_all(self) -> list[ScenarioResult]:
        """Run the four scenarios in order and return their results."""
        return [
            self.scenario_1_sus_transmit(),
            self.scenario_2_pu_claims_channel(),
            self.scenario_3_sus_request(),
            self.scenario_4_decision(),
        ]
