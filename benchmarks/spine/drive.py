"""The bench's own closed loop over ``SpectrumAccessBroker.submit_request``.

A caller refreshes its SU's cached request, submits it, waits for the
decision, and only then starts its next cycle: a slow system receives
less load, and what is measured is service time, never queueing behind
an arrival schedule.  Every decision is compared with the plaintext
oracle and every grant's license is verified again by the bench.

The host this runs on changes speed by 10-20 % from one minute to the
next (a shared 2-vCPU VM), far more than the bounds the metrics carry.
So between rounds the loop times a fixed *reference slice* of arithmetic
and every round's times are scaled to a reference host speed by the
slices measured on either side of it.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.crypto.signatures import RsaFdhVerifier
from repro.telemetry import parse_labelled

from workloads import Deployment, Oracle, Workload, su_order, switch_stream

now = time.perf_counter

#: The reference slice: 20 modexps on fixed 1024-bit operands, builtin
#: ``pow`` only, so no change to ``repro`` can make it faster or slower.
_SLICE_JOB = ((1 << 1023) + 12345, (1 << 511) + 777, (1 << 1024) - 159)
#: What one slice takes on the box the bounds were set on when it is
#: quiet; times are reported as if every slice took this long.
REFERENCE_SLICE_S = 0.035


def reference_slices(count: int = 3) -> list[float]:
    slices = []
    for _ in range(count):
        start = now()
        for _ in range(20):
            pow(*_SLICE_JOB)
        slices.append(now() - start)
    return slices


def host_factor(slices: list[float]) -> float:
    """What to multiply a time measured beside ``slices`` by."""
    return REFERENCE_SLICE_S / statistics.median(slices)


@dataclass
class Sample:
    """One SU cycle: what was expected, what came back, how long it took."""

    su_id: str
    expected_grant: bool
    status: str  # granted | denied | rejected
    license_valid: bool
    latency_s: float  # the broker's submit -> decision, as measured
    cycle_s: float  # refresh + submit -> verified outcome, as measured
    #: scales the two to the reference host speed; set when the round ends
    host_factor: float = 1.0

    @property
    def granted(self) -> bool:
        return self.status == "granted"

    @property
    def ok(self) -> bool:
        return (
            self.status in ("granted", "denied")
            and self.granted == self.expected_grant
            and (self.license_valid or not self.granted)
        )


@dataclass
class Window:
    #: time inside rounds (the reference slices between them excluded),
    #: as measured and at the reference host speed
    wall_s: float
    reference_wall_s: float
    samples: list
    #: registry counter deltas over the window
    counters: dict


def counters(deployment: Deployment) -> dict:
    return dict(deployment.metrics.snapshot()["counters"])


def family(counter_values: dict, name: str) -> list[tuple[dict, float]]:
    """``(labels, value)`` of every series of one counter family."""
    series = []
    for key, value in counter_values.items():
        series_name, labels = parse_labelled(key)
        if series_name == name:
            series.append((labels, value))
    return series


def family_total(counter_values: dict, name: str) -> float:
    return sum(value for _, value in family(counter_values, name))


class ClosedLoop:
    def __init__(self, workload: Workload, deployment: Deployment, seed: int,
                 probes=None) -> None:
        self.workload = workload
        self.deployment = deployment
        self.probes = probes
        self.oracle = Oracle(deployment.scenario)
        self.switches = switch_stream(deployment.scenario, seed)
        order = su_order(deployment.scenario)
        self._cursors = [
            itertools.cycle(order[k :: workload.clients])
            for k in range(workload.clients)
        ]
        self._directory = deployment.coordinator.stp.directory
        self._serial = itertools.count()

    async def round(self) -> tuple[float, list[Sample]]:
        """One cycle of every caller, concurrently; wall time and samples."""
        start = now()
        samples = await asyncio.gather(
            *(self._cycle(next(cursor)) for cursor in self._cursors)
        )
        return now() - start, samples

    async def window(self, seconds: float) -> Window:
        """Rounds until ``seconds`` have passed, a reference slice between them."""
        before = counters(self.deployment)
        window = Window(0.0, 0.0, [], {})
        end = now() + seconds
        slices = reference_slices()
        while True:
            wall, samples = await self.round()
            # A tenth of the round's length: a 5 s round needs more slices
            # than a 1 s one for its factor to be as good as its own time.
            slices_after = reference_slices(
                max(3, int(wall / (10 * REFERENCE_SLICE_S)))
            )
            factor = host_factor(slices + slices_after)
            slices = slices_after
            for sample in samples:
                sample.host_factor = factor
            window.wall_s += wall
            window.reference_wall_s += wall * factor
            window.samples += samples
            if now() >= end:
                break
        after = counters(self.deployment)
        window.counters = {k: v - before.get(k, 0) for k, v in after.items()}
        return window

    def _tracing(self) -> bool:
        return self.probes is not None and self.probes.enabled

    def _span(self, name, subject, **kwargs):
        if self._tracing():
            return self.probes.span(name, subject, **kwargs)
        return nullcontext()

    async def _cycle(self, su_id: str) -> Sample:
        deployment = self.deployment
        expected = self.oracle.granted(su_id)
        client = deployment.su_clients[su_id]
        with self._span("request", su_id, request=f"{su_id}#{next(self._serial)}"):
            t0 = now()
            request = client.refresh_request()
            with self._span("broker.submit", su_id):
                decision = await deployment.broker.submit_request(su_id, request)
            cycle_s = now() - t0
        valid = False
        if decision.status == "granted":
            outcome = decision.outcome
            verifier = RsaFdhVerifier(
                self._directory.signing_key(outcome.license.issuer_id)
            )
            valid = outcome.license.su_id == su_id and outcome.license.verify(
                verifier, outcome.decrypted_value
            )
        if self.workload.churn:
            for _ in range(self.workload.churn):
                self._switch_pu()
            # A PU is its own device: its update is applied now, not behind
            # this caller's next refresh (which would hold the event loop).
            applied = deployment.metrics.counter("pu_updates_applied")
            submitted = deployment.metrics.counter("pu_updates_submitted")
            while applied.snapshot() < submitted.snapshot():
                await asyncio.sleep(0.0005)  # a real sleep: spinning holds the GIL
        return Sample(
            su_id=su_id,
            expected_grant=expected,
            status=decision.status,
            license_valid=valid,
            latency_s=decision.latency_s,
            cycle_s=cycle_s,
        )

    def _switch_pu(self) -> None:
        """One seeded physical switch, mirrored into the oracle."""
        index, slot, signal_mw = next(self.switches)
        pu = self.deployment.pu_clients[index]
        if self._tracing():
            probes = self.probes
            root = probes.begin(
                "pu.switch", request=f"{pu.pu.receiver_id}#{next(self._serial)}"
            )
            with probes.span("pisa.pu_build_update", parent=root):
                update = pu.switch_channel(slot, signal_mw)
            probes.pu_roots[id(update)] = root
        else:
            update = pu.switch_channel(slot, signal_mw)
        # The PU's own send, as ``coordinator.pu_switch_channel`` accounts it.
        self.deployment.coordinator.transport.send(
            update, sender=pu.pu.receiver_id, receiver="sdc"
        )
        self.deployment.broker.submit_pu_update(update)
        self.oracle.switch(index, slot, signal_mw)
