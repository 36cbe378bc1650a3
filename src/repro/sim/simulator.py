"""The deployment simulator: queueing + physics + real decisions.

Each protocol phase is a service demand on a single-threaded server
(the SDC or the STP), scheduled through the event queue; message
transfers add link delays.  Grant/deny outcomes are *not*
sampled — each simulated request belongs to a scenario SU and is
decided once by the real plaintext WATCH oracle, so grant ratios track
the actual geometry.

All randomness flows through one seeded
:class:`~repro.crypto.rand.RandomSource` (forked per stream, so event
interleaving never perturbs draws) and all time through the
:class:`~repro.sim.events.EventQueue` — no ambient clocks or
generators, which is what lets the DET/ASY audit rules cover this
package.  A named :class:`~repro.sim.traffic.WorkloadSpec` ("steady",
the paper's homogeneous Poisson model, unless told otherwise) shapes
the arrivals, the PU churn and the SU mobility, drawn by the same
models :func:`~repro.sim.traffic.build_schedule` composes for the
loadtest and the chaos harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ConfigurationError
from repro.sim.costmodel import ServiceCostModel
from repro.sim.events import EventQueue
from repro.sim.traffic import (
    PHYSICAL_SWITCH_FRACTION,
    VIRTUAL_SWITCHES_PER_HOUR,
    PuChurnModel,
    RandomWaypointMobility,
    resolve_workload,
    unit_float,
)
from repro.watch.scenario import Scenario
from repro.watch.sdc import PlaintextSDC

__all__ = ["RequestRecord", "SimulationReport", "DeploymentSimulator"]

#: The link every message crosses: a broadband WAN hop of 20 ms RTT at
#: 100 Mbit/s.  A transfer takes ``LINK_RTT_S / 2 + bytes /
#: LINK_BYTES_PER_S`` (propagation plus serialisation, the first-order
#: model).  The protocol's round trips (SU → SDC → STP → SDC → SU) make
#: these rounds a cost of their own; the paper's future work targets "a
#: protocol that requires less communication rounds and latency".
LINK_RTT_S = 0.020
LINK_BYTES_PER_S = 100e6 / 8

#: Fraction of SU requests that reuse a cached (refreshable) request.
CACHED_REQUEST_FRACTION = 0.5


def _transfer_s(size_bytes: int) -> float:
    return LINK_RTT_S / 2.0 + size_bytes / LINK_BYTES_PER_S


@dataclass
class _Server:
    """A single-threaded FIFO service station."""

    busy_until: float = 0.0
    busy_time: float = 0.0

    def serve(self, arrival: float, service_s: float) -> float:
        """Queue a job arriving at ``arrival``; returns completion time."""
        self.busy_until = max(arrival, self.busy_until) + service_s
        self.busy_time += service_s
        return self.busy_until

    def utilization(self, duration_s: float) -> float:
        # An overloaded server drains past the horizon; dividing its busy
        # time by the span it was actually active over keeps the figure a
        # faithful fraction instead of clipping at 1.
        return min(1.0, self.busy_time / max(duration_s, self.busy_until))


@dataclass(frozen=True)
class RequestRecord:
    """One SU request's lifecycle."""

    su_id: str
    arrival_s: float
    completion_s: float
    granted: bool
    cached: bool

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate results of one simulated horizon."""

    duration_s: float
    requests: tuple[RequestRecord, ...]
    pu_updates: int
    virtual_switches_suppressed: int
    sdc_utilization: float
    stp_utilization: float
    su_moves: int = 0

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def grant_ratio(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.granted for r in self.requests) / len(self.requests)

    def latency_percentile_s(self, percentile: float) -> float:
        if not self.requests:
            return 0.0
        return float(np.percentile([r.latency_s for r in self.requests], percentile))

    @property
    def mean_latency_s(self) -> float:
        if not self.requests:
            return 0.0
        return float(np.mean([r.latency_s for r in self.requests]))

    def as_table_rows(self) -> list[tuple[str, str]]:
        return [
            ("horizon", f"{self.duration_s / 3600:.1f} h"),
            ("requests served", str(self.num_requests)),
            ("grant ratio", f"{self.grant_ratio:.0%}"),
            ("mean latency", f"{self.mean_latency_s:.0f} s"),
            ("p95 latency", f"{self.latency_percentile_s(95):.0f} s"),
            ("PU updates processed", str(self.pu_updates)),
            ("virtual switches suppressed", str(self.virtual_switches_suppressed)),
            ("SDC utilisation", f"{self.sdc_utilization:.0%}"),
            ("STP utilisation", f"{self.stp_utilization:.0%}"),
        ]


class DeploymentSimulator:
    """Event-driven simulation of one SDC service area.

    ``rate_per_hour`` is the SU population's mean request rate;
    ``traffic`` names the workload shape (:func:`~repro.sim.traffic.workload_names`).
    """

    def __init__(
        self,
        scenario: Scenario,
        cost_model: ServiceCostModel,
        rate_per_hour: float,
        seed: int = 0,
        traffic: str = "steady",
    ) -> None:
        if rate_per_hour <= 0:
            raise ConfigurationError("need a positive SU arrival rate")
        self.scenario = scenario
        self.cost_model = cost_model
        self.rate_per_hour = rate_per_hour
        self.traffic = resolve_workload(traffic)
        # The source is forked per draw stream, so the order in which
        # event kinds interleave can never shift another stream's draws.
        self._rng = DeterministicRandomSource(seed)
        # Decide every scenario SU once with the real oracle (moved SUs
        # are re-decided against the same oracle).
        self._oracle = PlaintextSDC(scenario.environment)
        for pu in scenario.pus:
            self._oracle.pu_update(pu)
        if not scenario.sus:
            raise ConfigurationError("scenario has no SUs to draw requests from")
        self._sus = {su.su_id: su for su in scenario.sus}
        self._decisions = {
            su.su_id: self._oracle.process_request(su).granted
            for su in scenario.sus
        }
        self._su_ids = [su.su_id for su in scenario.sus]

    def run(self, duration_s: float) -> SimulationReport:
        """Simulate ``duration_s`` seconds of deployment time."""
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        queue = EventQueue()
        sdc, stp = _Server(), _Server()
        costs = self.cost_model.costs
        payload_s = _transfer_s(self.cost_model.request_bytes)
        records: list[RequestRecord] = []
        pu_updates = 0
        suppressed = 0
        su_moves = 0

        subject_rng = self._rng.fork("subjects")
        rate_per_s = self.rate_per_hour / 3600.0
        expected = max(1, round(rate_per_s * duration_s))
        arrivals = self.traffic.arrival_model(rate_per_s, expected).arrivals(
            self._rng.fork("arrivals")
        )
        queue.schedule_at(next(arrivals), "su-arrival")

        churn = PuChurnModel(
            VIRTUAL_SWITCHES_PER_HOUR * self.traffic.pu_churn_multiplier,
            PHYSICAL_SWITCH_FRACTION,
        )
        for switch in churn.switches(
            self._rng.fork("churn"), len(self.scenario.pus), duration_s, 0
        ):
            queue.schedule_at(switch.time_s, "pu-switch", payload=switch.physical)

        if self.traffic.mobility:
            mobility = RandomWaypointMobility(self.scenario.grid)
            _, moves = mobility.waypoints(
                self._rng.fork("mobility"), len(self._su_ids), duration_s
            )
            for move in moves:
                queue.schedule_at(
                    move.time_s, "su-move", payload=(move.index, move.block)
                )

        # Stage transitions are events so each server's jobs are served
        # in true arrival-time order — synchronous chaining would let an
        # early request's phase 2 (scheduled far in the future) block a
        # later request's phase 1.
        while queue:
            event = queue.pop()
            if event.kind == "su-arrival":
                if event.time > duration_s:
                    continue  # stop generating load; drain in-flight work
                queue.schedule_at(next(arrivals), "su-arrival")
                su_id = self._su_ids[subject_rng.randbelow(len(self._su_ids))]
                cached = unit_float(subject_rng) < CACHED_REQUEST_FRACTION
                prep = costs.su_refresh_s if cached else costs.su_prepare_s
                queue.schedule_at(event.time + prep + payload_s, "sdc-phase1",
                                  payload=(su_id, event.time, cached))
            elif event.kind == "sdc-phase1":
                done = sdc.serve(event.time, costs.sdc_phase1_s)
                queue.schedule_at(done + payload_s, "stp-convert",
                                  payload=event.payload)
            elif event.kind == "stp-convert":
                done = stp.serve(event.time, costs.stp_convert_s)
                queue.schedule_at(done + payload_s, "sdc-phase2",
                                  payload=event.payload)
            elif event.kind == "sdc-phase2":
                su_id, arrival_s, cached = event.payload
                done = sdc.serve(event.time, costs.sdc_phase2_s)
                finished = (
                    done
                    + _transfer_s(self.cost_model.response_bytes)
                    + costs.su_decrypt_s
                )
                records.append(RequestRecord(
                    su_id=su_id,
                    arrival_s=arrival_s,
                    completion_s=finished,
                    granted=self._decisions[su_id],
                    cached=cached,
                ))
            elif event.kind == "pu-switch":
                # Virtual-only switches (same physical channel) do not
                # notify the SDC — the §VI-A optimisation.
                if event.payload:
                    at_sdc = event.time + costs.pu_prepare_s + _transfer_s(
                        self.cost_model.pu_update_bytes
                    )
                    queue.schedule_at(at_sdc, "sdc-pu-update")
                    pu_updates += 1
                else:
                    suppressed += 1
            elif event.kind == "sdc-pu-update":
                sdc.serve(event.time, costs.sdc_pu_update_s)
            elif event.kind == "su-move":
                su_index, block = event.payload
                su_id = self._su_ids[su_index]
                moved = replace(self._sus[su_id], block_index=block)
                self._sus[su_id] = moved
                self._decisions[su_id] = self._oracle.process_request(
                    moved
                ).granted
                su_moves += 1

        return SimulationReport(
            duration_s=duration_s,
            requests=tuple(records),
            pu_updates=pu_updates,
            virtual_switches_suppressed=suppressed,
            sdc_utilization=sdc.utilization(duration_s),
            stp_utilization=stp.utilization(duration_s),
            su_moves=su_moves,
        )
