"""The deployment simulator: queueing + physics + real decisions.

Each protocol phase is a service demand on a single-threaded server
(the SDC or the STP), scheduled through the event queue; message
transfers add latency-model delays.  Grant/deny outcomes are *not*
sampled — each simulated request belongs to a scenario SU and is
decided once by the real plaintext WATCH oracle, so grant ratios track
the actual geometry.

All randomness flows through an injected
:class:`~repro.crypto.rand.RandomSource` (forked per stream, so event
interleaving never perturbs draws) and all time through the
:class:`~repro.sim.events.EventQueue`'s injected origin — no ambient
clocks or generators, which is what lets the DET/ASY audit rules cover
this package.  A named :class:`~repro.sim.traffic.WorkloadSpec` shapes
the arrival process (diurnal, flash-crowd, churn-storm, mobility);
without one the workload is the homogeneous paper model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.crypto.rand import DeterministicRandomSource, RandomSource
from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency
from repro.sim.costmodel import ServiceCostModel
from repro.sim.events import EventQueue
from repro.sim.traffic import (
    RandomWaypointMobility,
    WorkloadSpec,
    resolve_workload,
    unit_float,
)
from repro.sim.workload import PoissonArrivals, PuSwitchProcess, WorkloadConfig
from repro.watch.scenario import Scenario
from repro.watch.sdc import PlaintextSDC

__all__ = ["RequestRecord", "SimulationReport", "DeploymentSimulator"]


@dataclass
class _Server:
    """A service station with ``workers`` parallel lanes.

    Jobs go to the earliest-free lane (a c-server FIFO queue);
    utilisation is busy time divided by total lane-seconds.
    """

    name: str
    workers: int = 1
    busy_until: list[float] = field(default_factory=list)
    busy_time: float = 0.0
    jobs: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("a server needs at least one worker")
        if not self.busy_until:
            self.busy_until = [0.0] * self.workers

    def serve(self, arrival: float, service_s: float) -> float:
        """Queue a job arriving at ``arrival``; returns completion time."""
        lane = min(range(self.workers), key=lambda i: self.busy_until[i])
        start = max(arrival, self.busy_until[lane])
        done = start + service_s
        self.busy_until[lane] = done
        self.busy_time += service_s
        self.jobs += 1
        return done


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
    """Event-driven simulation of one SDC service area."""

    def __init__(
        self,
        scenario: Scenario,
        cost_model: ServiceCostModel,
        workload: WorkloadConfig | None = None,
        latency: ConstantLatency | None = None,
        sdc_workers: int = 1,
        stp_workers: int = 1,
        rng: RandomSource | None = None,
        start_s: float = 0.0,
        traffic: WorkloadSpec | str | None = None,
    ) -> None:
        if sdc_workers < 1 or stp_workers < 1:
            raise ConfigurationError("worker counts must be positive")
        self.scenario = scenario
        self.cost_model = cost_model
        self.workload = workload or WorkloadConfig()
        self.latency = latency or ConstantLatency()
        self.sdc_workers = sdc_workers
        self.stp_workers = stp_workers
        self.start_s = start_s
        if traffic is None:
            self.traffic: WorkloadSpec | None = None
        elif isinstance(traffic, str):
            self.traffic = resolve_workload(traffic)
        else:
            self.traffic = traffic
        # The injected source is forked per draw stream, so the order in
        # which event kinds interleave can never shift another stream's
        # draws.  Default derives from the workload seed for
        # backwards-compatible determinism.
        self._rng = rng if rng is not None else DeterministicRandomSource(
            self.workload.seed
        )
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

    def _delay(self, size_bytes: int, sender: str, receiver: str) -> float:
        return self.latency.delay_seconds(size_bytes, sender, receiver)

    def run(self, duration_s: float) -> SimulationReport:
        """Simulate ``duration_s`` seconds of deployment time."""
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        queue = EventQueue(start_s=self.start_s)
        horizon = self.start_s + duration_s
        sdc = _Server("sdc", workers=self.sdc_workers)
        stp = _Server("stp", workers=self.stp_workers)
        costs = self.cost_model.costs
        records: list[RequestRecord] = []
        pu_updates = 0
        suppressed = 0
        su_moves = 0

        arrival_rng = self._rng.fork("arrivals")
        subject_rng = self._rng.fork("subjects")
        rate_per_s = self.workload.su_requests_per_hour / 3600.0
        if self.traffic is not None:
            expected = max(1, round(rate_per_s * duration_s))
            arrival_stream = self.traffic.arrival_model(
                rate_per_s, expected
            ).arrivals(arrival_rng)
            next_arrival = lambda: self.start_s + next(arrival_stream)  # noqa: E731
            churn_multiplier = self.traffic.pu_churn_multiplier
        else:
            arrivals = PoissonArrivals(
                self.workload.su_requests_per_hour, arrival_rng
            )
            clock = queue.clock()
            next_arrival = lambda: clock() + arrivals.next_gap_s()  # noqa: E731
            churn_multiplier = 1.0
        queue.schedule_at(next_arrival(), "su-arrival")

        switchers = []
        for index, pu in enumerate(self.scenario.pus):
            process = PuSwitchProcess(
                self.workload.pu_virtual_switches_per_hour * churn_multiplier,
                self.workload.physical_switch_fraction,
                self._rng.fork(f"pu-{index}"),
            )
            switchers.append((pu.receiver_id, process))
            gap, physical = process.next_switch()
            queue.schedule(gap, "pu-switch", payload=(index, physical))

        if self.traffic is not None and self.traffic.mobility:
            mobility = RandomWaypointMobility(self.scenario.grid)
            _, moves = mobility.waypoints(
                self._rng.fork("mobility"), len(self._su_ids), duration_s
            )
            for move in moves:
                queue.schedule_at(
                    self.start_s + move.time_s, "su-move",
                    payload=(move.index, move.block),
                )

        # Stage transitions are events so each server's jobs are served
        # in true arrival-time order — synchronous chaining would let an
        # early request's phase 2 (scheduled far in the future) block a
        # later request's phase 1.
        while queue:
            event = queue.pop()
            if event.kind in ("su-arrival", "pu-switch") and event.time > horizon:
                continue  # stop generating load; drain in-flight work
            if event.kind == "su-arrival":
                queue.schedule_at(next_arrival(), "su-arrival")
                su_id = self._su_ids[subject_rng.randbelow(len(self._su_ids))]
                cached = (
                    unit_float(subject_rng)
                    < self.workload.cached_request_fraction
                )
                prep = costs.su_refresh_s if cached else costs.su_prepare_s
                at_sdc = event.time + prep + self._delay(
                    self.cost_model.request_bytes, su_id, "sdc"
                )
                queue.schedule_at(at_sdc, "sdc-phase1",
                                  payload=(su_id, event.time, cached))
            elif event.kind == "sdc-phase1":
                su_id, arrival_s, cached = event.payload
                done = sdc.serve(event.time, costs.sdc_phase1_s)
                at_stp = done + self._delay(
                    self.cost_model.extraction_bytes, "sdc", "stp"
                )
                queue.schedule_at(at_stp, "stp-convert", payload=event.payload)
            elif event.kind == "stp-convert":
                done = stp.serve(event.time, costs.stp_convert_s)
                back = done + self._delay(
                    self.cost_model.conversion_bytes, "stp", "sdc"
                )
                queue.schedule_at(back, "sdc-phase2", payload=event.payload)
            elif event.kind == "sdc-phase2":
                su_id, arrival_s, cached = event.payload
                done = sdc.serve(event.time, costs.sdc_phase2_s)
                finished = (
                    done
                    + self._delay(self.cost_model.response_bytes, "sdc", su_id)
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
                index, physical = event.payload
                pu_id, process = switchers[index]
                gap, next_physical = process.next_switch()
                queue.schedule(gap, "pu-switch", payload=(index, next_physical))
                if physical:
                    at_sdc = event.time + costs.pu_prepare_s + self._delay(
                        self.cost_model.pu_update_bytes, pu_id, "sdc"
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

        # Overloaded servers drain past the horizon; divide each server's
        # busy time by the span it was actually active over so reported
        # utilisation stays a faithful fraction instead of clipping at 1.
        sdc_span = max(duration_s, max(sdc.busy_until) - self.start_s)
        stp_span = max(duration_s, max(stp.busy_until) - self.start_s)
        return SimulationReport(
            duration_s=duration_s,
            requests=tuple(records),
            pu_updates=pu_updates,
            virtual_switches_suppressed=suppressed,
            sdc_utilization=min(1.0, sdc.busy_time / (sdc_span * sdc.workers)),
            stp_utilization=min(1.0, stp.busy_time / (stp_span * stp.workers)),
            su_moves=su_moves,
        )
