"""Deterministic, seedable traffic models — the workload engine's core.

The seed simulator sampled arrivals with ad-hoc numpy generators; this
module replaces that with a family of *traffic models* whose every draw
funnels through the one :class:`~repro.crypto.rand.RandomSource`
interface the rest of the stack already journals.  A workload is
therefore byte-replayable: building the same schedule twice from the
same seed yields the identical event tuple (asserted by
:meth:`ArrivalSchedule.digest`), and a journaled RandomSource can
reproduce a production run's arrival process offline.

Models
------
* :class:`PoissonTraffic` — homogeneous arrivals (independent users);
* :class:`DiurnalTraffic` — a sinusoidal day/night load curve,
  sampled by Lewis–Shedler thinning against the peak rate;
* :class:`FlashCrowdTraffic` — a piecewise-constant burst (breaking
  news sends everyone to the spectrum database at once);
* :class:`PuChurnModel` — per-PU channel switching at the §VI-A rate
  (2.3–2.7 virtual switches/viewer-hour, a given fraction physical);
* :class:`RandomWaypointMobility` — SU movement over the
  :class:`~repro.geo.grid.BlockGrid` (pick a waypoint, travel at a
  drawn speed, pause, repeat).

:func:`build_schedule` composes a named :class:`WorkloadSpec` into one
time-ordered :class:`ArrivalSchedule` that the loadtest driver and the
chaos harness consume; the deployment simulator draws its arrivals,
churn and moves from the same models.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.crypto.hashing import sha256
from repro.crypto.rand import RandomSource
from repro.errors import ConfigurationError
from repro.geo.grid import BlockGrid

__all__ = [
    "VIRTUAL_SWITCHES_PER_HOUR",
    "PHYSICAL_SWITCH_FRACTION",
    "unit_float",
    "exponential_gap",
    "ArrivalEvent",
    "ArrivalSchedule",
    "ArrivalModel",
    "PoissonTraffic",
    "DiurnalTraffic",
    "FlashCrowdTraffic",
    "PuChurnModel",
    "RandomWaypointMobility",
    "WorkloadSpec",
    "WORKLOADS",
    "workload_names",
    "resolve_workload",
    "build_schedule",
]

#: §VI-A (citing [16]): mean virtual channel switches per viewer-hour.
VIRTUAL_SWITCHES_PER_HOUR = 2.5

#: §VI-A: the share of virtual switches that cross a physical channel
#: ("much lower" than the virtual rate) and so reach the SDC.
PHYSICAL_SWITCH_FRACTION = 0.2

#: Relative swing of :class:`DiurnalTraffic` around its mean rate.
DIURNAL_AMPLITUDE = 0.8

#: Rate multiplier inside a :class:`FlashCrowdTraffic` burst.
FLASH_CROWD_MULTIPLIER = 6.0

#: :class:`RandomWaypointMobility`'s walking-speed range, m/s.
WAYPOINT_SPEED_MPS = (0.5, 1.5)

#: :class:`RandomWaypointMobility`'s pause range at a waypoint, s.
WAYPOINT_PAUSE_S = (0.0, 60.0)

#: Event kinds an :class:`ArrivalSchedule` may carry.
KIND_SU_REQUEST = "su-request"
KIND_PU_SWITCH = "pu-switch"
KIND_SU_MOVE = "su-move"

_UNIT = float(1 << 53)


def unit_float(rng: RandomSource) -> float:
    """A uniform float in ``[0, 1)`` from 53 RandomSource bits.

    53 bits is the double-precision mantissa: every representable value
    is equally likely and the draw consumes a fixed bit budget, so
    journal replay stays aligned.
    """
    return rng.randbits(53) / _UNIT


def exponential_gap(rng: RandomSource, rate_per_s: float) -> float:
    """An exponential inter-arrival gap (seconds) at ``rate_per_s``."""
    if rate_per_s <= 0:
        raise ConfigurationError("rate must be positive")
    # -log(1-u): u < 1 always, so the argument never hits zero.
    return -math.log1p(-unit_float(rng)) / rate_per_s


@dataclass(frozen=True)
class ArrivalEvent:
    """One scheduled workload event.

    ``index`` addresses the subject population (SU index for requests
    and moves, PU index for switches); ``slot`` is the target channel of
    a PU switch; ``block`` the destination of an SU move; ``physical``
    distinguishes SDC-visible PU switches from suppressed virtual ones.
    """

    time_s: float
    kind: str
    index: int
    slot: int = -1
    block: int = -1
    physical: bool = True

    def key(self) -> tuple:
        """Canonical encoding used for digests and tie-breaking."""
        return (self.time_s, self.kind, self.index, self.slot, self.block,
                self.physical)


@dataclass(frozen=True)
class ArrivalSchedule:
    """A fully materialised, time-ordered workload schedule."""

    workload: str
    seed_label: str
    events: tuple[ArrivalEvent, ...]

    @property
    def num_requests(self) -> int:
        return sum(1 for e in self.events if e.kind == KIND_SU_REQUEST)

    @property
    def num_pu_switches(self) -> int:
        return sum(
            1 for e in self.events if e.kind == KIND_PU_SWITCH and e.physical
        )

    @property
    def horizon_s(self) -> float:
        return self.events[-1].time_s if self.events else 0.0

    def digest(self) -> str:
        """SHA-256 over the canonical event encoding.

        Two schedules are byte-replayable equals iff their digests
        match — the property the identical-seed tests assert.
        """
        payload = repr(
            (self.workload, tuple(e.key() for e in self.events))
        ).encode("utf-8")
        return sha256(payload).hex()


# --------------------------------------------------------------------------- #
# Arrival models
# --------------------------------------------------------------------------- #


class ArrivalModel(ABC):
    """A (possibly non-homogeneous) Poisson arrival process."""

    @abstractmethod
    def rate_per_s(self, t_s: float) -> float:
        """Instantaneous arrival intensity λ(t)."""

    @property
    @abstractmethod
    def peak_rate_per_s(self) -> float:
        """An upper bound on λ(t), used by the thinning sampler."""

    @abstractmethod
    def expected_count(self, horizon_s: float) -> float:
        """∫₀ᴴ λ(t) dt — the mean number of arrivals by ``horizon_s``."""

    def arrivals(self, rng: RandomSource) -> Iterator[float]:
        """Arrival times by Lewis–Shedler thinning against the peak rate.

        Candidate points come from a homogeneous process at the peak
        intensity; each survives with probability λ(t)/peak.  Every draw
        goes through ``rng``, so the stream is deterministic per seed.
        """
        peak = self.peak_rate_per_s
        if peak <= 0:
            raise ConfigurationError("arrival model has non-positive peak rate")
        t = 0.0
        while True:
            t += exponential_gap(rng, peak)
            if unit_float(rng) * peak <= self.rate_per_s(t):
                yield t


class PoissonTraffic(ArrivalModel):
    """Homogeneous Poisson arrivals at a constant rate."""

    def __init__(self, rate_per_second: float) -> None:
        if rate_per_second <= 0:
            raise ConfigurationError("rate must be positive")
        self._rate = rate_per_second

    def rate_per_s(self, t_s: float) -> float:
        return self._rate

    @property
    def peak_rate_per_s(self) -> float:
        return self._rate

    def expected_count(self, horizon_s: float) -> float:
        return self._rate * max(horizon_s, 0.0)


class DiurnalTraffic(ArrivalModel):
    """A sinusoidal day/night curve around a mean rate.

    ``λ(t) = mean · (1 + a · sin(2π t/period))`` with
    ``a = DIURNAL_AMPLITUDE``.  Over any whole number of periods the
    integral is exactly ``mean · horizon`` — the "integrates to its
    configured total" property the tests check.  ``period_s`` defaults
    to one day; the loadtest registry compresses it so a short run still
    sweeps a full cycle.
    """

    def __init__(
        self, mean_rate_per_second: float, period_s: float = 86_400.0
    ) -> None:
        if mean_rate_per_second <= 0:
            raise ConfigurationError("mean rate must be positive")
        if period_s <= 0:
            raise ConfigurationError("period must be positive")
        self._mean = mean_rate_per_second
        self._period = period_s

    def rate_per_s(self, t_s: float) -> float:
        omega = 2.0 * math.pi / self._period
        return self._mean * (1.0 + DIURNAL_AMPLITUDE * math.sin(omega * t_s))

    @property
    def peak_rate_per_s(self) -> float:
        return self._mean * (1.0 + DIURNAL_AMPLITUDE)

    def expected_count(self, horizon_s: float) -> float:
        omega = 2.0 * math.pi / self._period
        # ∫ mean·(1 + a·sin(ωt)) dt, closed form.
        sinus = (1.0 - math.cos(omega * horizon_s)) / omega
        return self._mean * (horizon_s + DIURNAL_AMPLITUDE * sinus)


class FlashCrowdTraffic(ArrivalModel):
    """A baseline rate, ``FLASH_CROWD_MULTIPLIER`` times it in one burst window."""

    def __init__(
        self,
        base_rate_per_second: float,
        burst_start_s: float,
        burst_duration_s: float,
    ) -> None:
        if base_rate_per_second <= 0:
            raise ConfigurationError("base rate must be positive")
        if burst_duration_s < 0 or burst_start_s < 0:
            raise ConfigurationError("burst window must be non-negative")
        self._base = base_rate_per_second
        self._start = burst_start_s
        self._duration = burst_duration_s

    def rate_per_s(self, t_s: float) -> float:
        if self._start <= t_s < self._start + self._duration:
            return self._base * FLASH_CROWD_MULTIPLIER
        return self._base

    @property
    def peak_rate_per_s(self) -> float:
        return self._base * FLASH_CROWD_MULTIPLIER

    def expected_count(self, horizon_s: float) -> float:
        overlap = max(
            0.0, min(horizon_s, self._start + self._duration) - self._start
        )
        return self._base * (horizon_s + (FLASH_CROWD_MULTIPLIER - 1.0) * overlap)


# --------------------------------------------------------------------------- #
# PU churn and SU mobility
# --------------------------------------------------------------------------- #


class PuChurnModel:
    """Per-PU channel switching with the virtual/physical distinction.

    §VI-A puts *virtual* switches (remote-control hops that stay on one
    physical channel) at 2.3–2.7 per viewer-hour, with physical switches
    "much lower"; only physical switches reach the SDC.
    """

    def __init__(
        self,
        virtual_rate_per_hour: float = VIRTUAL_SWITCHES_PER_HOUR,
        physical_fraction: float = PHYSICAL_SWITCH_FRACTION,
    ) -> None:
        if virtual_rate_per_hour <= 0:
            raise ConfigurationError("switch rate must be positive")
        if not 0.0 <= physical_fraction <= 1.0:
            raise ConfigurationError("physical_fraction must be in [0, 1]")
        self.virtual_rate_per_hour = virtual_rate_per_hour
        self.physical_fraction = physical_fraction

    def switches(
        self,
        rng: RandomSource,
        num_pus: int,
        horizon_s: float,
        num_channels: int,
    ) -> list[ArrivalEvent]:
        """All switch events over ``[0, horizon_s]``, PU by PU.

        Draw order is fixed (PU 0's whole renewal stream, then PU 1's,
        ...), so identical seeds give identical churn regardless of how
        the caller later interleaves the events.
        """
        rate_per_s = self.virtual_rate_per_hour / 3600.0
        events = []
        for pu_index in range(num_pus):
            t = 0.0
            while True:
                t += exponential_gap(rng, rate_per_s)
                if t > horizon_s:
                    break
                physical = unit_float(rng) < self.physical_fraction
                slot = rng.randbelow(num_channels) if num_channels > 0 else -1
                events.append(ArrivalEvent(
                    time_s=t, kind=KIND_PU_SWITCH, index=pu_index,
                    slot=slot, physical=physical,
                ))
        return events


class RandomWaypointMobility:
    """Random-waypoint SU movement over the block grid.

    Each SU starts in a uniformly drawn block, picks a destination
    block, travels in a straight line at a speed drawn from
    ``WAYPOINT_SPEED_MPS``, pauses for a time drawn from
    ``WAYPOINT_PAUSE_S``, and repeats.  The emitted ``su-move`` events
    carry the destination block index; the deployment simulator
    re-decides a moved SU against the WATCH oracle at its new block.
    """

    def __init__(self, grid: BlockGrid) -> None:
        self.grid = grid

    def _uniform(self, rng: RandomSource, low: float, high: float) -> float:
        return low + unit_float(rng) * (high - low)

    def waypoints(
        self, rng: RandomSource, num_sus: int, horizon_s: float
    ) -> tuple[list[int], list[ArrivalEvent]]:
        """``(start_blocks, move_events)`` over ``[0, horizon_s]``.

        Like :meth:`PuChurnModel.switches`, the draw order is fixed per
        SU so schedules are replayable.
        """
        starts = []
        events = []
        for su_index in range(num_sus):
            block = rng.randbelow(self.grid.num_blocks)
            starts.append(block)
            t = 0.0
            while True:
                destination = rng.randbelow(self.grid.num_blocks)
                speed = self._uniform(rng, *WAYPOINT_SPEED_MPS)
                distance = self.grid.distance_m(block, destination)
                t += max(distance / speed, 1e-9)
                if t > horizon_s:
                    break
                events.append(ArrivalEvent(
                    time_s=t, kind=KIND_SU_MOVE, index=su_index,
                    block=destination,
                ))
                block = destination
                t += self._uniform(rng, *WAYPOINT_PAUSE_S)
        return starts, events


# --------------------------------------------------------------------------- #
# The workload registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkloadSpec:
    """A named traffic shape the scenario/workload registry serves.

    ``arrival_factory`` builds the SU arrival model for a target mean
    rate; ``period_requests`` expresses time-varying structure in
    *expected request counts* instead of wall seconds, so a 12-request
    CI smoke and a 10^5-request soak sweep the same shape.
    """

    name: str
    description: str
    arrival_factory: Callable[[float, float], ArrivalModel]
    #: Multiplier on the §VI-A PU churn rate (1.0 = paper rate).
    pu_churn_multiplier: float = 1.0
    #: Whether the schedule carries random-waypoint SU moves.
    mobility: bool = False

    def arrival_model(
        self, rate_per_s: float, expected_requests: int
    ) -> ArrivalModel:
        span_s = max(expected_requests / rate_per_s, 1e-9)
        return self.arrival_factory(rate_per_s, span_s)


def _steady(rate: float, span_s: float) -> ArrivalModel:
    return PoissonTraffic(rate)


def _diurnal(rate: float, span_s: float) -> ArrivalModel:
    # One full "day" compressed into the run's expected span: the run
    # always sweeps trough and peak, whatever its request budget.
    return DiurnalTraffic(rate, period_s=span_s)


def _flash_crowd(rate: float, span_s: float) -> ArrivalModel:
    # The burst covers the middle fifth of the expected span.
    return FlashCrowdTraffic(
        rate, burst_start_s=0.4 * span_s, burst_duration_s=0.2 * span_s
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="steady",
            description="homogeneous Poisson arrivals, paper-rate PU churn",
            arrival_factory=_steady,
        ),
        WorkloadSpec(
            name="diurnal",
            description="sinusoidal day/night curve (one period per run)",
            arrival_factory=_diurnal,
        ),
        WorkloadSpec(
            name="flash-crowd",
            description="steady base with a 6x burst over the middle fifth",
            arrival_factory=_flash_crowd,
        ),
        WorkloadSpec(
            name="pu-churn-storm",
            description="steady arrivals under 40x PU channel churn",
            arrival_factory=_steady,
            pu_churn_multiplier=40.0,
        ),
        WorkloadSpec(
            name="mobility",
            description="steady arrivals with random-waypoint SU movement",
            arrival_factory=_steady,
            mobility=True,
        ),
    )
}


def workload_names() -> tuple[str, ...]:
    return tuple(WORKLOADS)


def resolve_workload(name: str) -> WorkloadSpec:
    spec = WORKLOADS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})"
        )
    return spec


_KIND_ORDER = {KIND_SU_REQUEST: 0, KIND_PU_SWITCH: 1, KIND_SU_MOVE: 2}


def build_schedule(
    workload: WorkloadSpec | str,
    *,
    rng: RandomSource,
    rate_per_s: float,
    num_requests: int,
    num_sus: int,
    num_pus: int = 0,
    num_channels: int = 0,
    max_pu_switches: int | None = None,
    grid: BlockGrid | None = None,
    pu_churn_per_hour: float = VIRTUAL_SWITCHES_PER_HOUR,
) -> ArrivalSchedule:
    """Materialise one deterministic schedule for a workload.

    Draw order is fixed — SU arrivals first (time then subject per
    arrival), then PU churn, then mobility — so the same seed always
    produces the same byte-replayable event tuple.  ``max_pu_switches``
    caps *physical* switches (the ones that reach the SDC), mirroring
    the loadtest's ``num_pu_switches`` budget.  Every switch is physical:
    a service-driving schedule only carries SDC-visible churn (the
    deployment simulator draws the paper's fraction itself).
    """
    spec = resolve_workload(workload) if isinstance(workload, str) else workload
    if num_requests < 1:
        raise ConfigurationError("a schedule needs at least one request")
    if num_sus < 1:
        raise ConfigurationError("a schedule needs at least one SU")
    model = spec.arrival_model(rate_per_s, num_requests)
    events: list[ArrivalEvent] = []
    stream = model.arrivals(rng)
    for _ in range(num_requests):
        t = next(stream)
        events.append(ArrivalEvent(
            time_s=t, kind=KIND_SU_REQUEST, index=rng.randbelow(num_sus)
        ))
    horizon = events[-1].time_s

    if num_pus > 0 and spec.pu_churn_multiplier > 0:
        churn = PuChurnModel(
            virtual_rate_per_hour=pu_churn_per_hour * spec.pu_churn_multiplier,
            physical_fraction=1.0,
        )
        switches = churn.switches(rng, num_pus, horizon, num_channels)
        if max_pu_switches is not None:
            kept, physical_seen = [], 0
            for event in sorted(switches, key=lambda e: e.key()):
                if event.physical:
                    if physical_seen >= max_pu_switches:
                        continue
                    physical_seen += 1
                kept.append(event)
            switches = kept
        events.extend(switches)

    if spec.mobility:
        if grid is None:
            raise ConfigurationError(
                f"workload {spec.name!r} needs a grid for mobility"
            )
        _, moves = RandomWaypointMobility(grid).waypoints(rng, num_sus, horizon)
        events.extend(moves)

    # Stable total order: time, then kind (requests before switches
    # before moves at equal instants), then subject index.
    events.sort(key=lambda e: (e.time_s, _KIND_ORDER[e.kind], e.index, e.slot))
    return ArrivalSchedule(
        workload=spec.name, seed_label="rng", events=tuple(events)
    )
