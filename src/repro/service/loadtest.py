"""Synthetic load generation against the service broker.

Drives a :class:`~repro.service.broker.SpectrumAccessBroker` with a
pre-materialised schedule of SU request arrivals and interleaved PU
channel switches, then reports throughput, latency percentiles, the
batch-size distribution and how late the generator ran.  This is what
``repro serve-loadtest`` runs.

``LoadtestConfig.scenario`` names a deployment from the scenario
registry (:mod:`repro.sim.registry`) — ``cbrs-tiered`` attaches the
incumbent/PAL/GAA admission ledger to the broker — and
``LoadtestConfig.workload`` names the traffic model
(:mod:`repro.sim.traffic`: steady, diurnal, flash-crowd,
pu-churn-storm, …) the schedule is drawn from.  Both drive the
in-memory and socket planes identically.

The workload is *open-loop across SUs* — arrivals fire on the schedule's
clock whether or not earlier requests finished — but closed-loop per SU:
a secondary user never has two license requests in flight (its cached
request would otherwise be refreshed mid-round, breaking the license's
request-digest commitment, just as it would for a real device).

Requests use the §VI-A fast path: each SU prepares its encrypted matrix
once at setup and re-randomises it per arrival, so the load test
stresses the *service* (SDC/STP work, batching, queueing) rather than
client-side encryption.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.crypto.parallel import Executor
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ConfigurationError
from repro.service.batching import BatchAllocator
from repro.service.broker import ServiceConfig, ServiceDecision, SpectrumAccessBroker
from repro.sim.traffic import (
    KIND_PU_SWITCH,
    KIND_SU_REQUEST,
    build_schedule,
    workload_names,
)
from repro.telemetry import Histogram, MetricsRegistry, Tracer

__all__ = [
    "LoadtestConfig",
    "LoadtestReport",
    "ServiceFixture",
    "build_cluster_service",
    "build_packed_service",
    "run_loadtest",
]


@dataclass(frozen=True)
class LoadtestConfig:
    """Shape of one synthetic service run."""

    seed: int = 7
    #: Total SU request arrivals to fire.
    num_requests: int = 12
    #: Mean arrival rate, requests per *real* second (open loop).
    arrivals_per_second: float = 50.0
    #: Distinct SUs the schedule draws each arrival's subject from.
    num_sus: int = 3
    #: PU physical channel switches injected across the run.
    num_pu_switches: int = 2
    key_bits: int = 512
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Number of SDC shards; 0 runs the single-SDC packed deployment.
    shards: int = 0
    #: When > 0 (and ``shards`` > 0), kill shard-0's primary once this
    #: many request events have fired, to exercise failover under load.
    kill_shard_after: int = 0
    #: When set (sharded runs only), the coordinator opens a SQLite
    #: :class:`~repro.store.SqliteStateStore` at this path and persists
    #: PU ciphertexts, epoch snapshots, and the key directory through it.
    store_path: str = ""
    #: Named deployment from :mod:`repro.sim.registry` ("uhf" or
    #: "cbrs-tiered"); tiered scenarios attach a broker-side
    #: :class:`~repro.sim.cbrs.TieredAdmission` ledger.
    scenario: str = "uhf"
    #: Named traffic shape from :mod:`repro.sim.traffic`; arrivals follow
    #: the pre-materialised open-loop schedule it draws.
    workload: str = "steady"
    #: Concurrent-authorization budget for tiered scenarios; 0 derives
    #: it from the WATCH geometry (set 1 to force tier pressure).
    tier_capacity: int = 0

    def __post_init__(self) -> None:
        from repro.sim.registry import scenario_names

        if self.scenario not in scenario_names():
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r} "
                f"(known: {', '.join(scenario_names())})"
            )
        if self.workload not in workload_names():
            raise ConfigurationError(
                f"unknown workload {self.workload!r} "
                f"(known: {', '.join(workload_names())})"
            )
        if self.tier_capacity < 0:
            raise ConfigurationError("tier_capacity must be non-negative")
        if self.num_requests < 1:
            raise ConfigurationError("need at least one request")
        if self.arrivals_per_second <= 0:
            raise ConfigurationError("arrival rate must be positive")
        if self.num_sus < 1:
            raise ConfigurationError("need at least one SU")
        if self.shards < 0:
            raise ConfigurationError("shards must be non-negative")
        if self.kill_shard_after < 0:
            raise ConfigurationError("kill_shard_after must be non-negative")
        if self.kill_shard_after and not self.shards:
            raise ConfigurationError("kill_shard_after requires a sharded run")
        if self.store_path and not self.shards:
            raise ConfigurationError("store_path requires a sharded run")


def _resolve_scenario(config: LoadtestConfig, scenario):
    """The deployment scenario for a run (registry build unless given)."""
    if scenario is not None:
        return scenario
    from repro.sim.registry import build_named_scenario

    return build_named_scenario(
        config.scenario, seed=config.seed, num_sus=config.num_sus
    ).scenario


def _admission_for(config: LoadtestConfig, scenario, metrics):
    """The broker-side tier ledger implied by ``config.scenario``.

    Derived from the *actual* scenario in use (callers may pass a
    prebuilt one), so the tier map always covers exactly the enrolled
    SU population.  None for untiered scenarios.
    """
    from repro.sim.registry import SCENARIO_CBRS_TIERED

    if config.scenario != SCENARIO_CBRS_TIERED:
        return None
    from repro.sim.cbrs import TieredAdmission, assign_tiers, derive_gaa_capacity

    capacity = config.tier_capacity or derive_gaa_capacity(scenario)
    return TieredAdmission(
        assign_tiers(len(scenario.sus)), capacity, metrics
    )


@dataclass(frozen=True)
class LoadtestReport:
    """Aggregate outcome of one load-test run."""

    decisions: tuple[ServiceDecision, ...]
    wall_seconds: float
    metrics: dict

    @property
    def completed(self) -> int:
        return sum(1 for d in self.decisions if d.ran)

    @property
    def granted(self) -> int:
        return sum(1 for d in self.decisions if d.status == "granted")

    @property
    def rejected(self) -> int:
        return sum(1 for d in self.decisions if d.status == "rejected")

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def _histogram(self, name: str) -> dict[str, float]:
        return self.metrics["histograms"].get(name) or Histogram().snapshot()

    def latency_stats(self) -> dict[str, float]:
        return self._histogram("request_latency_s")

    def arrival_lag_stats(self) -> dict[str, float]:
        """Due time → submission, per request: how late the generator ran."""
        return self._histogram("arrival_lag_s")

    def batch_stats(self) -> dict[str, float]:
        return self.metrics["histograms"].get("batch_size", {"count": 0, "mean": 0.0})

    def stp_obfuscator_counts(self) -> dict[str, int]:
        """Re-encryptions whose obfuscator the idle fill had ready / that
        the request computed itself (the same two counters on every plane)."""
        counters = self.metrics["counters"]
        return {
            "ready": counters.get("stp_obfuscators_stocked_total", 0),
            "inline": counters.get("stp_obfuscators_inline_total", 0),
        }

    def as_table_rows(self) -> list[tuple[str, str]]:
        latency = self.latency_stats()
        lag = self.arrival_lag_stats()
        batches = self.batch_stats()
        obfuscators = self.stp_obfuscator_counts()
        return [
            ("requests submitted", str(len(self.decisions))),
            ("completed (granted/denied)", f"{self.completed} ({self.granted} granted)"),
            ("rejected", str(self.rejected)),
            ("wall time", f"{self.wall_seconds:.2f} s"),
            ("throughput", f"{self.throughput_rps:.2f} req/s"),
            ("latency p50 / p95 / p99",
             f"{latency['p50']:.3f} / {latency['p95']:.3f} / {latency['p99']:.3f} s"),
            ("arrival lag p50 / max", f"{lag['p50']:.3f} / {lag['max']:.3f} s"),
            ("mean batch size", f"{batches.get('mean', 0.0):.2f}"),
            ("stp obfuscators ready / inline",
             f"{obfuscators['ready']} / {obfuscators['inline']}"),
        ]

    def to_json_dict(self) -> dict:
        return {
            "requests": len(self.decisions),
            "completed": self.completed,
            "granted": self.granted,
            "rejected": self.rejected,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "latency_s": self.latency_stats(),
            "arrival_lag_s": self.arrival_lag_stats(),
            "batch_size": self.batch_stats(),
            "stp_obfuscators": self.stp_obfuscator_counts(),
            "metrics": self.metrics,
        }


@dataclass
class ServiceFixture:
    """A deployment stood up for service traffic (broker not yet started)."""

    broker: SpectrumAccessBroker
    coordinator: object
    scenario: object
    pu_clients: list
    su_ids: list
    #: Durable state store owned by this fixture (closed with it).
    store: object = None
    #: Tiered-admission ledger (tiered scenarios only; also reachable as
    #: ``broker.admission``).
    admission: object = None

    def close(self) -> None:
        """Tear down deployment-owned resources (scatter threads, workers)."""
        _close_deployment(self.coordinator, self.store)


def _close_deployment(coordinator, store) -> None:
    """Coordinator first (it may still flush into the store), then the store."""
    closer = getattr(coordinator, "close", None)
    if closer is not None:
        closer()
    if store is not None:
        store.close()


def _service_fixture(
    config: LoadtestConfig, coordinator, scenario, metrics, tracer, store=None
) -> ServiceFixture:
    """The tail every ``build_*_service`` shares: enrol, wrap in a broker.

    Enrolment order is PUs, then the first ``config.num_sus`` SUs — the
    golden transcripts and ``benchmarks/spine`` depend on it.  The
    coordinator may already own worker processes and the store an open
    database, so a failed enrolment tears both down before re-raising.
    """
    try:
        pu_clients = [coordinator.enroll_pu(pu) for pu in scenario.pus]
        su_ids = []
        for su in scenario.sus[: config.num_sus]:
            coordinator.enroll_su(su)
            su_ids.append(su.su_id)
        # Tier policy is broker-side only — shards and workers never see
        # it, which is why the wire format stays unchanged across scenarios.
        admission = _admission_for(config, scenario, metrics)
        broker = SpectrumAccessBroker(
            allocator=BatchAllocator.for_coordinator(coordinator),
            pu_update_handler=coordinator.sdc.handle_pu_update,
            config=config.service,
            metrics=metrics,
            tracer=tracer,
            admission=admission,
        )
    except BaseException:
        _close_deployment(coordinator, store)
        raise
    return ServiceFixture(
        broker=broker,
        coordinator=coordinator,
        scenario=scenario,
        pu_clients=pu_clients,
        su_ids=su_ids,
        store=store,
        admission=admission,
    )


def build_packed_service(
    config: LoadtestConfig,
    executor: Executor | None = None,
    metrics: MetricsRegistry | None = None,
    scenario=None,
    tracer: Tracer | None = None,
    transport=None,
    clock=None,
) -> ServiceFixture:
    """Stand up a packed-mode deployment wrapped in a broker.

    Packed mode is the service-grade configuration (slot packing
    amortises the per-cell Paillier work); the broker itself is
    variant-agnostic via
    :meth:`~repro.service.batching.BatchAllocator.for_coordinator`.
    Pass ``scenario`` to reuse a prebuilt deployment scenario (benches
    compare against a baseline on the identical scenario).
    """
    from repro.pisa.packed import PackedCoordinator

    scenario = _resolve_scenario(config, scenario)
    rng = DeterministicRandomSource(config.seed)
    metrics = metrics if metrics is not None else MetricsRegistry()
    coordinator = PackedCoordinator(
        scenario.environment,
        key_bits=max(config.key_bits, 512),
        rng=rng,
        executor=executor,
        transport=transport,
        clock=clock,
    )
    coordinator.transport.attach_metrics(metrics)
    return _service_fixture(config, coordinator, scenario, metrics, tracer)


def build_cluster_service(
    config: LoadtestConfig,
    executor: Executor | None = None,
    metrics: MetricsRegistry | None = None,
    scenario=None,
    shard_executor_factory=None,
    tracer: Tracer | None = None,
    transport=None,
    clock=None,
) -> ServiceFixture:
    """Stand up a sharded-SDC deployment wrapped in a broker.

    ``config.shards`` SDC shards sit behind the cluster facade; the
    broker and driver code are identical to the single-SDC path because
    :class:`~repro.cluster.ClusterCoordinator` presents the same
    coordinator surface.  ``executor`` feeds the STP's conversion leg
    (the serial section of every epoch); ``shard_executor_factory``
    gives each shard its own compute backend (shards as real processes
    are :func:`repro.netd.plane.build_socket_service`'s job).  Call
    ``fixture.close()`` after the run.
    """
    from repro.cluster import ClusterCoordinator

    if config.shards < 1:
        raise ConfigurationError("cluster service needs at least one shard")
    scenario = _resolve_scenario(config, scenario)
    rng = DeterministicRandomSource(config.seed)
    # One registry spans the whole deployment: the broker's service
    # counters, the router's cluster_* counters, the policy engine's
    # retry counters, and the transport's per-link transfer counters all
    # land in the same exposition.
    metrics = metrics if metrics is not None else MetricsRegistry()
    store = None
    if config.store_path:
        from repro.store import SqliteStateStore

        store = SqliteStateStore(config.store_path)
        store.attach_metrics(metrics)
    coordinator = ClusterCoordinator(
        scenario.environment,
        num_shards=config.shards,
        key_bits=max(config.key_bits, 512),
        rng=rng,
        transport=transport,
        stp_executor=executor,
        shard_executor_factory=shard_executor_factory,
        metrics=metrics,
        clock=clock if clock is not None else time.time,
        store=store,
    )
    return _service_fixture(config, coordinator, scenario, metrics, tracer, store)


async def _drive(fixture: ServiceFixture, config: LoadtestConfig):
    """Drive the pre-materialised schedule of ``config.workload``.

    The whole schedule — arrival instants, SU subjects, PU switch slots
    — is built up front from a forked deterministic source, so the same
    seed replays byte-identically on the in-memory and socket planes:
    submission *order* is the schedule's order no matter how wall time
    stretches under load.  Each event is paced against its absolute due
    time, and every request records how far past it the submission ran
    (``arrival_lag_s``).

    In the byte-identity configuration (``max_batch=1`` with a zero
    batching window — the equivalence-test shape) the driver runs the
    schedule *closed-loop*: each round is awaited before the next event
    fires.  Concurrent rounds draw from the one broker-side RNG stream,
    so letting them overlap would let wall-clock crypto timing reorder
    the draws and change ciphertext bytes between otherwise identical
    runs.  Open-loop pacing is preserved for every throughput-shaped
    configuration.
    """
    broker = fixture.broker
    clients = {
        su_id: fixture.coordinator.su_client(su_id) for su_id in fixture.su_ids
    }
    for client in clients.values():
        client.prepare_request()
    su_locks = {su_id: asyncio.Lock() for su_id in fixture.su_ids}
    num_channels = fixture.scenario.environment.num_channels
    horizon_hours = config.num_requests / config.arrivals_per_second / 3600.0
    num_pus = len(fixture.pu_clients)
    # PU churn sized so the physical-switch budget is likely met within
    # the run's horizon (1.5x overdraw; the schedule caps at the budget).
    churn_per_hour = (
        1.5 * config.num_pu_switches / (horizon_hours * num_pus)
        if config.num_pu_switches and num_pus
        else 1e-9
    )
    schedule = build_schedule(
        config.workload,
        rng=DeterministicRandomSource(config.seed).fork("workload"),
        rate_per_s=config.arrivals_per_second,
        num_requests=config.num_requests,
        num_sus=len(fixture.su_ids),
        num_pus=num_pus if config.num_pu_switches else 0,
        num_channels=num_channels,
        max_pu_switches=config.num_pu_switches,
        grid=fixture.scenario.grid,
        pu_churn_per_hour=churn_per_hour,
    )
    lag = broker.metrics.histogram("arrival_lag_s")

    async def one_request(su_id: str, due: float) -> ServiceDecision:
        # Closed loop per SU: refresh only once the previous round is done.
        async with su_locks[su_id]:
            request = clients[su_id].refresh_request()
            lag.observe(time.perf_counter() - due)
            return await broker.submit_request(su_id, request)

    closed_loop = (
        config.service.max_batch == 1 and config.service.batch_window_s == 0.0
    )
    tasks = []
    start = time.perf_counter()
    for event in schedule.events:
        due = start + event.time_s
        # Always yields, even when late, so tasks created for earlier
        # events reach the broker before this one does.
        await asyncio.sleep(max(0.0, due - time.perf_counter()))  # audit-ok: RES001 — open-loop arrival pacing, not a retry
        if event.kind == KIND_SU_REQUEST:
            task = asyncio.ensure_future(
                one_request(fixture.su_ids[event.index], due)
            )
            tasks.append(task)
            if len(tasks) == config.kill_shard_after:
                # Chaos probe: take down a shard's primary mid-run; the
                # router must promote its standby and later epochs complete.
                victim = fixture.coordinator.router.shard_ids[0]
                fixture.coordinator.kill_shard(victim)
            if closed_loop:
                await task
        elif event.kind == KIND_PU_SWITCH and event.physical and num_pus:
            pu = fixture.pu_clients[event.index]
            update = pu.switch_channel(event.slot, signal_strength_mw=1.0)
            if update is not None:
                broker.submit_pu_update(update)
        # su-move events shape only the simulator; live SUs are enrolled
        # at fixed blocks, so the driver skips them.
    return await asyncio.gather(*tasks)


def _publish_stp_counts(fixture: ServiceFixture) -> None:
    """The conversion server's stock hits and misses, as counters.

    One pair of names on both planes: in memory the converter's own
    ``StpStats``, over sockets what the STP worker's ``ping`` carries
    (its proxy's ``stats`` asks).  Counts only.
    """
    stats = fixture.coordinator.stp.stats
    metrics = fixture.broker.metrics
    metrics.counter("stp_obfuscators_stocked_total").inc(stats.obfuscators_stocked)
    metrics.counter("stp_obfuscators_inline_total").inc(stats.obfuscators_inline)


async def _run_fixture(
    fixture: ServiceFixture, config: LoadtestConfig
) -> LoadtestReport:
    """Drive one built fixture to a report; the caller closes it."""
    start = time.perf_counter()
    async with fixture.broker:
        decisions = await _drive(fixture, config)
    wall = time.perf_counter() - start
    # Off-loop: on the socket plane reading the counts is a round trip.
    await asyncio.to_thread(_publish_stp_counts, fixture)
    return LoadtestReport(
        decisions=tuple(decisions),
        wall_seconds=wall,
        metrics=fixture.broker.metrics.snapshot(),
    )


def run_loadtest(
    config: LoadtestConfig,
    executor: Executor | None = None,
    metrics: MetricsRegistry | None = None,
    scenario=None,
    tracer: Tracer | None = None,
    transport=None,
    clock=None,
) -> LoadtestReport:
    """Synchronous entry point: build, drive, tear down, report.

    ``tracer`` threads a :class:`repro.telemetry.Tracer` through the
    broker (one root span per request); ``transport`` substitutes the
    deployment's transport and ``clock`` pins the license ``issued_at``
    source — together they let the byte-identity tests compare traced
    and untraced transcripts on a frozen clock.
    """
    build = build_cluster_service if config.shards else build_packed_service
    fixture = build(
        config, executor, metrics, scenario=scenario,
        tracer=tracer, transport=transport, clock=clock,
    )
    try:
        return asyncio.run(_run_fixture(fixture, config))
    finally:
        fixture.close()
