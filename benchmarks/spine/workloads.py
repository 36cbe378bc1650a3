"""The four workloads: their inputs, their deployments, their oracle.

All workloads share one key size and one shard count; what differs is
the plane the request crosses, the map size, the client count and
whether PUs churn.  Inputs (scenario, SU order, PU switch stream) are a
pure function of ``--seed``; the program under test sees only them.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import time
from dataclasses import dataclass, field

from repro.cluster import ClusterCoordinator
from repro.crypto.rand import DeterministicRandomSource
from repro.netd.plane import build_socket_service
from repro.resilience import EpochJournal, JournalWriter
from repro.service.batching import BatchAllocator
from repro.service.broker import ServiceConfig, SpectrumAccessBroker
from repro.service.loadtest import LoadtestConfig, build_packed_service
from repro.store import SqliteStateStore
from repro.telemetry import MetricsRegistry
from repro.watch.scenario import ScenarioConfig, build_scenario
from repro.watch.sdc import PlaintextSDC
from repro.watch.system import received_tv_signal_mw

from probes import CountingExecutor, Probes, traced_allocator, traced_pu_handler

#: What ``build_socket_service`` / ``build_packed_service`` enforce anyway.
KEY_BITS = 512
SHARDS = 2
NUM_SUS = 4
#: Requests the seed scan plays through the oracle before accepting a seed.
SCAN_REQUESTS = 96
#: Both outcomes must hold this share of every scanned prefix (the run's
#: own gate is 20 %; the margin keeps a seed from sitting on the edge).
SCAN_SHARE = 0.3
GATE_SHARE = 0.20
#: Scenario seeds the scan tries before giving up (the most any of 2000
#: ``--seed`` values needed is in the README).
SCAN_LIMIT = 4096

DEFAULT_MAP = dict(grid_rows=4, grid_cols=6, num_channels=5, num_towers=2, num_pus=3)
WIDE_MAP = dict(grid_rows=10, grid_cols=15, num_channels=4, num_towers=3, num_pus=12)

UNBATCHED = ServiceConfig(batch_window_s=0.0, max_batch=1)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``socket`` | ``packed`` | ``cluster``
    plane: str
    scenario: dict = field(default_factory=lambda: DEFAULT_MAP)
    #: closed-loop callers; caller ``k`` cycles the SUs ``order[k::clients]``
    clients: int = 1
    service: ServiceConfig = UNBATCHED
    #: physical PU switches submitted after every request
    churn: int = 0
    #: journal + SQLite store beside the coordinator
    durable: bool = False
    #: full set-ups per untraced run; ``setup_s`` is their median
    setups: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("steady_socket", "socket"),
        Workload(
            "burst_packed", "packed", clients=NUM_SUS,
            service=ServiceConfig(batch_window_s=0.05, max_batch=4),
        ),
        Workload("churn_journaled", "cluster", churn=2, durable=True),
        # One set-up here is ~10 s of modexps (4 x prepare_request on 600
        # cells plus a 3 s warm-up round): steady by nature, and a second
        # one would cost more than the whole measurement window.
        Workload("wide_map", "cluster", scenario=WIDE_MAP, setups=1),
    )
}


# -- inputs ----------------------------------------------------------------------


def switch_stream(scenario, seed: int):
    """Endless seeded physical PU switches: ``(pu index, slot | None, mW)``.

    A target is a tower's slot, or "off" with probability 1/4; a draw
    that would not change the physical channel is turned into the
    opposite state, so every switch makes ``PUClient`` send an update.
    """
    rng = random.Random(seed)
    env = scenario.environment
    tower_slots = sorted({tower.channel_slot for tower in scenario.towers})
    slots = [pu.channel_slot for pu in scenario.pus]
    while True:
        index = rng.randrange(len(slots))
        target = None if rng.random() < 0.25 else rng.choice(tower_slots)
        current = slots[index]
        if target == current or (
            target is not None
            and current is not None
            and env.plan.same_physical(current, target)
        ):
            target = None if current is not None else tower_slots[0]
        slots[index] = target
        block = scenario.pus[index].block_index
        signal = received_tv_signal_mw(env, block, target) if target is not None else 0.0
        yield index, target, signal


class Oracle:
    """The plaintext WATCH controller, kept in step with the deployment."""

    def __init__(self, scenario) -> None:
        self._sdc = PlaintextSDC(scenario.environment)
        self._pus = list(scenario.pus)
        self._sus = {su.su_id: su for su in scenario.sus}
        for pu in self._pus:
            self._sdc.pu_update(pu)

    def switch(self, index: int, slot, signal_mw: float) -> None:
        self._pus[index] = self._pus[index].switched_to(slot, signal_mw)
        self._sdc.pu_update(self._pus[index])

    def granted(self, su_id: str) -> bool:
        return self._sdc.process_request(self._sus[su_id]).granted


def su_order(scenario) -> list[str]:
    """SU ids with the oracle's initial grants and denies interleaved."""
    oracle = Oracle(scenario)
    ids = [su.su_id for su in scenario.sus]
    grants = [s for s in ids if oracle.granted(s)]
    denies = [s for s in ids if s not in grants]
    mixed = [s for pair in itertools.zip_longest(grants, denies) for s in pair]
    return [s for s in mixed if s is not None]


def _mixes_outcomes(workload: Workload, scenario, seed: int) -> bool:
    """Play the planned requests through the oracle: does every prefix of
    the timed requests (after the warm-up) hold both outcomes?"""
    order = su_order(scenario)
    oracle = Oracle(scenario)
    switches = switch_stream(scenario, seed)
    grants = timed = 0
    for i in range(workload.clients + SCAN_REQUESTS):
        granted = oracle.granted(order[i % len(order)])
        for _ in range(workload.churn):
            oracle.switch(*next(switches))
        if i < workload.clients:  # the warm-up round
            continue
        timed += 1
        grants += granted
        if timed >= 2 and not SCAN_SHARE <= grants / timed <= 1 - SCAN_SHARE:
            return False
    return True


def choose_scenario(workload: Workload, seed: int):
    """First scenario seed at or after ``64 * seed`` with a grant/deny mix.

    Plaintext oracle only; the protocol never runs here.  Returns
    ``(scenario seed, scenario config)``.

    One candidate in 15 passes on ``churn_journaled`` (one in 3 or more
    elsewhere), so the scan runs on into the next ``--seed``'s candidates
    when it has to: a window of 64 came up empty for 1 ``--seed`` in 80.
    ``SCAN_LIMIT`` only stops a workload that can never mix from hanging.
    """
    for candidate in range(64 * seed, 64 * seed + SCAN_LIMIT):
        config = ScenarioConfig(seed=candidate, num_sus=NUM_SUS, **workload.scenario)
        if _mixes_outcomes(workload, build_scenario(config), candidate):
            return candidate, config
    raise SystemExit(
        f"{workload.name}: none of {SCAN_LIMIT} scenario seeds from {64 * seed} "
        "mixes grants and denies"
    )


# -- deployments -----------------------------------------------------------------


@dataclass
class Deployment:
    """One stood-up system: the broker the loop drives and what it owns."""

    broker: SpectrumAccessBroker
    coordinator: object
    scenario: object
    metrics: MetricsRegistry
    su_clients: dict
    pu_clients: list
    #: seconds spent per set-up stage: scenario, deploy (with enrolment), prepare
    stages: dict
    #: files whose size is the store's footprint
    store_dir: pathlib.Path | None = None
    closers: list = field(default_factory=list)

    def close(self) -> None:
        for closer in reversed(self.closers):
            closer()


def deploy(workload: Workload, seed: int, scenario_config, workdir: pathlib.Path,
           probes: Probes | None = None) -> Deployment:
    """Stand the workload's system up, enrolled and with requests prepared.

    With ``probes`` the layers' public callables are wrapped on the way
    (disabled until the traced window starts).
    """
    stages = {}
    clock = time.perf_counter
    t0 = clock()
    scenario = build_scenario(scenario_config)
    stages["scenario"] = clock() - t0
    metrics = MetricsRegistry()
    executor = CountingExecutor(probes) if probes is not None else None
    config = LoadtestConfig(
        seed=seed, num_sus=NUM_SUS, key_bits=KEY_BITS, service=workload.service,
        shards=0 if workload.plane == "packed" else SHARDS,
    )
    closers = []
    journal = store = store_dir = None
    t0 = clock()
    if workload.plane == "socket":
        store_dir = workdir / "store"
        fixture = build_socket_service(
            config, scenario_config=scenario_config, metrics=metrics,
            workdir=workdir / "netd", store_dir=store_dir,
        )
        coordinator, pu_clients = fixture.coordinator, fixture.pu_clients
        closers.append(fixture.close)
    elif workload.plane == "packed":
        fixture = build_packed_service(
            config, executor=executor, metrics=metrics, scenario=scenario
        )
        coordinator, pu_clients = fixture.coordinator, fixture.pu_clients
    else:
        if workload.durable:
            workdir.mkdir(parents=True, exist_ok=True)
            store_dir = workdir / "store"
            store_dir.mkdir()
            writer = JournalWriter(workdir / "epochs.journal")
            journal = EpochJournal(writer)
            store = SqliteStateStore(store_dir / "state.sqlite")
            closers += [journal.close, store.close]
            if probes is not None:
                _probe_durable(probes, writer, store)
        coordinator = ClusterCoordinator(
            scenario.environment,
            num_shards=SHARDS,
            key_bits=KEY_BITS,
            rng=DeterministicRandomSource(seed),
            stp_executor=executor,
            shard_executor_factory=(lambda _shard: executor) if executor else None,
            journal=journal,
            metrics=metrics,
            store=store,
        )
        closers.append(coordinator.close)
        pu_clients = [coordinator.enroll_pu(pu) for pu in scenario.pus]
        for su in scenario.sus:
            coordinator.enroll_su(su)
    stages["deploy"] = clock() - t0

    su_clients = {su.su_id: coordinator.su_client(su.su_id) for su in scenario.sus}
    t0 = clock()
    for client in su_clients.values():
        client.prepare_request()
    stages["prepare"] = clock() - t0

    handler = coordinator.sdc.handle_pu_update
    if probes is None:
        allocator = BatchAllocator.for_coordinator(coordinator)
    else:
        allocator = traced_allocator(probes, coordinator, workload.plane == "packed")
        _probe_layers(probes, workload, coordinator, su_clients)
        handler = traced_pu_handler(probes, handler)
    broker = SpectrumAccessBroker(
        allocator=allocator,
        pu_update_handler=handler,
        config=workload.service,
        metrics=metrics,
        journal=journal,
    )
    return Deployment(
        broker=broker, coordinator=coordinator, scenario=scenario, metrics=metrics,
        su_clients=su_clients, pu_clients=pu_clients, stages=stages,
        store_dir=store_dir, closers=closers,
    )


def _probe_durable(probes: Probes, writer: JournalWriter, store) -> None:
    """Count and time the bench-owned journal writer and store."""
    writer.append = probes.counted(
        "journal.append", writer.append,
        size_of=lambda args: sum(len(part) for part in args),  # kind + body
    )
    writer.barrier = probes.counted("journal.barrier", writer.barrier)
    for method in ("put_pu_update", "put_snapshot", "put_directory", "put_checkpoint"):
        setattr(store, method, probes.counted("store.write", getattr(store, method)))


def _probe_layers(probes: Probes, workload: Workload, coordinator, su_clients) -> None:
    for su_id, client in su_clients.items():
        client.refresh_request = probes.timed(
            "crypto.client_refresh", client.refresh_request, lambda _args, s=su_id: s
        )
    if workload.plane == "socket":
        transport = coordinator.transport
        transport.transact = probes.counted("netd.transact", transport.transact)
    if workload.plane == "cluster":
        # Either replica may serve a sub-query (a suspect primary reads
        # from its standby), so both are timed.
        for replica_set in coordinator.replica_sets.values():
            for shard in (replica_set.primary, replica_set.standby):
                shard.process_phase1 = probes.timed(
                    "cluster.shard_phase1", shard.process_phase1,
                    lambda args: args[0].su_id, leaf=True,
                )
