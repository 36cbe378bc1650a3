"""The socket plane: a sharded PISA deployment across real OS processes.

:func:`build_socket_service` stands up the same deployment shape as
:func:`repro.service.loadtest.build_cluster_service`, except the SDC
shards and the STP live in worker subprocesses behind TCP frames:

* the **broker process** (this one) keeps the coordinator, the batch
  allocator, every RNG draw, and license signing;
* ``shard-N`` workers do the deterministic homomorphic arithmetic;
* the ``stp`` worker performs sign extraction, reaching back to the
  broker's authority for its per-cell nonces.

Because all randomness stays on the broker's single stream — in the
same order the in-memory plane draws it — and because
``SocketTransport.send`` *is* the in-memory accounting funnel, a
socket-plane run produces byte-identical protocol transcripts and
identical span signatures to an in-memory run with the same seeds.
That is asserted by ``tests/netd/test_equivalence.py`` and is the
contract documented in ``docs/networking.md``.

Construction order matters and is worth spelling out: the authority
starts first (bound to the run's rng), workers are spawned and
poll ``bootstrap``, then the coordinator is built — registering the
bootstrap providers mid-``__init__`` at the moment the group key
exists — and the first ``transact`` of the build (block assignment)
politely waits for the target worker's readiness file.

It is also the chaos harness's socket plane (``repro chaos --plane
socket``), where ``kill_shard`` and ``slow_shard`` are real process
faults.
"""

from __future__ import annotations

import asyncio
import pathlib
import time
from dataclasses import dataclass

from repro.cluster.coordinator import ClusterCoordinator
from repro.crypto.paillier import generate_keypair
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ConfigurationError, TransportError
from repro.netd.remote import AuthorityServer, RemoteShardSet, RemoteStp
from repro.netd.supervisor import ProcessSupervisor
from repro.netd.transport import PeerClient, SocketTransport, TlsSpec
from repro.netd.wire import decode_control, encode_control
from repro.pisa.blinding import indicator_bound_for
from repro.service import loadtest as loadtest_module
from repro.service.batching import STP_ENDPOINT
from repro.service.loadtest import LoadtestConfig, LoadtestReport, ServiceFixture
from repro.telemetry import MetricsRegistry, Tracer
from repro.watch.scenario import ScenarioConfig, build_scenario

__all__ = [
    "SocketClusterCoordinator",
    "build_socket_coordinator",
    "build_socket_service",
    "health_check",
    "run_socket_loadtest",
]

#: How long :func:`health_check` waits for one worker's ``ping``.
HEALTH_TIMEOUT_S = 5.0


@dataclass
class NetdContext:
    """Everything one socket-plane deployment owns besides the coordinator."""

    authority: AuthorityServer
    supervisor: ProcessSupervisor
    transport: SocketTransport
    client_ssl: object = None

    def close(self) -> None:
        # SIGTERM first (workers shut down gracefully and the monitor
        # stops resurrecting), then drop connections and the authority.
        self.supervisor.stop_all()
        self.transport.close_peers()
        self.authority.stop()


class SocketClusterCoordinator(ClusterCoordinator):
    """A :class:`ClusterCoordinator` whose STP and shards are processes.

    Only the two build hooks and the fault surface change:
    :meth:`_build_stp` draws the group keypair *at the exact position*
    the in-process ``StpServer.__init__`` would (first draw of
    construction, before the signing key), then hands it to a
    :class:`~repro.netd.remote.RemoteStp`; :meth:`_build_replica_set`
    yields :class:`~repro.netd.remote.RemoteShardSet` proxies, each
    shipping the coordinator's :attr:`cells` to its worker; and
    :meth:`kill_shard` / :meth:`slow_shard` act on the worker process.
    Everything else — router, allocator, clients, license signing — is
    inherited unchanged, which is the point.
    """

    def __init__(self, environment, netd: NetdContext, **kwargs):
        # The build hooks run inside super().__init__; stash their
        # dependencies first.
        #: The :class:`NetdContext` — authority, supervisor, socket
        #: transport — for health checks and process-level fault drills.
        self.netd = netd
        super().__init__(environment, **kwargs)

    def _build_stp(self, key_bits: int, stp_executor) -> RemoteStp:
        keypair = generate_keypair(key_bits, rng=self._rng)
        stp = RemoteStp(
            self.netd.transport,
            STP_ENDPOINT,
            keypair,
            key_bits,
            indicator_bound_for(self.environment.params),
        )
        self.netd.authority.register_bootstrap(
            STP_ENDPOINT, stp.bootstrap_payload
        )
        return stp

    def _build_replica_set(self, shard_id: str) -> RemoteShardSet:
        return RemoteShardSet(
            shard_id,
            self.netd.transport,
            self.netd.supervisor,
            self.netd.authority,
            self.cells,
            self.stp.group_public_key,
        )

    def kill_shard(self, shard_id: str) -> None:
        """SIGKILL the shard's worker; no wire is cut, so the next
        sub-query meets a real dead socket and the router fails over."""
        self.netd.supervisor.kill(shard_id)
        self.netd.supervisor.wait_exit(shard_id)

    def slow_shard(self, shard_id: str, delay_s: float) -> None:
        """The worker itself answers every phase-1 sub-query ``delay_s`` late."""
        self.replica_sets[shard_id].transact(
            "chaos_delay", encode_control({"delay_s": delay_s})
        )

    def close(self) -> None:
        super().close()
        self.netd.close()


def build_socket_coordinator(
    num_shards: int,
    key_bits: int,
    rng,
    scenario_config: ScenarioConfig,
    metrics: MetricsRegistry | None = None,
    clock=None,
    record_transcript: bool = False,
    tls: TlsSpec | None = None,
    host: str = "127.0.0.1",
    workdir=None,
    max_attempts: int = 2,
    scatter_threads: int | None = None,
    store_dir=None,
):
    """Stand up the process topology and the coordinator over it.

    Returns ``(coordinator, scenario)``; nothing is enrolled yet.  The
    lower-level seam shared by :func:`build_socket_service` and the
    chaos harness's ``--plane socket`` runs (which drive Figure-5
    rounds directly, no broker).
    """
    if num_shards < 1:
        raise ConfigurationError("the socket plane needs at least one shard")
    scenario = build_scenario(scenario_config)
    metrics = metrics if metrics is not None else MetricsRegistry()
    clock = clock if clock is not None else time.time

    client_ssl = tls.client_context() if tls is not None else None
    server_ssl = tls.server_context() if tls is not None else None
    # The authority serves the same rng object the coordinator will
    # draw from — one stream for the whole deployment.
    authority = AuthorityServer(rng, host=host, ssl_context=server_ssl, metrics=metrics)
    supervisor = ProcessSupervisor(host=host, workdir=workdir, metrics=metrics)
    transport = SocketTransport(record_transcript=record_transcript)
    netd = NetdContext(authority, supervisor, transport, client_ssl)
    try:
        authority_host, authority_port = authority.start()
        worker_args = ["--authority", f"{authority_host}:{authority_port}"]
        if tls is not None:
            worker_args += ["--tls-cert", tls.certfile, "--tls-key", tls.keyfile]
            if tls.cafile:
                worker_args += ["--tls-ca", tls.cafile]
        store_root = None
        if store_dir:
            store_root = pathlib.Path(store_dir)
            store_root.mkdir(parents=True, exist_ok=True)
        names = [f"shard-{i}" for i in range(num_shards)] + [STP_ENDPOINT]
        for i in range(num_shards):
            shard_args = list(worker_args)
            if store_root is not None:
                # Per-shard database: restarts of the same worker name
                # find the same file; shards never share a connection.
                shard_args += ["--store", str(store_root / f"shard-{i}.sqlite")]
            supervisor.start(f"shard-{i}", "shard", tuple(shard_args))
        supervisor.start(STP_ENDPOINT, "stp", tuple(worker_args))
        for name in names:
            transport.register_peer(
                name,
                PeerClient(
                    name,
                    # late-bound per peer; the provider re-reads the
                    # readiness file, so restarts re-resolve transparently
                    (lambda n: (lambda: supervisor.address(n)))(name),
                    ssl_context=client_ssl,
                    metrics=metrics,
                ),
            )
        coordinator = SocketClusterCoordinator(
            scenario.environment,
            netd=netd,
            num_shards=num_shards,
            key_bits=key_bits,
            rng=rng,
            transport=transport,
            metrics=metrics,
            clock=clock,
            max_attempts=max_attempts,
            scatter_threads=scatter_threads,
        )
    except BaseException:
        netd.close()
        raise
    return coordinator, scenario


def build_socket_service(
    config: LoadtestConfig,
    scenario_config: ScenarioConfig | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    clock=None,
    record_transcript: bool = False,
    tls: TlsSpec | None = None,
    host: str = "127.0.0.1",
    workdir=None,
    store_dir=None,
) -> ServiceFixture:
    """Stand up a socket-plane deployment wrapped in a service broker.

    Same fixture surface as ``build_cluster_service`` — the loadtest
    driver, broker, and report code run on it unmodified.  Call
    ``fixture.close()``; it tears down the worker processes too.
    """
    if scenario_config is None:
        # The registry build and this plain config produce the identical
        # environment: registry entries only add broker-side policy.
        scenario_config = ScenarioConfig(
            seed=config.seed, num_sus=max(config.num_sus, 1)
        )
    metrics = metrics if metrics is not None else MetricsRegistry()
    coordinator, scenario = build_socket_coordinator(
        config.shards,
        max(config.key_bits, 512),
        DeterministicRandomSource(config.seed),
        scenario_config,
        metrics=metrics,
        clock=clock,
        record_transcript=record_transcript,
        tls=tls,
        host=host,
        workdir=workdir,
        store_dir=store_dir,
    )
    return loadtest_module._service_fixture(
        config, coordinator, scenario, metrics, tracer
    )


def run_socket_loadtest(
    config: LoadtestConfig,
    scenario_config: ScenarioConfig | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    clock=None,
    record_transcript: bool = False,
    tls: TlsSpec | None = None,
    host: str = "127.0.0.1",
    workdir=None,
    store_dir=None,
) -> tuple[LoadtestReport, tuple[str, ...]]:
    """Drive the standard loadtest over real sockets.

    Returns the report plus the captured protocol transcript
    (fingerprints; empty unless ``record_transcript=True``) so callers
    can compare planes without keeping the deployment alive.
    """
    fixture = build_socket_service(
        config,
        scenario_config=scenario_config,
        metrics=metrics,
        tracer=tracer,
        clock=clock,
        record_transcript=record_transcript,
        tls=tls,
        host=host,
        workdir=workdir,
        store_dir=store_dir,
    )
    try:
        report = asyncio.run(loadtest_module._run_fixture(fixture, config))
        fingerprints = tuple(fixture.coordinator.transport.fingerprints)
    finally:
        fixture.close()
    return report, fingerprints


def health_check(fixture: ServiceFixture) -> dict:
    """Ping every worker over its live link; include process liveness."""
    netd: NetdContext = fixture.coordinator.netd
    out = {}
    for name in netd.transport.peer_endpoints:
        entry = {"process_running": netd.supervisor.is_running(name)}
        try:
            frame = netd.transport.transact(
                name, "ping", encode_control({}), timeout=HEALTH_TIMEOUT_S
            )
            info, _ = decode_control(frame.payload)
            entry.update(info)
            entry["reachable"] = True
        except TransportError as exc:
            entry["reachable"] = False
            entry["error"] = str(exc)
        out[name] = entry
    return out
