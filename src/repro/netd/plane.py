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

Construction order matters and is worth spelling out, all of it inside
:class:`SocketClusterCoordinator`'s ``__init__``: the authority starts
first (serving no draws yet), workers are spawned and poll
``bootstrap``, then the coordinator proper is built — binding the
authority to its own draw stream (the journaling one when a journal is
on) and registering the bootstrap providers at the moment the group key
exists — and the first ``transact`` of the build (block assignment)
politely waits for the target worker's readiness file.

It is also the chaos harness's socket plane (``repro chaos --plane
socket``), where ``kill_shard`` and ``slow_shard`` are real process
faults.
"""

from __future__ import annotations

import functools
import pathlib
import time
from dataclasses import dataclass

from repro.cluster.coordinator import ClusterCoordinator
from repro.crypto.paillier import generate_keypair
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import TransportError
from repro.crypto.serialization import encode_public_key
from repro.netd.remote import AuthorityServer, RemoteShard, RemoteStp
from repro.netd.supervisor import ProcessSupervisor
from repro.netd.transport import PeerClient, SocketTransport, TlsSpec
from repro.netd.wire import decode_control, encode_cells, encode_control
from repro.pisa.blinding import indicator_bound_for
from repro.service.batching import STP_ENDPOINT
from repro.service.loadtest import LoadtestConfig, ServiceFixture
from repro.store import SqliteStateStore
from repro.telemetry import MetricsRegistry, Tracer
from repro.watch.scenario import ScenarioConfig, build_scenario

__all__ = [
    "SocketClusterCoordinator",
    "build_socket_service",
    "health_check",
]

#: How long :func:`health_check` waits for one worker's ``ping``.
HEALTH_TIMEOUT_S = 5.0


@dataclass
class NetdContext:
    """Everything one socket-plane deployment owns besides the coordinator."""

    authority: AuthorityServer
    supervisor: ProcessSupervisor
    transport: SocketTransport

    def close(self) -> None:
        # SIGTERM first (workers shut down gracefully and the monitor
        # stops resurrecting), then drop connections and the authority.
        self.supervisor.stop_all()
        self.transport.close_peers()
        self.authority.stop()


class SocketClusterCoordinator(ClusterCoordinator):
    """A :class:`ClusterCoordinator` whose STP and shards are processes.

    It stands up its own workers and takes every ``ClusterCoordinator``
    argument (``journal=`` and ``store=`` included) plus the topology's:
    ``tls`` for every link, the ``host`` the workers bind, their
    ``workdir`` and ``record_transcript``.  Only the build hooks, the
    fault surface and the worker lifecycle change: :meth:`_build_stp`
    draws the group keypair *at the exact position* the in-process
    ``StpServer.__init__`` would, binds the authority to the
    coordinator's own draw stream and hands the keypair to a
    :class:`~repro.netd.remote.RemoteStp`; :meth:`_boot_shard` boots a
    replica set's :class:`~repro.netd.remote.RemoteShard` by (re)starting
    its worker, which pulls the set's blob; :meth:`join_shard` /
    :meth:`leave_shard` spawn and retire workers; and :meth:`kill_shard`
    / :meth:`slow_shard` act on the worker process.  Everything else —
    replica sets, router, allocator, clients, license signing, journal,
    store — is inherited unchanged, which is the point.
    """

    def __init__(
        self,
        environment,
        *,
        num_shards: int = 2,
        tls: TlsSpec | None = None,
        host: str = "127.0.0.1",
        workdir=None,
        record_transcript: bool = False,
        **kwargs,
    ):
        metrics = kwargs.get("metrics")
        server_ssl = tls.server_context() if tls is not None else None
        #: The :class:`NetdContext` — authority, supervisor, socket
        #: transport — for health checks and process-level fault drills.
        self.netd = NetdContext(
            AuthorityServer(host=host, ssl_context=server_ssl, metrics=metrics),
            ProcessSupervisor(host=host, workdir=workdir, metrics=metrics),
            SocketTransport(record_transcript=record_transcript),
        )
        try:
            self._spawn_workers(num_shards, tls, metrics)
            # The workers poll ``bootstrap`` until the build hooks, run
            # inside super().__init__, register their providers.
            super().__init__(
                environment,
                num_shards=num_shards,
                transport=self.netd.transport,
                **kwargs,
            )
        except BaseException:
            self.netd.close()  # no worker outlives a failed construction
            raise

    def _spawn_workers(self, num_shards: int, tls: TlsSpec | None, metrics) -> None:
        authority_host, authority_port = self.netd.authority.start()
        worker_args = ["--authority", f"{authority_host}:{authority_port}"]
        if tls is not None:
            worker_args += ["--tls-cert", tls.certfile, "--tls-key", tls.keyfile]
            if tls.cafile:
                worker_args += ["--tls-ca", tls.cafile]
        #: What every worker of this deployment starts with: its command
        #: line's tail, the client side's TLS context, the registry.
        self._worker_spec = (
            tuple(worker_args),
            tls.client_context() if tls is not None else None,
            metrics,
        )
        for name in [f"shard-{i}" for i in range(num_shards)] + [STP_ENDPOINT]:
            self._spawn_worker(name, "stp" if name == STP_ENDPOINT else "shard")

    def _spawn_worker(self, name: str, role: str) -> None:
        """Launch one worker and register its peer: the deployment's
        workers, and a joining shard's."""
        worker_args, client_ssl, metrics = self._worker_spec
        supervisor = self.netd.supervisor
        supervisor.start(name, role, worker_args)
        # The address is late-bound: the supervisor re-reads the
        # readiness file, so restarts re-resolve transparently.
        self.netd.transport.register_peer(
            name,
            PeerClient(
                name,
                functools.partial(supervisor.address, name),
                ssl_context=client_ssl,
                metrics=metrics,
            ),
        )

    def _build_stp(self, key_bits: int, stp_executor) -> RemoteStp:
        keypair = generate_keypair(key_bits, rng=self._rng)
        # ``self._rng`` is final here — the journaling wrapper when a
        # journal is on — so the STP's nonces join the one draw stream.
        self.netd.authority.bind_rng(self._rng)
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

    def _boot_shard(self, replica_set) -> RemoteShard:
        """A replica set's ``boot``: a worker that pulled the set's blob.

        The set is the worker's bootstrap provider from now on, and a
        worker pulls its provider when it starts.  So a worker spawned
        for this name and still polling needs nothing; after a promotion
        (the set was the provider already) the worker running now, or
        the one the supervisor starts, pulled this set's blob; and a
        worker that may hold another set's — a cold start replaces a
        dead set — is restarted.
        """
        name = replica_set.shard_id
        provider = functools.partial(self._shard_bootstrap, replica_set)
        previous = self.netd.authority.register_bootstrap(name, provider)
        if previous is None:
            pass  # the spawned worker pulls from the set when it next polls
        elif previous.args[0] is replica_set:  # a promotion
            self.netd.supervisor.ensure_running(name)
        else:  # a cold start
            self.netd.supervisor.restart(name)
            # Pooled connections lead to the replaced process.
            self.netd.transport.peer(name).discard_idle()
        return RemoteShard(
            name, self.netd.transport, self.netd.supervisor, self.stp.group_public_key
        )

    def _shard_bootstrap(self, replica_set) -> bytes:
        """A shard worker's config: the map's cell table, the lease, the
        group key and the set's current blob."""
        return encode_control(
            {
                "role": "shard",
                "cells": encode_cells(self.cells),
                "fence_token": replica_set.fence_token,
            },
            encode_public_key(self.stp.group_public_key),
            replica_set.blob(),
        )

    def join_shard(self, shard_id: str):
        """Spawn the joining shard's worker, then admit it as in memory."""
        self._spawn_worker(shard_id, "shard")
        return super().join_shard(shard_id)

    def leave_shard(self, shard_id: str):
        """Hand the leaver's blocks off as in memory, then retire its
        worker: no monitor restarts it, and no peer or config names it."""
        plan = super().leave_shard(shard_id)
        self.netd.supervisor.retire(shard_id)
        self.netd.transport.unregister_peer(shard_id)
        self.netd.authority.unregister_bootstrap(shard_id)
        return plan

    def kill_shard(self, shard_id: str) -> None:
        """SIGKILL the shard's worker; no wire is cut, so the next
        sub-query meets a real dead socket and the router fails over."""
        self.netd.supervisor.kill(shard_id)
        self.netd.supervisor.wait_exit(shard_id)

    def slow_shard(self, shard_id: str, delay_s: float) -> None:
        """The worker itself answers every phase-1 sub-query ``delay_s`` late."""
        self.netd.transport.transact(
            shard_id, "chaos_delay", encode_control({"delay_s": delay_s})
        )

    def close(self) -> None:
        super().close()
        self.netd.close()


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
    driver, broker, and report code run on it unmodified: ``run()`` it,
    and close it (or use it as a context manager) to tear down the
    worker processes too.  With ``record_transcript=True`` the protocol
    fingerprints are ``fixture.coordinator.transport.fingerprints``.
    The deployment's store is the SQLite file ``store_dir/state.sqlite``
    with ``store_dir``, else ``config.store_path`` if set; the fixture
    owns it.
    """
    if scenario_config is None:
        # The registry build and this plain config produce the identical
        # environment: registry entries only add broker-side policy.
        scenario_config = ScenarioConfig(
            seed=config.seed, num_sus=max(config.num_sus, 1)
        )
    metrics = metrics if metrics is not None else MetricsRegistry()
    store, store_path = None, config.store_path
    if store_dir:
        pathlib.Path(store_dir).mkdir(parents=True, exist_ok=True)
        store_path = pathlib.Path(store_dir, "state.sqlite")
    if store_path:
        store = SqliteStateStore(store_path)
        store.attach_metrics(metrics)
    scenario = build_scenario(scenario_config)
    coordinator = SocketClusterCoordinator(
        scenario.environment,
        num_shards=config.shards,
        key_bits=max(config.key_bits, 512),
        rng=DeterministicRandomSource(config.seed),
        metrics=metrics,
        clock=clock if clock is not None else time.time,
        record_transcript=record_transcript,
        tls=tls,
        host=host,
        workdir=workdir,
        store=store,
    )
    return ServiceFixture.enroll(config, coordinator, scenario, metrics, tracer, store)


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
