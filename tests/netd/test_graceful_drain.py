"""Worker graceful drain and supervisor readiness hygiene.

A SIGTERMed worker must finish what it is serving, flush its durable
store, revoke its readiness file, and exit 0 — the supervisor (or an
operator's process manager) must never observe "ready" from a process
that has already closed its store.  And a supervisor reusing a workdir
must sweep readiness files left behind by SIGKILLed predecessors.
"""

import json
import signal
import threading

import pytest

from repro.crypto.paillier import generate_keypair
from repro.crypto.rand import DeterministicRandomSource
from repro.crypto.serialization import encode_private_key, encode_public_key
from repro.netd.remote import AuthorityServer
from repro.netd.supervisor import ProcessSupervisor
from repro.netd.transport import PeerClient
from repro.netd.wire import decode_control, encode_cells, encode_control
from repro.pisa.kernel import CellTable
from repro.pisa.messages import SignExtractionRequest
from repro.pisa.storage import encode_shard_state


def _plane_threads() -> list[str]:
    """Live threads the socket plane started (it names them ``netd-*``)."""
    return [t.name for t in threading.enumerate() if t.name.startswith("netd-")]


#: A well-formed two-channel, two-block table, and the ways a bootstrap's
#: ``cells`` header can be malformed, by the name of the worker handed it.
CELLS = encode_cells(CellTable(2, 2, 3, ((1, 2), (3, 4))))
MALFORMED_CELLS = {
    "ragged-row": {**CELLS, "e": [[1, 2], [3]]},
    "too-few-rows": {**CELLS, "e": [[1, 2]]},
    "too-wide": {**CELLS, "e": [[1, 2, 5], [3, 4, 6]]},
    "bool-entry": {**CELLS, "e": [[1, True], [3, 4]]},
    "float-entry": {**CELLS, "e": [[1, 2.0], [3, 4]]},
    "zero-channels": {**CELLS, "num_channels": 0, "e": []},
    "negative-blocks": {**CELLS, "num_blocks": -2},
    "no-table": None,
}


def _shard_bootstrap(name: str, cells, keypair) -> bytes:
    header = {"role": "shard", "fence_token": 3}
    if cells is not None:
        header["cells"] = cells
    return encode_control(
        header,
        encode_public_key(keypair.public_key),
        encode_shard_state(name, -1, (), ()),
    )


@pytest.fixture()
def authority(keypair):
    server = AuthorityServer()
    server.bind_rng(DeterministicRandomSource(seed=7))
    address = server.start()
    payload = _shard_bootstrap("shard-t", CELLS, keypair)
    server.register_bootstrap("shard-t", lambda: payload)
    for name, cells in MALFORMED_CELLS.items():
        bad = _shard_bootstrap(name, cells, keypair)
        server.register_bootstrap(name, lambda bad=bad: bad)
    stp_payload = encode_control(
        {
            "role": "stp",
            "key_bits": keypair.public_key.key_bits,
            "indicator_bound": 1 << 66,
            "sus": [],
        },
        encode_private_key(keypair.private_key),
    )
    server.register_bootstrap("stp-t", lambda: stp_payload)
    yield address
    server.stop()


class TestGracefulDrain:
    def test_sigterm_revokes_readiness_and_exits_zero(
        self, authority, tmp_path
    ):
        host, port = authority
        supervisor = ProcessSupervisor(workdir=tmp_path / "run", monitor=False)
        try:
            supervisor.start(
                "shard-t",
                "shard",
                extra_args=("--authority", f"{host}:{port}"),
            )
            supervisor.wait_ready(["shard-t"], timeout_s=60.0)
            ready = supervisor._ready_file("shard-t")
            assert ready.exists()
            supervisor.kill("shard-t", signal.SIGTERM)
            code = supervisor.wait_exit("shard-t", timeout_s=30.0)
            # 0, not a signal death: the worker drained and left on its
            # own terms — and took its readiness claim with it.
            assert code == 0
            assert not ready.exists()
        finally:
            supervisor.stop_all()


class TestMalformedCellTable:
    @pytest.mark.parametrize("name", sorted(MALFORMED_CELLS))
    def test_refused_before_readiness(self, authority, tmp_path, name):
        host, port = authority
        supervisor = ProcessSupervisor(workdir=tmp_path / "run", monitor=False)
        try:
            supervisor.start(
                name, "shard", extra_args=("--authority", f"{host}:{port}")
            )
            assert supervisor.wait_exit(name, timeout_s=30.0) == 1
            assert not supervisor._ready_file(name).exists()
            log = supervisor.log_file(name).read_text("utf-8")
            assert f"{name}: SerializationError: cell table" in log
        finally:
            supervisor.stop_all()


class TestStpWorkerSigterm:
    """The STP worker's shutdown closes its authority peer — a client
    whose blocking ``close()`` posts onto the worker's own loop.  Called
    on that loop it stalled shutdown for its full 5 s timeout, so every
    socket-plane teardown SIGKILLed the STP after the 3 s grace."""

    #: Cells of the request the ``filling`` fixture sends: as many
    #: obfuscators to fill, enough that the drain arrives mid-fill.
    CELLS = 4096

    @pytest.fixture()
    def stp_worker(self, authority, tmp_path):
        host, port = authority
        supervisor = ProcessSupervisor(workdir=tmp_path / "run", monitor=False)
        try:
            supervisor.start(
                "stp-t",
                "stp",
                extra_args=("--authority", f"{host}:{port}"),
            )
            supervisor.wait_ready(["stp-t"], timeout_s=60.0)
            yield supervisor
        finally:
            supervisor.stop_all()

    def test_sigterm_exits_zero_within_a_second(self, stp_worker):
        stp_worker.kill("stp-t", signal.SIGTERM)
        assert stp_worker.wait_exit("stp-t", timeout_s=1.0) == 0

    def test_stop_all_never_escalates_to_sigkill(self, stp_worker):
        process = stp_worker._handles["stp-t"].process
        stp_worker.stop_all()
        assert process.returncode == 0  # -9 if the grace period ran out

    @pytest.fixture()
    def filling(self, stp_worker, keypair):
        """The worker just answered a sign extraction and is at the start
        of over a second of ``h_n^s`` (4,096 obfuscators under a
        2048-bit SU key, from its comb table) filling its stock."""
        su_key = generate_keypair(
            2048, rng=DeterministicRandomSource("slow-su")
        ).public_key
        cell = keypair.public_key.encrypt(1, rng=DeterministicRandomSource(3))
        peer = PeerClient("stp-t", lambda: stp_worker.address("stp-t"))
        try:
            peer.transact(
                "register_su",
                encode_control({"su_id": "su-1"}, encode_public_key(su_key)),
            )
            request = SignExtractionRequest("r0", "su-1", ((cell,) * self.CELLS,))
            peer.transact("sign_req", request.to_bytes(), timeout=60.0)
            ping, _ = decode_control(peer.transact("ping", encode_control({})).payload)
            assert ping["stocked_nonces"] == self.CELLS
            assert ping["stocked_obfuscators"] < self.CELLS  # still at it
            yield stp_worker
        finally:
            peer.close()

    def test_sigterm_mid_fill_exits_zero_inside_the_grace(self, filling):
        """The fill sees ``stop`` within one chunk; the supervisor's
        SIGTERM grace is 3 s."""
        filling.kill("stp-t", signal.SIGTERM)
        assert filling.wait_exit("stp-t", timeout_s=2.0) == 0

    def test_stop_all_mid_fill_never_escalates_to_sigkill(self, filling):
        process = filling._handles["stp-t"].process
        filling.stop_all()
        assert process.returncode == 0


class TestStaleReadinessSweep:
    def test_reused_workdir_is_swept_on_construction(self, tmp_path):
        workdir = tmp_path / "run"
        workdir.mkdir()
        stale = workdir / "shard-9.ready.json"
        stale.write_text(
            json.dumps({"name": "shard-9", "port": 1, "pid": 1}),
            encoding="utf-8",
        )
        bystander = workdir / "shard-9.log"
        bystander.write_text("old logs survive", encoding="utf-8")
        supervisor = ProcessSupervisor(workdir=workdir, monitor=False)
        try:
            assert not stale.exists()
            assert bystander.exists()  # only readiness claims are swept
        finally:
            supervisor.stop_all()


class TestFailedEnrolmentTeardown:
    def test_failed_enrolment_leaves_no_live_worker(self, monkeypatch):
        """``build_socket_service`` spawns its workers before it enrols;
        an enrolment that raises must not strand them."""
        from repro.errors import TransportError
        from repro.netd import plane
        from repro.service.loadtest import LoadtestConfig

        built = []

        def crashed_worker(self, su, **kwargs):
            built.append(self)
            raise TransportError("worker crashed mid-enrolment")

        monkeypatch.setattr(
            plane.SocketClusterCoordinator, "enroll_su", crashed_worker
        )
        with pytest.raises(TransportError, match="mid-enrolment"):
            plane.build_socket_service(LoadtestConfig(shards=2, num_sus=1))
        (coordinator,) = built
        supervisor = coordinator.netd.supervisor
        assert supervisor.worker_names() == ("shard-0", "shard-1", "stp")
        assert not any(
            supervisor.is_running(name) for name in supervisor.worker_names()
        )
        assert _plane_threads() == []

    def test_failed_construction_leaves_no_live_worker(self, monkeypatch):
        """The constructor spawns its workers before the coordinator
        proper is built; a build hook that raises must not strand them."""
        from repro.errors import ConfigurationError
        from repro.netd import plane
        from repro.watch.scenario import ScenarioConfig, build_scenario

        supervisors = []
        start = ProcessSupervisor.start

        def recording_start(supervisor, *args, **kwargs):
            supervisors.append(supervisor)
            return start(supervisor, *args, **kwargs)

        def broken_hook(self, shard_id):
            raise ConfigurationError("no replica set today")

        monkeypatch.setattr(ProcessSupervisor, "start", recording_start)
        monkeypatch.setattr(
            plane.SocketClusterCoordinator, "_build_replica_set", broken_hook
        )
        with pytest.raises(ConfigurationError, match="no replica set today"):
            plane.SocketClusterCoordinator(
                build_scenario(ScenarioConfig(seed=7, num_sus=1)).environment,
                key_bits=256,
                rng=DeterministicRandomSource(seed=7),
            )
        supervisor = supervisors[0]
        assert supervisor.worker_names() == ("shard-0", "shard-1", "stp")
        assert not any(
            supervisor.is_running(name) for name in supervisor.worker_names()
        )
        assert _plane_threads() == []


class TestHealthCheck:
    def test_every_worker_names_its_arithmetic(self):
        """A worker that silently fell back to builtin ``pow`` is a 10x
        slower shard and sets the tail: ``ping`` says which arithmetic
        each process runs."""
        from repro.crypto import backend
        from repro.netd import plane
        from repro.service.loadtest import LoadtestConfig

        fixture = plane.build_socket_service(
            LoadtestConfig(shards=2, num_sus=1, key_bits=256)
        )
        try:
            health = plane.health_check(fixture)
            supervisor = fixture.coordinator.netd.supervisor
            workers = [supervisor._handles[n].process for n in supervisor.worker_names()]
            assert "netd-authority-accept" in _plane_threads()
        finally:
            fixture.close()
        assert sorted(health) == ["shard-0", "shard-1", "stp"]
        for entry in health.values():
            assert entry["reachable"] and entry["process_running"]
            assert entry["crypto_backend"] == backend.describe()
        # Teardown hygiene: no thread of the plane's, no child, survives.
        assert _plane_threads() == []
        assert [w.returncode for w in workers] == [0, 0, 0]

    def test_the_stp_threads_on_every_core_and_a_shard_does_not(self):
        """The STP's batches run on a thread per CPU it may use, and
        ``ping`` says how many (a count, nothing else); shard workers
        evaluate serially and say 1."""
        import os

        from repro.netd import plane
        from repro.service.loadtest import LoadtestConfig

        with plane.build_socket_service(
            LoadtestConfig(shards=1, num_sus=1, key_bits=256)
        ) as fixture:
            health = plane.health_check(fixture)
        assert health["stp"]["executor_threads"] == len(os.sched_getaffinity(0))
        assert health["shard-0"]["executor_threads"] == 1

    def test_stopped_worker_reads_unreachable_not_an_exception(self, monkeypatch):
        """A SIGSTOPped worker accepts (the kernel does) and never
        answers: the ping times out as a dead link — typed, and its
        half-used connection is gone — so the report says so, and the
        next transact after SIGCONT dials afresh."""
        from repro.netd import plane
        from repro.service.loadtest import LoadtestConfig

        monkeypatch.setattr(plane, "HEALTH_TIMEOUT_S", 0.5)
        metrics = plane.MetricsRegistry()
        fixture = plane.build_socket_service(
            LoadtestConfig(shards=1, num_sus=1, key_bits=256), metrics=metrics
        )
        netd = fixture.coordinator.netd
        dials = metrics.counter("netd_dials_total", peer="shard-0")
        try:
            netd.supervisor.kill("shard-0", signal.SIGSTOP)
            try:
                health = plane.health_check(fixture)
            finally:
                netd.supervisor.kill("shard-0", signal.SIGCONT)
            assert health["shard-0"]["process_running"] is True
            assert health["shard-0"]["reachable"] is False
            assert health["stp"]["reachable"] is True
            before = dials.value
            assert netd.transport.transact("shard-0", "ping", b"").kind == "ok"
            assert dials.value == before + 1
        finally:
            fixture.close()
