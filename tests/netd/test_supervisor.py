"""Supervisor unit behaviour: readiness, failure surfacing, addressing.

The full lifecycle (spawn → bootstrap → serve → SIGKILL → restart) is
exercised end to end by ``test_process_chaos.py``; these tests pin the
edges that don't need a whole deployment.
"""

import json

import pytest

from repro.errors import TransportError
from repro.netd.supervisor import ProcessSupervisor


@pytest.fixture()
def supervisor(tmp_path):
    sup = ProcessSupervisor(workdir=tmp_path / "run", monitor=False)
    yield sup
    sup.stop_all()


class TestFailureSurfacing:
    def test_worker_that_dies_before_ready_reports_its_stderr(self, supervisor):
        # A shard worker without --authority exits immediately with a
        # typed complaint; wait_ready must surface it, not time out.
        supervisor.start("shard-x", "shard", extra_args=())
        with pytest.raises(TransportError, match="--authority"):
            supervisor.wait_ready(["shard-x"], timeout_s=30.0)

    def test_worker_roles_are_shard_and_stp_only(self, capsys):
        from repro.netd import worker

        with pytest.raises(SystemExit) as exit_info:
            worker.main(["--role", "broker", "--name", "b"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'broker'" in capsys.readouterr().err

    def test_unknown_worker_name(self, supervisor):
        with pytest.raises(TransportError, match="no supervised worker"):
            supervisor.address("ghost")
        with pytest.raises(TransportError, match="no supervised worker"):
            supervisor.ensure_running("ghost")


class TestAddressing:
    def test_stale_ready_file_from_dead_pid_is_never_trusted(self, supervisor):
        supervisor.start("shard-y", "shard", extra_args=())
        handle = supervisor._handles["shard-y"]
        handle.process.wait(timeout=30)  # exits: no --authority
        # Forge a readiness file claiming the (now dead) pid bound a port.
        supervisor._ready_file("shard-y").write_text(
            json.dumps(
                {"name": "shard-y", "port": 45678, "pid": handle.process.pid}
            ),
            encoding="utf-8",
        )
        assert not supervisor.is_running("shard-y")
        with pytest.raises(TransportError, match="no live address"):
            supervisor.address("shard-y")

    def test_worker_names_sorted(self, supervisor):
        supervisor.start("b", "shard", extra_args=())
        supervisor.start("a", "shard", extra_args=())
        assert supervisor.worker_names() == ("a", "b")
        assert supervisor.restarts("a") == 0
