"""Tests for the self-provisioning SSH execution backend.

Real multi-host SSH is not available on the CI box, so the backend runs
against a *stub* ``ssh``: a shell script that drops the options and host
argument and executes the remote command locally.  Everything else — the
coordinator, the inbound worker handshake, requeue-on-loss, teardown — is
exactly the production code path.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

import _ssh_test_helpers

from repro.cli import build_engine, build_parser
from repro.parallel import (
    SSHBackend,
    SweepEngine,
    SweepTask,
    ssh_backend_from_spec,
)
from repro.simulation.runner import run_replications
from repro.simulation.simulator import SimulationConfig

#: Generous worker-join budget for the 1-CPU CI box (workers import numpy).
ACCEPT_TIMEOUT = 60.0

_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(_TESTS_DIR)), "src")

STUB_SSH = """#!/bin/sh
# stub ssh: record our pid, drop options and the host argument, run the
# "remote" command locally.
echo $$ >> {pid_log}
while [ "$#" -gt 0 ]; do
  case "$1" in
    -o) shift 2 ;;
    -*) shift ;;
    *) break ;;
  esac
done
host="$1"; shift
exec sh -c "$*"
"""


@pytest.fixture
def stub_ssh(tmp_path):
    """Path of a stub ssh executable (and the pid log it appends to)."""
    pid_log = tmp_path / "ssh_pids.log"
    script = tmp_path / "ssh"
    script.write_text(STUB_SSH.format(pid_log=pid_log))
    script.chmod(0o755)
    return str(script), str(pid_log)


def _ssh_backend(stub, hosts=("localhost", "localhost"), **kwargs):
    script, _pid_log = stub
    kwargs.setdefault("remote_pythonpath", os.pathsep.join((_SRC_DIR, _TESTS_DIR)))
    return SSHBackend(
        hosts=list(hosts),
        ssh_command=[script],
        remote_python=sys.executable,
        accept_timeout=ACCEPT_TIMEOUT,
        **kwargs,
    )


class TestSSHBackendConstruction:
    def test_spec_parses_host_list(self):
        backend = ssh_backend_from_spec("hostA, user@hostB")
        assert backend.hosts == ["hostA", "user@hostB"]
        assert backend.spawn_workers == 2

    def test_spec_rejects_empty_entries(self):
        for spec in (None, "", "hostA,,hostB", "hostA,", ",hostA"):
            with pytest.raises(ValueError):
                ssh_backend_from_spec(spec)

    def test_spec_rejects_socket_syntax(self):
        with pytest.raises(ValueError, match="socket-backend syntax"):
            ssh_backend_from_spec("hostA:7777")

    def test_ipv6_literals_are_valid_hosts(self):
        # '::1' is in _LOCAL_HOSTS, so it must be constructible: only the
        # single-colon HOST:PORT shape is socket-backend syntax.
        backend = SSHBackend(hosts=["::1", "user@fe80::2"])
        assert backend.hosts == ["::1", "user@fe80::2"]
        assert SSHBackend(hosts=["::1"]).bind == ("127.0.0.1", 0)

    def test_spec_rejects_worker_counts(self):
        # '--workers 4' is socket-backend spawn-count syntax; as an SSH
        # "hostname" it would only fail later with a confusing dial error.
        for spec in ("4", "hostA,4"):
            with pytest.raises(ValueError, match="worker count"):
                ssh_backend_from_spec(spec)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SSHBackend(hosts=[])
        with pytest.raises(ValueError):
            SSHBackend(hosts=["ok host"])
        with pytest.raises(ValueError):
            SSHBackend(hosts=["ok"], ssh_command=[])

    def test_all_local_hosts_bind_loopback_only(self):
        # No remote worker needs to dial in, so the pickle-speaking
        # listener must not be exposed on every interface.
        assert SSHBackend(hosts=["localhost", "127.0.0.1"]).bind == ("127.0.0.1", 0)
        assert SSHBackend(hosts=["far.example.org"]).bind == ("0.0.0.0", 0)
        explicit = SSHBackend(hosts=["localhost"], bind=("10.0.0.5", 0))
        assert explicit.bind == ("10.0.0.5", 0)

    def test_advertised_host_defaults(self):
        local = SSHBackend(hosts=["localhost", "user@127.0.0.1"])
        assert local.advertised_host("0.0.0.0") == "127.0.0.1"
        pinned = SSHBackend(hosts=["far.example.org"], advertise_host="10.0.0.5")
        assert pinned.advertised_host("0.0.0.0") == "10.0.0.5"

    def test_launch_commands_shape(self):
        backend = SSHBackend(hosts=["user@hostA"], remote_pythonpath="/opt/repro/src")
        (argv, env), = backend.worker_launch_commands("coord.example", 7777)
        assert argv[:3] == ["ssh", "-o", "BatchMode=yes"]
        assert argv[-2] == "user@hostA"
        assert "repro.parallel.worker" in argv[-1]
        assert "--connect coord.example:7777" in argv[-1]
        assert "PYTHONPATH=/opt/repro/src" in argv[-1]
        assert env is None  # ssh client inherits the caller's environment


class TestSSHExecution:
    def test_results_match_serial(self, stub_ssh):
        engine = SweepEngine(backend=_ssh_backend(stub_ssh))
        assert engine.map(abs, [-3, -1, -4, -1, -5]) == [3, 1, 4, 1, 5]

    def test_replication_sweep_bit_identical_to_serial(self, stub_ssh, small_case1_system):
        config = SimulationConfig(num_messages=200, seed=11)
        serial = run_replications(small_case1_system, config, replications=2, jobs=1)
        sshed = run_replications(
            small_case1_system, config, replications=2,
            engine=SweepEngine(backend=_ssh_backend(stub_ssh)),
        )
        assert serial.per_replication == sshed.per_replication
        assert serial.mean_latency_s == sshed.mean_latency_s

    def test_sweep_survives_loss_of_one_worker(self, stub_ssh, tmp_path):
        # The first worker to claim the poisoned task hard-exits (host
        # loss); the task must be requeued onto the surviving worker and
        # the sweep still complete with full results.
        sentinel = str(tmp_path / "crash.sentinel")
        engine = SweepEngine(backend=_ssh_backend(stub_ssh))
        tasks = [SweepTask(fn=abs, args=(-i,), label=f"abs[{i}]") for i in range(4)]
        tasks.insert(2, SweepTask(
            fn=_ssh_test_helpers.exit_once, args=(7, sentinel), label="poison"
        ))
        results = engine.run(tasks)
        assert results == [0, 1, -7, 2, 3]
        assert os.path.exists(sentinel)

    def test_teardown_leaves_no_workers_behind(self, stub_ssh):
        script, pid_log = stub_ssh
        engine = SweepEngine(backend=_ssh_backend(stub_ssh))
        assert engine.map(abs, [-1, -2]) == [1, 2]
        pids = [int(line) for line in open(pid_log).read().split()]
        assert len(pids) == 2  # one ssh per host
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [pid for pid in pids if _pid_alive(pid)]
            if not alive:
                return
            time.sleep(0.1)
        pytest.fail(f"ssh-launched workers still alive after teardown: {alive}")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class TestSSHCli:
    def test_build_engine_maps_ssh_spec(self, monkeypatch, stub_ssh):
        script, _pid_log = stub_ssh
        monkeypatch.setenv("REPRO_SSH_COMMAND", script)
        monkeypatch.setenv("REPRO_SSH_PYTHON", sys.executable)
        monkeypatch.setenv("REPRO_SSH_PYTHONPATH", _SRC_DIR)
        args = build_parser().parse_args(
            ["validate", "--backend", "ssh", "--workers", "localhost,localhost"]
        )
        engine = build_engine(args)
        assert isinstance(engine.backend, SSHBackend)
        assert engine.backend.hosts == ["localhost", "localhost"]
        assert engine.backend.ssh_command == [script]
        assert engine.backend.remote_python == sys.executable
        assert engine.backend.remote_pythonpath == _SRC_DIR

    def test_ssh_backend_requires_workers(self):
        args = build_parser().parse_args(["validate", "--backend", "ssh"])
        with pytest.raises(SystemExit):
            build_engine(args)

    def test_bad_ssh_spec_is_a_clean_cli_error(self):
        args = build_parser().parse_args(
            ["validate", "--backend", "ssh", "--workers", "hostA,,hostB"]
        )
        with pytest.raises(SystemExit):
            build_engine(args)

    def test_bare_ssh_name_needs_hosts(self):
        engine = SweepEngine(backend="ssh")
        with pytest.raises(ValueError, match="needs a host list"):
            engine.map(abs, [-1, -2])
