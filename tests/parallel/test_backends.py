"""Tests for the execution-backend layer (serial / pool / socket).

The socket tests spawn real ``python -m repro.parallel.worker`` processes,
which are *fresh* interpreters (not forks), so every task function used with
the socket backend must be importable there: builtins (``abs``), stdlib
callables (``math.sqrt``, ``os._exit``) and :mod:`repro` functions qualify;
helpers defined in this test module do not.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import socket
import subprocess
import sys

import pytest

from repro.cli import build_engine, build_parser
from repro.errors import WorkerError
from repro.parallel import (
    ProcessPoolBackend,
    SerialBackend,
    SocketBackend,
    SweepEngine,
    SweepTask,
    TaskOutcome,
    socket_backend_from_spec,
)
from repro.parallel.protocol import ProtocolError, parse_address, recv_message, send_message
from repro.simulation.runner import run_replications
from repro.simulation.simulator import SimulationConfig

#: Generous handshake budget for the 1-CPU CI box (workers import numpy).
ACCEPT_TIMEOUT = 60.0


def _socket_engine(workers: int = 2, **kwargs) -> SweepEngine:
    backend = SocketBackend(spawn_workers=workers, accept_timeout=ACCEPT_TIMEOUT, **kwargs)
    return SweepEngine(backend=backend)


# Module-level helpers for the serial/pool backends (fork start method).

def _square(x):
    return x * x


def _explode(x):
    raise ValueError(f"task payload {x} is cursed")


class TestProtocol:
    def test_parse_address(self):
        assert parse_address("example.org:7777") == ("example.org", 7777)
        assert parse_address(":5555") == ("127.0.0.1", 5555)
        assert parse_address(":5555", default_host="0.0.0.0") == ("0.0.0.0", 5555)

    def test_parse_address_rejects_garbage(self):
        for bad in ("no-port", "host:", "host:abc", "host:-2", "host:70000"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, ("task", 3, {"payload": [1.5, None]}))
            assert recv_message(b) == ("task", 3, {"payload": [1.5, None]})
        finally:
            a.close()
            b.close()

    def test_closed_peer_raises_connection_error(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(ConnectionError):
            recv_message(b)
        b.close()

    def test_garbage_frame_raises_protocol_error(self):
        a, b = socket.socketpair()
        try:
            payload = b"this is not a pickle"
            a.sendall(len(payload).to_bytes(8, "big") + payload)
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            a.close()
            b.close()


    def test_oversized_frame_rejected_before_its_payload_is_read(self):
        from repro.parallel.protocol import MAX_FRAME_BYTES

        a, b = socket.socketpair()
        try:
            # Only the header is sent: reading the payload would block, and
            # the timeout turns a missing size check into a test failure.
            b.settimeout(5.0)
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_message(b)
        finally:
            a.close()
            b.close()


class TestBackendInterface:
    def test_serial_backend_yields_in_task_order(self):
        tasks = [SweepTask(fn=_square, args=(i,)) for i in range(4)]
        outcomes = list(SerialBackend().execute(tasks))
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert all(o.error is None for o in outcomes)

    def test_serial_backend_stops_at_first_error(self):
        tasks = [
            SweepTask(fn=_square, args=(2,)),
            SweepTask(fn=_explode, args=(0,)),
            SweepTask(fn=_square, args=(3,)),
        ]
        outcomes = list(SerialBackend().execute(tasks))
        assert len(outcomes) == 2
        assert isinstance(outcomes[1].error, ValueError)
        assert not outcomes[1].infrastructure

    def test_pool_backend_covers_every_task(self):
        tasks = [SweepTask(fn=_square, args=(i,)) for i in range(6)]
        outcomes = list(ProcessPoolBackend(jobs=2).execute(tasks))
        assert sorted(o.index for o in outcomes) == list(range(6))
        assert {o.index: o.value for o in outcomes} == {i: i * i for i in range(6)}

    def test_pool_backend_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=0)

    def test_task_outcome_defaults(self):
        outcome = TaskOutcome(index=5, value=42)
        assert outcome.error is None and not outcome.infrastructure


class TestEngineBackendSelection:
    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SweepEngine(backend="carrier-pigeon")

    def test_unknown_backend_assigned_after_construction_rejected_at_run(self):
        # ``backend`` is a plain attribute, so the run checks the name again.
        engine = SweepEngine()
        engine.backend = "carrier-pigeon"
        with pytest.raises(ValueError, match="unknown backend 'carrier-pigeon'"):
            engine.run([SweepTask(fn=abs, args=(-1,)), SweepTask(fn=abs, args=(-2,))])

    def test_auto_mode_uses_serial_for_single_task(self):
        # Lambdas cannot be pickled, so succeeding proves no pool was used.
        assert SweepEngine(jobs=4).map(lambda x: -x, [5]) == [-5]

    def test_explicit_serial_backend_instance(self):
        engine = SweepEngine(backend=SerialBackend())
        assert engine.map(lambda x: x + 1, [1, 2]) == [2, 3]  # repro: noqa REP201 -- serial backend

    def test_explicit_pool_name_forces_pool(self):
        # With a forced pool backend even jobs=1 pickles tasks into a
        # worker process, so a lambda must fail...
        with pytest.raises(Exception):
            SweepEngine(jobs=1, backend="pool").map(lambda x: x, [1, 2])
        # ... while a picklable function works.
        assert SweepEngine(jobs=1, backend="pool").map(_square, [1, 2]) == [1, 4]

    def test_unpicklable_pool_task_never_reaches_the_executor(self):
        # Regression: pickling errors used to fire on the executor's
        # queue-feeder thread, which races the manager thread's shutdown
        # bookkeeping on CPython 3.11 — rarely stranding a resolved future
        # in pending_work_items, after which interpreter exit hung forever
        # joining the manager thread.  The backend now rejects the task up
        # front: same original-type error, but no pool (and no worker
        # process) is ever created for the doomed sweep.
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
            SweepEngine(jobs=2, backend="pool").map(lambda x: x, [1, 2])
        spawned = {p.pid for p in multiprocessing.active_children()} - before
        assert not spawned


class TestSocketBackendSpec:
    def test_default_spawns_workers(self):
        backend = socket_backend_from_spec(None, default_workers=3)
        assert backend.spawn_workers == 3 and not backend.worker_addresses

    def test_integer_spec(self):
        backend = socket_backend_from_spec("4")
        assert backend.spawn_workers == 4

    def test_address_list_spec(self):
        backend = socket_backend_from_spec("alpha:7777, beta:8888")
        assert backend.spawn_workers == 0
        assert backend.worker_addresses == [("alpha", 7777), ("beta", 8888)]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            socket_backend_from_spec("0")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            socket_backend_from_spec("not-an-address")

    def test_empty_entries_rejected(self):
        # Silently dropping blanks used to hide typos until the dial path
        # failed much later; now every blank entry is a clear ValueError.
        for spec in ("a:1,,b:2", "a:1,", ",a:1", " , "):
            with pytest.raises(ValueError, match="empty entry"):
                socket_backend_from_spec(spec)

    def test_malformed_entry_names_the_offender(self):
        with pytest.raises(ValueError, match="'b'"):
            socket_backend_from_spec("a:1,b")

    def test_port_zero_rejected(self):
        # Port 0 parses (it is valid for *binding*) but can never be
        # dialled; reject it here instead of deep inside _dial.
        with pytest.raises(ValueError, match="port 0"):
            socket_backend_from_spec("host:0")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SocketBackend(spawn_workers=0)
        with pytest.raises(ValueError):
            SocketBackend(max_task_attempts=0)

    def test_robustness_knob_validation(self):
        with pytest.raises(ValueError, match="connect_timeout"):
            SocketBackend(spawn_workers=1, connect_timeout=0.0)
        with pytest.raises(ValueError, match="dial_attempts"):
            SocketBackend(spawn_workers=1, dial_attempts=0)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            SocketBackend(spawn_workers=1, heartbeat_interval=-1.0)
        with pytest.raises(ValueError, match="dead_peer_timeout"):
            SocketBackend(spawn_workers=1, dead_peer_timeout=0.0)

    def test_effective_dead_peer_timeout(self):
        # Explicit setting wins; else 4x the heartbeat with a 20 s floor;
        # disabling heartbeats disables dead-peer detection entirely.
        assert SocketBackend(
            spawn_workers=1, dead_peer_timeout=7.0
        ).effective_dead_peer_timeout == 7.0
        assert SocketBackend(
            spawn_workers=1, heartbeat_interval=10.0
        ).effective_dead_peer_timeout == 40.0
        assert SocketBackend(
            spawn_workers=1, heartbeat_interval=1.0
        ).effective_dead_peer_timeout == 20.0
        assert SocketBackend(
            spawn_workers=1, heartbeat_interval=0.0
        ).effective_dead_peer_timeout == 0.0

    def test_launch_commands_carry_heartbeat_interval(self):
        backend = SocketBackend(spawn_workers=2, heartbeat_interval=2.5)
        commands = backend.worker_launch_commands("127.0.0.1", 7777)
        assert len(commands) == 2
        for argv, _env in commands:
            flag = argv.index("--heartbeat-interval")
            assert argv[flag + 1] == "2.5"


class TestCliBackendSelection:
    def test_backend_and_workers_flags_parse(self):
        args = build_parser().parse_args(
            ["figure", "6", "--simulate", "--backend", "socket", "--workers", "2"]
        )
        assert args.backend == "socket" and args.workers == "2"

    def test_backend_flags_on_every_sweep_command(self):
        parser = build_parser()
        for argv in (
            ["figure", "4", "--backend", "serial"],
            ["validate", "--backend", "pool", "--jobs", "2"],
            ["report", "--backend", "serial"],
            ["run", "case-1", "--backend", "socket"],
        ):
            assert parser.parse_args(argv).backend == argv[argv.index("--backend") + 1]

    def test_build_engine_maps_socket_spec(self):
        args = build_parser().parse_args(
            ["validate", "--backend", "socket", "--workers", "host:9999"]
        )
        engine = build_engine(args)
        assert isinstance(engine.backend, SocketBackend)
        assert engine.backend.worker_addresses == [("host", 9999)]

    def test_build_engine_defaults_socket_workers_to_jobs(self):
        args = build_parser().parse_args(["validate", "--backend", "socket", "--jobs", "3"])
        engine = build_engine(args)
        assert isinstance(engine.backend, SocketBackend)
        assert engine.backend.spawn_workers == 3

    def test_build_engine_socket_jobs_zero_means_all_cores(self):
        args = build_parser().parse_args(["validate", "--backend", "socket", "--jobs", "0"])
        engine = build_engine(args)
        assert engine.backend.spawn_workers == (os.cpu_count() or 1)

    def test_workers_without_socket_backend_rejected(self):
        args = build_parser().parse_args(["validate", "--workers", "2"])
        with pytest.raises(SystemExit):
            build_engine(args)

    def test_plain_backend_names_pass_through(self):
        args = build_parser().parse_args(["validate", "--backend", "pool", "--jobs", "2"])
        engine = build_engine(args)
        assert engine.backend == "pool" and engine.jobs == 2


class TestSocketExecution:
    def test_results_match_serial(self):
        items = [-3, -1, -4, -1, -5]
        assert _socket_engine(workers=2).map(abs, items) == [3, 1, 4, 1, 5]

    def test_unpicklable_task_fails_like_the_pool_backend(self):
        # A lambda cannot be shipped to a socket worker; the engine must
        # raise a pickling error for that task (not hang or blame the
        # worker) while the healthy tasks still execute.
        engine = _socket_engine(workers=2)
        with pytest.raises((pickle.PicklingError, TypeError, AttributeError)) as excinfo:
            engine.run(
                [
                    SweepTask(fn=abs, args=(-1,)),
                    SweepTask(fn=lambda x: x, args=(2,), label="unpicklable"),  # repro: noqa REP201
                    SweepTask(fn=abs, args=(-3,)),
                ]
            )
        assert not isinstance(excinfo.value, WorkerError)

    def test_exotic_serialisation_failure_does_not_hang(self):
        # A payload whose __reduce__ raises something outside the standard
        # pickling exceptions must still be reported (not orphan the
        # claimed task and hang the coordinator forever).
        class EvilPayload:
            def __reduce__(self):
                raise RuntimeError("payload refuses to serialise")

        with pytest.raises(RuntimeError, match="refuses to serialise"):
            _socket_engine(workers=1).run(
                [SweepTask(fn=abs, args=(-1,)), SweepTask(fn=abs, args=(EvilPayload(),))]
            )

    def test_undeserialisable_reply_is_a_task_error_not_worker_loss(self):
        # A worker whose reply frame does not unpickle (version skew in
        # multi-host mode) must surface as a ProtocolError for that task,
        # not burn the requeue budget and blame a lost worker.
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]

        def fake_worker():
            conn, _peer = server.accept()
            with conn:
                send_message(conn, ("hello", {"pid": 0, "host": "fake"}))
                recv_message(conn)  # the task frame
                garbage = b"not a pickle"
                conn.sendall(len(garbage).to_bytes(8, "big") + garbage)

        import threading

        thread = threading.Thread(target=fake_worker, daemon=True)
        thread.start()
        try:
            backend = SocketBackend(
                worker_addresses=[(host, port)], accept_timeout=ACCEPT_TIMEOUT
            )
            with pytest.raises(ProtocolError):
                SweepEngine(backend=backend).map(abs, [-1])
        finally:
            thread.join(timeout=10)
            server.close()

    def test_task_error_keeps_original_type(self):
        # math.sqrt(-1) raises ValueError inside the worker; the pickled
        # exception must resurface unchanged, annotated with the task id.
        with pytest.raises(ValueError) as excinfo:
            _socket_engine(workers=1).map(math.sqrt, [4.0, -1.0])
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("task #1" in note for note in notes)

    def test_worker_loss_raises_worker_error(self):
        # os._exit kills the worker before it can reply; the task is
        # requeued onto the next worker, which also dies — once no worker
        # is left (and none can rejoin) the engine must raise WorkerError.
        with pytest.raises(WorkerError):
            _socket_engine(workers=2).map(os._exit, [3, 3, 3])

    def test_unreachable_worker_address_raises_worker_error(self):
        # Nothing listens on the reserved discard port.
        backend = SocketBackend(worker_addresses=[("127.0.0.1", 9)], accept_timeout=2.0)
        with pytest.raises(WorkerError):
            SweepEngine(backend=backend).map(abs, [-1])

    def test_listen_daemon_dial_out(self, tmp_path):
        # Multi-host mode on localhost: a --listen daemon serves two
        # successive sweeps dialled out to it.
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(src_root, "src"), env.get("PYTHONPATH")) if p
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel.worker", "--listen", "127.0.0.1:0",
             "--max-sessions", "2"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = daemon.stdout.readline().strip()
            assert banner.startswith("listening on ")
            address = banner.split()[-1]
            backend = SocketBackend(worker_addresses=[address], accept_timeout=ACCEPT_TIMEOUT)
            engine = SweepEngine(backend=backend)
            assert engine.map(abs, [-5, -6]) == [5, 6]
            assert engine.map(abs, [-7]) == [7]
        finally:
            daemon.terminate()
            daemon.wait(timeout=10)


class TestBackendBitIdentity:
    """The acceptance criterion: serial == pool == socket, by equality."""

    def test_replication_sweep_identical_across_backends(self, small_case1_system):
        config = SimulationConfig(num_messages=300, seed=11)
        serial = run_replications(small_case1_system, config, replications=3, jobs=1)
        pooled = run_replications(small_case1_system, config, replications=3, jobs=3)
        socketed = run_replications(
            small_case1_system, config, replications=3, engine=_socket_engine(workers=2)
        )
        assert serial.per_replication == pooled.per_replication == socketed.per_replication
        assert serial.mean_latency_s == pooled.mean_latency_s == socketed.mean_latency_s
        assert serial.latency_interval == pooled.latency_interval == socketed.latency_interval

    def test_figure_sweep_identical_across_backends(self):
        from repro.experiments.figures import run_figure

        kwargs = dict(
            include_simulation=True,
            cluster_counts=[2, 4],
            message_sizes=[512],
            simulation_messages=200,
            replications=2,
        )
        serial = run_figure(4, jobs=1, **kwargs)
        pooled = run_figure(4, jobs=2, **kwargs)
        socketed = run_figure(4, engine=_socket_engine(workers=2), **kwargs)
        assert serial.points == pooled.points == socketed.points
        # Distinct sweep points must not reuse each other's latency stream:
        # identical values would indicate shared seeds.
        latencies = [p.simulation_latency_ms for p in serial.points]
        assert len(set(latencies)) == len(latencies)

    def test_backend_parameter_reaches_run_replications(self, small_case1_system):
        config = SimulationConfig(num_messages=200, seed=5)
        by_jobs = run_replications(small_case1_system, config, replications=2, jobs=1)
        by_backend = run_replications(
            small_case1_system, config, replications=2, backend="serial"
        )
        assert by_jobs.per_replication == by_backend.per_replication
