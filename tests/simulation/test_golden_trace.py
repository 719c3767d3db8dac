"""Golden-trace regression tests for the optimized simulation layer.

``golden_trace.json`` was captured from the simulator *before* the PR-4
performance work (virtual FIFO service centres, batched variate streams,
slotted events, array-backed monitors) landed.  Every float in the fixture
is a ``float.hex()`` string, and every comparison here is exact equality:
the optimizations must reproduce the original per-message timings — not
just the means — bit for bit, for every seed, on every execution backend.

The ``workload_*`` entries pin one closed-loop workload class each (hot-spot
destinations, bursty arrivals, node churn, link outages, drop policies).
They were captured from the generator-based processors, before every
closed-loop workload moved onto one flat event loop, and hold every
:class:`~repro.simulation.results.SimulationResult` field as
``float.hex()`` plus the measured messages' timing rows.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from repro.cluster.presets import paper_evaluation_system
from repro.experiments.scenarios import PaperParameters, get_scenario
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.parallel import SweepEngine, SweepTask
from repro.parallel.backends import ProcessPoolBackend, SerialBackend, SocketBackend
from repro.rng import RandomStreams
from repro.simulation.fault_spec import FaultSpec
from repro.simulation.runner import run_message_trace_task, run_simulation_task
from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig
from repro.workload.destinations import LocalizedDestinations

FIXTURE = Path(__file__).parent / "golden_trace.json"

#: Generous handshake budget for the 1-CPU CI box (workers import numpy).
ACCEPT_TIMEOUT = 60.0


@pytest.fixture(scope="module")
def golden() -> dict:
    with FIXTURE.open() as handle:
        return json.load(handle)


def _system():
    return paper_evaluation_system(2, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=8)


#: Closed-loop workload classes pinned by the ``workload_<name>`` fixture
#: entries: each registered scenario workload (destinations, arrivals,
#: faults) that the three ``multicluster_*`` entries do not cover, plus
#: ``both-drop`` (node *and* link faults under the drop policy), which no
#: scenario runs.  Value: (scenario, failures override or None, messages).
WORKLOAD_CASES = {
    "hotspot": ("hotspot", None, 200),
    "bursty-hyper": ("bursty-hyper", None, 200),
    "bursty-erlang": ("bursty-erlang", None, 200),
    "das2-churn": ("das2-churn", None, 200),
    "llnl-failures": ("llnl-failures", None, 200),
    "case-1-lossy": ("case-1-lossy", None, 200),
    "both-drop": (
        "case-1", FaultSpec(mtbf_s=15.0, mttr_s=1.5, targets="both", policy="drop"), 200,
    ),
}

#: Shrinks the paper-platform scenarios to 16 nodes, so a few hundred
#: messages span many failure/repair cycles (the DAS-2 and LLNL presets
#: keep their fixed shapes).
SMALL_PLATFORM = PaperParameters(total_processors=16)


def workload_task_args(name: str) -> tuple:
    """``(system, config, destination_policy, arrival_factory)`` of one case."""
    scenario_name, failures, messages = WORKLOAD_CASES[name]
    scenario = get_scenario(scenario_name)
    system = scenario.system(scenario.smoke_cluster_counts[0], SMALL_PLATFORM)
    policy = None
    if scenario.destination_policy is not None:
        policy = scenario.destination_policy([c.num_processors for c in system.clusters])
    config = SimulationConfig(
        architecture=scenario.default_architecture,
        message_bytes=512.0,
        num_messages=messages,
        seed=31,
        failures=failures if failures is not None else scenario.default_failures,
    )
    return system, config, policy, scenario.arrival_factory


def hexed(value):
    """``value`` with every float (nested in dicts/dataclasses) as ``float.hex()``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if is_dataclass(value):
        return {field.name: hexed(getattr(value, field.name)) for field in fields(value)}
    return value


def _assert_simulation_matches(golden_case: dict, system, config, policy=None) -> None:
    sim = MultiClusterSimulator(system, config, policy)
    result = sim.run()
    assert result.mean_latency_s.hex() == golden_case["mean_latency_s"]
    assert result.simulated_time_s.hex() == golden_case["simulated_time_s"]
    assert result.measured_messages == golden_case["measured"]
    assert result.completed_messages == golden_case["completed"]
    assert result.remote_fraction.hex() == golden_case["remote_fraction"]
    for name, value in result.utilizations.items():
        assert value.hex() == golden_case["utilizations"][name], name
    for name, value in result.mean_occupancies.items():
        assert value.hex() == golden_case["occupancies"][name], name
    assert len(sim.sink.messages) == len(golden_case["messages"])
    for message, expected in zip(sim.sink.messages, golden_case["messages"]):
        assert message.ident == expected["ident"]
        assert list(message.source) == expected["src"]
        assert list(message.destination) == expected["dst"]
        assert message.created_at.hex() == expected["created"]
        assert message.completed_at.hex() == expected["completed"]
        assert message.path == expected["path"]


class TestGoldenMultiClusterSimulator:
    def test_nonblocking_exponential(self, golden):
        _assert_simulation_matches(
            golden["multicluster_nonblocking_exponential"],
            _system(),
            SimulationConfig(num_messages=250, seed=1234),
        )

    def test_blocking_deterministic_service(self, golden):
        """Deterministic service produces heavy event-time ties — the case
        most likely to expose event-ordering drift in a rewritten hot path."""
        _assert_simulation_matches(
            golden["multicluster_blocking_deterministic"],
            _system(),
            SimulationConfig(
                architecture="blocking", exponential_service=False, num_messages=200, seed=77
            ),
        )

    def test_localized_policy_scalar_fallback(self, golden):
        """Localized policies interleave bernoulli and integer draws on one
        stream, so they must take the scalar (non-batched) chooser path."""
        _assert_simulation_matches(
            golden["multicluster_localized_policy"],
            _system(),
            SimulationConfig(num_messages=150, seed=5),
            LocalizedDestinations([4, 4], locality=0.5),
        )

    @pytest.mark.parametrize("name", list(WORKLOAD_CASES))
    def test_workload_class(self, golden, name):
        """Every SimulationResult field (availability and drops included)
        and every measured message's timing, per workload class."""
        expected = golden[f"workload_{name}"]
        args = workload_task_args(name)
        assert hexed(run_simulation_task(*args)) == expected["result"]
        rows = run_message_trace_task(*args)
        assert [list(row) for row in rows] == expected["messages"]

    def test_online_sink_trace_rows_match_workload_golden(self, golden):
        """run_message_trace_task swaps an online sink in after construction;
        the rows of a fault workload must not move."""
        system, config, policy, factory = workload_task_args("both-drop")
        online = replace(config, stats_mode="online")
        rows = run_message_trace_task(system, online, policy, factory)
        assert [list(row) for row in rows] == golden["workload_both-drop"]["messages"]


class TestGoldenRandomStreams:
    """The batched-RNG determinism guarantee, pinned draw by draw."""

    def test_draw_sequences(self, golden):
        expected = golden["random_streams"]
        streams = RandomStreams(seed=9)
        assert [
            streams.stream("arrivals-0-0").exponential_rate(0.25).hex() for _ in range(12)
        ] == expected["exponential_rate_0.25"]
        assert [
            streams.stream("service-icn2").exponential(0.001).hex() for _ in range(12)
        ] == expected["exponential_0.001"]
        assert [
            streams.stream("destination-0-0").integer(0, 6) for _ in range(16)
        ] == expected["integer_0_6"]
        assert [
            streams.stream("u").uniform(0.0, 1.0).hex() for _ in range(8)
        ] == expected["uniform_0_1"]
        assert [
            streams.stream("b").bernoulli(0.3) for _ in range(12)
        ] == expected["bernoulli_0.3"]
        assert [
            streams.stream("e").erlang(3, 2.0).hex() for _ in range(8)
        ] == expected["erlang_3_2.0"]

    def test_batched_streams_reproduce_pinned_sequences(self, golden):
        """The same pinned sequences, served through the batched streams."""
        expected = golden["random_streams"]
        streams = RandomStreams(seed=9)
        arrivals = streams.stream("arrivals-0-0").exponential_rate_stream(0.25)
        assert [arrivals().hex() for _ in range(12)] == expected["exponential_rate_0.25"]
        service = streams.stream("service-icn2").exponential_stream(0.001)
        assert [service().hex() for _ in range(12)] == expected["exponential_0.001"]
        destination = streams.stream("destination-0-0").integer_stream(0, 6)
        assert [destination() for _ in range(16)] == expected["integer_0_6"]
        uniform = streams.stream("u").uniform_stream(0.0, 1.0)
        assert [uniform().hex() for _ in range(8)] == expected["uniform_0_1"]
        erlang = streams.stream("e").erlang_stream(3, 2.0)
        assert [erlang().hex() for _ in range(8)] == expected["erlang_3_2.0"]


class TestGoldenAcrossBackends:
    """Per-message latencies are identical on every execution backend."""

    def test_serial_pool_socket_reproduce_golden(self, golden):
        expected = [
            [
                (m["ident"], m["created"], m["completed"])
                for m in golden["multicluster_nonblocking_exponential"]["messages"]
            ]
        ] + [
            [tuple(row) for row in golden[f"workload_{name}"]["messages"]]
            for name in WORKLOAD_CASES
        ]
        # A library-level task (not a test closure) so socket worker
        # daemons — fresh processes — can import and unpickle it.
        tasks = [
            SweepTask(
                fn=run_message_trace_task,
                args=(_system(), SimulationConfig(num_messages=250, seed=1234)),
            )
        ] + [
            SweepTask(fn=run_message_trace_task, args=workload_task_args(name))
            for name in WORKLOAD_CASES
        ]
        engines = {
            "serial": SweepEngine(backend=SerialBackend()),
            "pool": SweepEngine(backend=ProcessPoolBackend(jobs=2)),
            "socket": SweepEngine(
                backend=SocketBackend(spawn_workers=1, accept_timeout=ACCEPT_TIMEOUT)
            ),
        }
        for name, engine in engines.items():
            per_task = engine.run(tasks)
            assert per_task == expected, f"{name} backend diverged from the golden trace"

    def test_vectorized_task_identical_on_every_backend(self, golden):
        """The closed-loop task on a fault workload (node and link drops)
        returns the golden SimulationResult — every field, availability and
        drop count included — on serial, pool and socket backends."""
        expected = golden["workload_both-drop"]["result"]
        tasks = [SweepTask(fn=run_simulation_task, args=workload_task_args("both-drop"))]
        engines = {
            "serial": SweepEngine(backend=SerialBackend()),
            "pool": SweepEngine(backend=ProcessPoolBackend(jobs=2)),
            "socket": SweepEngine(
                backend=SocketBackend(spawn_workers=1, accept_timeout=ACCEPT_TIMEOUT)
            ),
        }
        for name, engine in engines.items():
            (result,) = engine.run(tasks)
            assert hexed(result) == expected, f"{name} backend diverged from the golden result"
