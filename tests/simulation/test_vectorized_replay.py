"""Tests for the event-loop-free trace replay in ``repro.simulation.vectorized_replay``.

The golden-trace suite pins the replay to the historical fixture; this
module covers the rest of the contract: exact equivalence to the DES trace
simulator across configurations, the FIFO-recurrence kernel itself, and the
deprecated closed-loop entry point that now delegates to the one simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.presets import paper_evaluation_system
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.simulation.runner import run_simulation_task
from repro.simulation.simulator import SimulationConfig
from repro.simulation.trace_simulator import TraceDrivenSimulator, TraceSimulationConfig
from repro.simulation.vectorized_replay import (
    _fifo_departures,
    _fifo_departures_scalar,
    replay_trace,
    run_vectorized_simulation_task,
)
from repro.workload.arrivals import ErlangArrivals
from repro.workload.destinations import LocalizedDestinations
from repro.workload.messages import generate_trace


def _system(clusters: int = 2, processors: int = 8):
    return paper_evaluation_system(
        clusters, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=processors
    )


def _trace_result_hexes(result) -> list:
    out = [
        result.mean_latency_s.hex(),
        result.makespan_s.hex(),
        result.completed_messages,
        result.injected_messages,
        result.remote_fraction.hex(),
    ]
    if result.confidence_interval is not None:
        out.append(result.confidence_interval.mean.hex())
        out.append(result.confidence_interval.half_width.hex())
    out.extend((name, value.hex()) for name, value in result.utilizations.items())
    return out


class TestFifoDepartures:
    """The vectorized Lindley recurrence against the exact scalar loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_workloads_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        arrivals = np.sort(rng.uniform(0.0, 50.0, n))
        services = rng.exponential(0.2, n)
        fast = _fifo_departures(arrivals, services)
        slow = _fifo_departures_scalar(arrivals, services)
        assert fast.tolist() == slow.tolist()

    def test_tie_heavy_workload_bit_exact(self):
        """Integer arrivals + constant service: every boundary is a tie."""
        arrivals = np.repeat(np.arange(50.0), 4)
        services = np.full(200, 0.25)
        assert (
            _fifo_departures(arrivals, services).tolist()
            == _fifo_departures_scalar(arrivals, services).tolist()
        )

    def test_empty_and_singleton(self):
        assert _fifo_departures(np.empty(0), np.empty(0)).shape == (0,)
        assert _fifo_departures(np.array([2.0]), np.array([0.5])).tolist() == [2.5]


class TestReplayTraceEquivalence:
    """replay_trace == TraceDrivenSimulator, float.hex()-exact."""

    @pytest.mark.parametrize(
        "config",
        [
            TraceSimulationConfig(seed=7),
            TraceSimulationConfig(seed=7, exponential_service=False),
            TraceSimulationConfig(seed=3, architecture="blocking"),
            TraceSimulationConfig(seed=11, stats_mode="online"),
        ],
        ids=["exponential", "deterministic", "blocking", "online"],
    )
    def test_matches_des(self, config):
        trace = generate_trace([4, 4], num_messages=300, seed=17)
        des = TraceDrivenSimulator(_system(), trace, config).run()
        vec = replay_trace(_system(), trace, config)
        assert _trace_result_hexes(vec) == _trace_result_hexes(des)


def test_deprecated_vectorized_task_delegates_to_the_simulator_task():
    """The old closed-loop entry point warns and returns exactly what
    run_simulation_task returns, workload arguments included."""
    config = SimulationConfig(num_messages=150, seed=3)
    factory = lambda rate: ErlangArrivals(rate=rate, shape=4)  # noqa: E731
    policy = LocalizedDestinations([4, 4], locality=0.5)
    with pytest.warns(DeprecationWarning, match="run_simulation_task"):
        old = run_vectorized_simulation_task(_system(), config, policy, factory)
    assert old == run_simulation_task(_system(), config, policy, factory)
