"""Tests for the deprecated ``repro.simulation.vectorized_replay`` entry point.

The module keeps only ``run_vectorized_simulation_task``, which now
delegates to the one closed-loop simulator.
"""

from __future__ import annotations

import pytest

from repro.cluster.presets import paper_evaluation_system
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.simulation.runner import run_simulation_task
from repro.simulation.simulator import SimulationConfig
from repro.simulation.vectorized_replay import run_vectorized_simulation_task
from repro.workload.arrivals import ErlangArrivals
from repro.workload.destinations import LocalizedDestinations


def _system(clusters: int = 2, processors: int = 8):
    return paper_evaluation_system(
        clusters, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=processors
    )


def test_deprecated_vectorized_task_delegates_to_the_simulator_task():
    """The old closed-loop entry point warns and returns exactly what
    run_simulation_task returns, workload arguments included."""
    config = SimulationConfig(num_messages=150, seed=3)
    factory = lambda rate: ErlangArrivals(rate=rate, shape=4)  # noqa: E731
    policy = LocalizedDestinations([4, 4], locality=0.5)
    with pytest.warns(DeprecationWarning, match="run_simulation_task"):
        old = run_vectorized_simulation_task(_system(), config, policy, factory)
    assert old == run_simulation_task(_system(), config, policy, factory)
