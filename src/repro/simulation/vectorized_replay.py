"""Deprecated closed-loop entry point, kept for one more release.

Closed-loop runs have one engine, the flat event loop of
:class:`~repro.simulation.simulator.MultiClusterSimulator`.
:func:`run_vectorized_simulation_task` survives only as a deprecated
delegate to :func:`~repro.simulation.runner.run_simulation_task`, because
``perfbench/tracer.py`` wraps it by this module path (a ``--trace 1`` run
imports it). It goes together with that tracer boundary.
"""

from __future__ import annotations

import warnings
from typing import Optional

from ..cluster.system import MultiClusterSystem
from ..workload.destinations import DestinationPolicy
from .runner import run_simulation_task
from .simulator import SimulationConfig, SimulationResult

__all__ = ["run_vectorized_simulation_task"]


def run_vectorized_simulation_task(
    system: MultiClusterSystem,
    config: SimulationConfig,
    destination_policy: Optional[DestinationPolicy] = None,
    arrival_factory=None,
) -> SimulationResult:
    """Deprecated: call :func:`~repro.simulation.runner.run_simulation_task`.

    Every closed-loop workload now runs on the one flat event loop of
    :class:`~repro.simulation.simulator.MultiClusterSimulator`, so this
    delegates with the same arguments and returns the same result.
    """
    warnings.warn(
        "run_vectorized_simulation_task is deprecated; use "
        "repro.simulation.runner.run_simulation_task",
        DeprecationWarning,
        stacklevel=2,
    )
    return run_simulation_task(system, config, destination_policy, arrival_factory)
