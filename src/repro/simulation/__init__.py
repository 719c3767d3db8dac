"""Validation simulator: event-driven HMSCS model matching the paper's §6 setup."""

from .components import LatencySink, ServiceCenterSim
from .faults import FaultInjector, FaultSchedule, FaultSpec, FaultyServiceCenterSim
from .message import Message
from .runner import (
    ReplicatedResult,
    ValidationPoint,
    aggregate_replications,
    replication_configs,
    run_replications,
    run_message_trace_task,
    run_simulation_task,
    validate_against_analysis,
)
from .simulator import MultiClusterSimulator, SimulationConfig, SimulationResult
from .trace_simulator import (
    TraceDrivenSimulator,
    TraceSimulationConfig,
    TraceSimulationResult,
)
from .vectorized_replay import replay_trace

__all__ = [
    "Message",
    "ServiceCenterSim",
    "LatencySink",
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
    "FaultyServiceCenterSim",
    "MultiClusterSimulator",
    "SimulationConfig",
    "SimulationResult",
    "ReplicatedResult",
    "ValidationPoint",
    "replication_configs",
    "run_simulation_task",
    "run_message_trace_task",
    "aggregate_replications",
    "run_replications",
    "validate_against_analysis",
    "TraceDrivenSimulator",
    "TraceSimulationConfig",
    "TraceSimulationResult",
    "replay_trace",
]
