"""Validation simulator: event-driven HMSCS model matching the paper's §6 setup."""

from .._lazy import lazy_exports

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
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".components": ("LatencySink", "ServiceCenterSim"),
    ".fault_spec": ("FaultSpec",),
    ".faults": ("FaultInjector", "FaultSchedule", "FaultyServiceCenterSim"),
    ".message": ("Message",),
    ".results": ("ReplicatedResult", "SimulationResult"),
    ".runner": (
        "aggregate_replications", "replication_configs", "run_message_trace_task",
        "run_replications", "run_simulation_task", "validate_against_analysis", "ValidationPoint",
    ),
    ".simulator": ("MultiClusterSimulator", "SimulationConfig"),
})
