"""Result types of the validation simulator.

:class:`SimulationResult` (one run) and :class:`ReplicatedResult` (several
replications of one point) are plain data: the result cache rebuilds them
on every hit, so they live apart from the simulator and the replication
runner, which need NumPy.  A single run carries a mean and no interval;
the one confidence interval is :attr:`ReplicatedResult.latency_interval`,
over independent replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..stats.intervals import ConfidenceInterval

__all__ = ["SimulationResult", "ReplicatedResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulation run.

    ``latency_summary`` carries count/mean/std/min/max/p50/p95/p99 of the
    post-warm-up latency stream (seconds).  Count, min and max are exact in
    both stats modes; in ``online`` mode the percentiles are histogram
    estimates at the sink's documented resolution.
    """

    mean_latency_s: float
    mean_local_latency_s: float
    mean_remote_latency_s: float
    measured_messages: int
    completed_messages: int
    remote_fraction: float
    simulated_time_s: float
    utilizations: Dict[str, float]
    mean_occupancies: Dict[str, float]
    seed: int
    stats_mode: str = "array"
    latency_summary: Optional[Dict[str, float]] = None
    #: Per-target availability over the run (``None`` unless faults were on).
    availability: Optional[Dict[str, float]] = None
    #: Messages lost to the ``"drop"`` fault policy.
    dropped_messages: int = 0

    @property
    def mean_latency_ms(self) -> float:
        """Mean message latency in milliseconds (the figures' unit)."""
        return self.mean_latency_s * 1e3

    @property
    def mean_availability(self) -> Optional[float]:
        """Unweighted mean availability across fault targets (``None`` without faults)."""
        if not self.availability:
            return None
        # fsum: the mean must not depend on the dict's key order.
        return math.fsum(self.availability.values()) / len(self.availability)

    @property
    def throughput_msg_s(self) -> float:
        """Completed messages per simulated second (degraded under faults)."""
        if self.simulated_time_s <= 0:
            return 0.0
        return self.completed_messages / self.simulated_time_s

    def as_dict(self) -> Dict[str, float]:
        """Headline metrics as a flat dictionary.

        The fault columns (availability, throughput, drops) only appear on
        fault-enabled runs so fixtures of the always-up model keep their
        historical byte-exact shape.
        """
        out = {
            "mean_latency_ms": self.mean_latency_ms,
            "mean_local_latency_ms": self.mean_local_latency_s * 1e3,
            "mean_remote_latency_ms": self.mean_remote_latency_s * 1e3,
            "measured_messages": float(self.measured_messages),
            "remote_fraction": self.remote_fraction,
            "simulated_time_s": self.simulated_time_s,
        }
        if self.availability is not None:
            out["availability"] = self.mean_availability or 0.0
            out["throughput_msg_s"] = self.throughput_msg_s
            out["dropped_messages"] = float(self.dropped_messages)
        return out


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregate of several independent simulation replications."""

    replications: int
    mean_latency_s: float
    latency_interval: Optional[ConfidenceInterval]
    per_replication: List[SimulationResult]

    @property
    def mean_latency_ms(self) -> float:
        """Mean latency over replications in milliseconds."""
        return self.mean_latency_s * 1e3
