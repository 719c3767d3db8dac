"""High-level facade of the paper's analytical performance model.

:class:`AnalyticalModel` ties together the routing probability (Eq. 8), the
traffic equations (Eqs. 1–5), the architecture-specific service-time models
(Eqs. 10–21), the finite-source fixed point (Eqs. 6–7) and the latency
expression (Eqs. 9, 15–16) into a single call; :mod:`repro.core.solver`
solves them, with the Super-Cluster as its one-class case::

    from repro import AnalyticalModel, ModelConfig, paper_evaluation_system
    from repro.network import GIGABIT_ETHERNET, FAST_ETHERNET

    system = paper_evaluation_system(16, GIGABIT_ETHERNET, FAST_ETHERNET)
    report = AnalyticalModel(system, ModelConfig(architecture="non-blocking",
                                                 message_bytes=1024)).evaluate()
    print(report.mean_latency_ms)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster.system import MultiClusterSystem
from ..errors import ConfigurationError
from .latency import LatencyBreakdown, WaitingTimes
from .service_centers import ServiceCenterModels, build_service_centers
from .solver import ClusterClasses, cluster_classes, solve
from .traffic import TrafficRates

__all__ = ["ModelConfig", "PerformanceReport", "AnalyticalModel"]

#: The paper's message generation rate (Table 2): 0.25 messages per second.
PAPER_GENERATION_RATE = 0.25


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of one analytical evaluation.

    Parameters
    ----------
    architecture:
        ``"non-blocking"`` (multi-stage fat-tree, §5.2) or ``"blocking"``
        (linear switch array, §5.3).
    message_bytes:
        Fixed message length M in bytes (assumption 6; the paper uses 512
        and 1024).
    generation_rate:
        Message generation rate λ of a reference processor in
        messages/second (Table 2: 0.25).  A processor of relative speed
        ``s`` generates ``s·λ``, in the models as in the simulator.
    finite_source_correction:
        Apply the Eq. (7) fixed point.  Disabling it evaluates the open
        (infinite-source) model, which is one of the ablations.
    """

    architecture: str = "non-blocking"
    message_bytes: float = 1024.0
    generation_rate: float = PAPER_GENERATION_RATE
    finite_source_correction: bool = True

    def __post_init__(self) -> None:
        if self.message_bytes <= 0:
            raise ConfigurationError(f"message size must be positive, got {self.message_bytes!r}")
        if self.generation_rate < 0:
            raise ConfigurationError(
                f"generation rate must be non-negative, got {self.generation_rate!r}"
            )


@dataclass(frozen=True)
class PerformanceReport:
    """Complete output of one analytical evaluation."""

    system_name: str
    architecture: str
    num_clusters: int
    processors_per_cluster: int
    total_processors: int
    message_bytes: float
    nominal_rate: float
    effective_rate: float
    outgoing_probability: float
    traffic: TrafficRates
    waits: WaitingTimes
    latency: LatencyBreakdown
    service_times: Dict[str, float]
    utilizations: Dict[str, float]
    total_waiting_processors: float
    fixed_point_iterations: int

    # -- convenience accessors -----------------------------------------------------

    @property
    def mean_latency_s(self) -> float:
        """Mean message latency in seconds (the paper's primary metric)."""
        return self.latency.mean_latency

    @property
    def mean_latency_ms(self) -> float:
        """Mean message latency in milliseconds (the unit of Figures 4–7)."""
        return self.latency.mean_latency * 1e3

    @property
    def local_latency_s(self) -> float:
        """Mean latency of intra-cluster messages (seconds)."""
        return self.latency.local_latency

    @property
    def remote_latency_s(self) -> float:
        """Mean latency of inter-cluster messages (seconds)."""
        return self.latency.remote_latency

    @property
    def throttling_factor(self) -> float:
        """``λ_eff / λ`` from the finite-source correction."""
        if self.nominal_rate == 0:
            return 1.0
        return self.effective_rate / self.nominal_rate

    def as_dict(self) -> Dict[str, float]:
        """Flatten the headline metrics into a dictionary (for tables/CSV)."""
        return {
            "num_clusters": self.num_clusters,
            "processors_per_cluster": self.processors_per_cluster,
            "message_bytes": self.message_bytes,
            "architecture_blocking": 1.0 if self.architecture == "blocking" else 0.0,
            "outgoing_probability": self.outgoing_probability,
            "effective_rate": self.effective_rate,
            "mean_latency_ms": self.mean_latency_ms,
            "local_latency_ms": self.local_latency_s * 1e3,
            "remote_latency_ms": self.remote_latency_s * 1e3,
            "icn1_utilization": self.utilizations["icn1"],
            "ecn1_utilization": self.utilizations["ecn1"],
            "icn2_utilization": self.utilizations["icn2"],
            "total_waiting_processors": self.total_waiting_processors,
        }


class AnalyticalModel:
    """The paper's analytical model for a Super-Cluster system."""

    def __init__(self, system: MultiClusterSystem, config: Optional[ModelConfig] = None) -> None:
        self.system = system
        self.config = config if config is not None else ModelConfig()
        # Validation happens eagerly so misuse fails at construction time.
        self._classes = super_cluster_classes(system)
        self._centers: ServiceCenterModels = build_service_centers(
            system, self.config.architecture, self.config.message_bytes
        )

    # -- inspection ------------------------------------------------------------------

    @property
    def service_centers(self) -> ServiceCenterModels:
        """The ICN1/ECN1/ICN2 service models used by this evaluation."""
        return self._centers

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self) -> PerformanceReport:
        """Run the full model and return a :class:`PerformanceReport`."""
        system = self.system
        cfg = self.config
        c = system.num_clusters
        solution = solve(system, self._classes, cfg)
        traffic = solution.traffic[0]
        waits = solution.waits[0]
        total_waiting = solution.total_waiting
        if not cfg.finite_source_correction:
            # Report the open-model queue population (Little's law) for completeness.
            total_waiting = c * (
                2.0 * traffic.ecn1 * waits.ecn1 + traffic.icn1 * waits.icn1
            ) + traffic.icn2 * waits.icn2

        service_times = {
            "icn1": self._centers.icn1_service_time,
            "ecn1": self._centers.ecn1_service_time,
            "icn2": self._centers.icn2_service_time,
        }

        return PerformanceReport(
            system_name=system.name,
            architecture=solution.architecture,
            num_clusters=c,
            processors_per_cluster=system.processors_per_cluster,
            total_processors=system.total_processors,
            message_bytes=cfg.message_bytes,
            nominal_rate=solution.nominal_rates[0],
            effective_rate=traffic.per_processor_rate,
            outgoing_probability=traffic.outgoing_probability,
            traffic=traffic,
            waits=waits,
            latency=solution.latency[0],
            service_times=service_times,
            utilizations=solution.utilizations[0],
            total_waiting_processors=total_waiting,
            fixed_point_iterations=solution.iterations,
        )

    def mean_latency_s(self) -> float:
        """Shortcut returning just the mean message latency in seconds."""
        return self.evaluate().mean_latency_s

    def __repr__(self) -> str:
        return (
            f"<AnalyticalModel system={self.system.name!r} "
            f"architecture={self.config.architecture!r} M={self.config.message_bytes}>"
        )


def super_cluster_classes(system: MultiClusterSystem) -> ClusterClasses:
    """:func:`~repro.core.solver.cluster_classes` for a Super-Cluster: one class.

    Raises
    ------
    ConfigurationError
        If the clusters differ, naming the violated §4 assumption.
    """
    grouping = cluster_classes(system)
    if len(grouping.classes) > 1:
        system.validate_super_cluster_assumptions()
    return grouping
