"""The paper's analytical performance model (primary contribution)."""

from .cluster_of_clusters import (
    ClusterOfClustersModel,
    HeterogeneousModelConfig,
    HeterogeneousReport,
    evaluate_heterogeneous_grid,
)
from .latency import LatencyBreakdown, WaitingTimes, mean_message_latency, waiting_time
from .model import PAPER_GENERATION_RATE, AnalyticalModel, ModelConfig, PerformanceReport
from .routing import (
    local_destinations,
    local_probability,
    outgoing_probability,
    remote_destinations,
)
from .service_centers import ServiceCenterModels, build_service_centers
from .traffic import TrafficRates, compute_traffic_rates
from .vectorized import GridEvaluation, evaluate_latency_grid

__all__ = [
    "AnalyticalModel",
    "ModelConfig",
    "PerformanceReport",
    "PAPER_GENERATION_RATE",
    "ClusterOfClustersModel",
    "HeterogeneousModelConfig",
    "HeterogeneousReport",
    "evaluate_heterogeneous_grid",
    "outgoing_probability",
    "local_probability",
    "remote_destinations",
    "local_destinations",
    "TrafficRates",
    "compute_traffic_rates",
    "ServiceCenterModels",
    "build_service_centers",
    "GridEvaluation",
    "evaluate_latency_grid",
    "WaitingTimes",
    "LatencyBreakdown",
    "waiting_time",
    "mean_message_latency",
]
