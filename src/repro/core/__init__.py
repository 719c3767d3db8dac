"""The paper's analytical performance model (primary contribution)."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cluster_of_clusters": (
        "ClusterOfClustersModel", "evaluate_heterogeneous_grid", "HeterogeneousModelConfig",
        "HeterogeneousReport",
    ),
    ".latency": ("LatencyBreakdown", "mean_message_latency", "waiting_time", "WaitingTimes"),
    ".model": ("AnalyticalModel", "ModelConfig", "PAPER_GENERATION_RATE", "PerformanceReport"),
    ".routing": (
        "local_destinations", "local_probability", "outgoing_probability", "remote_destinations",
    ),
    ".service_centers": ("build_service_centers", "ServiceCenterModels"),
    ".traffic": ("compute_traffic_rates", "TrafficRates"),
    ".vectorized": ("evaluate_latency_grid", "GridEvaluation"),
})
