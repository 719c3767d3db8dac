"""Statistics toolkit: online accumulators, output analysis and comparison metrics."""

from .._lazy import lazy_exports

__all__ = [
    "STATS_MODES",
    "StatsSink",
    "Monitor",
    "OnlineMonitor",
    "validate_stats_mode",
    "RunningStatistics",
    "ConfidenceInterval",
    "mean_confidence_interval",
    "t_quantile",
    "Histogram",
    "relative_error",
    "absolute_error",
    "mean_absolute_percentage_error",
    "root_mean_square_error",
    "max_relative_error",
    "ComparisonSummary",
    "compare_series",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".compare": (
        "absolute_error", "compare_series", "ComparisonSummary", "max_relative_error",
        "mean_absolute_percentage_error", "relative_error", "root_mean_square_error",
    ),
    ".histogram": ("Histogram",),
    ".intervals": ("ConfidenceInterval", "mean_confidence_interval", "t_quantile"),
    ".modes": ("STATS_MODES", "validate_stats_mode"),
    ".online": ("RunningStatistics",),
    ".sinks": ("Monitor", "OnlineMonitor", "StatsSink"),
})
