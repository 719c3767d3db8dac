"""Statistics toolkit: online accumulators, output analysis and comparison metrics."""

from .compare import (
    ComparisonSummary,
    absolute_error,
    compare_series,
    max_relative_error,
    mean_absolute_percentage_error,
    relative_error,
    root_mean_square_error,
)
from .histogram import Histogram
from .intervals import ConfidenceInterval, batch_means, mean_confidence_interval, t_quantile
from .online import RunningStatistics
from .sinks import STATS_MODES, OnlineMonitor, StatsSink, validate_stats_mode

__all__ = [
    "STATS_MODES",
    "StatsSink",
    "OnlineMonitor",
    "validate_stats_mode",
    "RunningStatistics",
    "ConfidenceInterval",
    "mean_confidence_interval",
    "batch_means",
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
