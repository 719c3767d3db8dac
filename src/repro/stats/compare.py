"""Metrics for comparing analytical predictions against simulation results.

The paper's validation claim ("the analytical model can predict the average
message latency with good degree of accuracy") is qualitative; we quantify
it with the metrics below and report them in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "relative_error",
    "absolute_error",
    "mean_absolute_percentage_error",
    "root_mean_square_error",
    "max_relative_error",
    "ComparisonSummary",
    "compare_series",
]


def relative_error(predicted: float, observed: float) -> float:
    """``|predicted - observed| / |observed|`` (NaN when observed == 0)."""
    if observed == 0:
        return math.nan
    return abs(predicted - observed) / abs(observed)


def absolute_error(predicted: float, observed: float) -> float:
    """``|predicted - observed|``."""
    return abs(predicted - observed)


def _aligned(
    predicted: Sequence[float], observed: Sequence[float]
) -> Tuple[List[float], List[float]]:
    p = [float(value) for value in predicted]
    o = [float(value) for value in observed]
    if len(p) != len(o):
        raise ValueError(f"shape mismatch: ({len(p)},) vs ({len(o)},)")
    return p, o


def _relative_errors(p: List[float], o: List[float]) -> List[float]:
    """Pointwise ``|p - o| / |o|``, skipping points with ``o == 0``."""
    return [abs((a - b) / b) for a, b in zip(p, o) if b != 0]


def mean_absolute_percentage_error(
    predicted: Sequence[float], observed: Sequence[float]
) -> float:
    """MAPE (in percent) between two aligned series."""
    p, o = _aligned(predicted, observed)
    if not p:
        raise ValueError("cannot compute MAPE of empty series")
    errors = _relative_errors(p, o)
    if not errors:
        return math.nan
    return math.fsum(errors) / len(errors) * 100.0


def root_mean_square_error(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """RMSE between two aligned series."""
    p, o = _aligned(predicted, observed)
    if not p:
        raise ValueError("cannot compute RMSE of empty series")
    return math.sqrt(math.fsum((a - b) * (a - b) for a, b in zip(p, o)) / len(p))


def max_relative_error(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Largest pointwise relative error between two aligned series."""
    errors = _relative_errors(*_aligned(predicted, observed))
    return max(errors) if errors else math.nan


@dataclass(frozen=True)
class ComparisonSummary:
    """Aggregate agreement metrics between a model and a reference series."""

    mape_percent: float
    rmse: float
    max_relative_error: float
    n_points: int

    def as_dict(self) -> Dict[str, float]:
        """Return the summary as a plain dictionary (for reports/CSV)."""
        return {
            "mape_percent": self.mape_percent,
            "rmse": self.rmse,
            "max_relative_error": self.max_relative_error,
            "n_points": float(self.n_points),
        }

    def __str__(self) -> str:
        return (
            f"MAPE={self.mape_percent:.2f}%  RMSE={self.rmse:.4g}  "
            f"max rel. err={self.max_relative_error * 100:.2f}%  (n={self.n_points})"
        )


def compare_series(predicted: Sequence[float], observed: Sequence[float]) -> ComparisonSummary:
    """Build a :class:`ComparisonSummary` for two aligned series."""
    p = list(predicted)
    o = list(observed)
    return ComparisonSummary(
        mape_percent=mean_absolute_percentage_error(p, o),
        rmse=root_mean_square_error(p, o),
        max_relative_error=max_relative_error(p, o),
        n_points=len(p),
    )
