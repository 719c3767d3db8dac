"""The ``stats_mode`` names and the histogram-range check.

Specs, simulation configs and the CLI validate these before anything
runs, so they live apart from the sinks themselves (:mod:`.sinks`), which
need NumPy.
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = ["STATS_MODES", "validate_stats_mode", "validate_histogram_range"]

#: Valid values of the ``stats_mode`` knob threaded through
#: :class:`~repro.simulation.simulator.SimulationConfig`,
#: :class:`~repro.experiments.pipeline.ExperimentSpec` and the CLI.
STATS_MODES = ("array", "online")


def validate_stats_mode(mode: str) -> str:
    """Validate a ``stats_mode`` value and return it."""
    if mode not in STATS_MODES:
        raise ValueError(f"stats_mode must be one of {STATS_MODES}, got {mode!r}")
    return mode


def validate_histogram_range(value) -> Tuple[float, float]:
    """Validate an explicit ``(low, high)`` histogram range; return a float pair.

    The range fixes :class:`OnlineMonitor`'s quantile histogram up front,
    so the sink does not calibrate it on its first observations.  Raises
    :class:`ValueError` on anything that is not a finite, increasing pair.
    """
    try:
        low, high = value
        low, high = float(low), float(high)
    except (TypeError, ValueError):
        raise ValueError(
            f"histogram_range must be a (low, high) pair of numbers, got {value!r}"
        ) from None
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError(
            f"histogram_range bounds must be finite, got ({low!r}, {high!r})"
        )
    if not high > low:
        raise ValueError(
            f"histogram_range needs high > low, got ({low!r}, {high!r})"
        )
    return (low, high)
