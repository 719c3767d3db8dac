"""Fixed-bin and streaming histograms for latency distributions."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["Histogram"]


class Histogram:
    """A fixed-range, fixed-width histogram with under/overflow buckets.

    Parameters
    ----------
    low, high:
        Range covered by the regular bins.
    bins:
        Number of regular bins.
    """

    def __init__(self, low: float, high: float, bins: int = 50) -> None:
        if high <= low:
            raise ValueError(f"high (={high!r}) must exceed low (={low!r})")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins!r}")
        self.low = float(low)
        self.high = float(high)
        self.bins = int(bins)
        self._counts = np.zeros(bins, dtype=np.int64)
        self._underflow = 0
        self._overflow = 0
        self._width = (self.high - self.low) / bins

    def add(self, value: float) -> None:
        """Record one observation (NaN is rejected, not silently binned)."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot add NaN to a histogram")
        if value < self.low:
            self._underflow += 1
        elif value >= self.high:
            self._overflow += 1
        else:
            idx = int((value - self.low) / self._width)
            # Guard against floating point landing exactly on ``high``.
            self._counts[min(idx, self.bins - 1)] += 1

    def add_many(self, values: Sequence[float]) -> None:
        """Record many observations (vectorised); same NaN rule as ``add``."""
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            return
        if np.isnan(arr).any():
            raise ValueError("cannot add NaN to a histogram")
        self._underflow += int(np.count_nonzero(arr < self.low))
        self._overflow += int(np.count_nonzero(arr >= self.high))
        in_range = arr[(arr >= self.low) & (arr < self.high)]
        if in_range.size:
            idx = np.clip(((in_range - self.low) / self._width).astype(int), 0, self.bins - 1)
            np.add.at(self._counts, idx, 1)

    # -- accessors ------------------------------------------------------------

    @property
    def counts(self) -> np.ndarray:
        """Counts per regular bin."""
        return self._counts.copy()

    @property
    def underflow(self) -> int:
        """Observations below ``low``."""
        return self._underflow

    @property
    def overflow(self) -> int:
        """Observations at or above ``high``."""
        return self._overflow

    @property
    def total(self) -> int:
        """Total number of recorded observations."""
        return int(self._counts.sum()) + self._underflow + self._overflow

    def bin_edges(self) -> np.ndarray:
        """Edges of the regular bins (length ``bins + 1``)."""
        return np.linspace(self.low, self.high, self.bins + 1)

    def bin_centers(self) -> np.ndarray:
        """Centres of the regular bins."""
        edges = self.bin_edges()
        return (edges[:-1] + edges[1:]) / 2.0

    def normalized(self) -> np.ndarray:
        """Counts normalised to a probability mass function over regular bins."""
        total = self._counts.sum()
        if total == 0:
            return np.zeros_like(self._counts, dtype=float)
        return self._counts / total

    def quantile(self, q: float) -> float:
        """Approximate quantile (0..1) from the binned data."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q!r}")
        total = self.total
        if total == 0:
            return math.nan
        target = q * total
        running = self._underflow
        # Only mass that is actually present may satisfy the target:
        # with q=0 (target 0) an empty underflow bucket must not win over
        # the first occupied bin.
        if self._underflow > 0 and running >= target:
            return self.low
        centers = self.bin_centers()
        for idx in range(self.bins):
            count = int(self._counts[idx])
            running += count
            if count > 0 and running >= target:
                return float(centers[idx])
        return self.high

    def merge(self, other: "Histogram") -> "Histogram":
        """Merge two histograms with identical binning."""
        if (self.low, self.high, self.bins) != (other.low, other.high, other.bins):
            raise ValueError("histograms must have identical binning to merge")
        merged = Histogram(self.low, self.high, self.bins)
        merged._counts = self._counts + other._counts
        merged._underflow = self._underflow + other._underflow
        merged._overflow = self._overflow + other._overflow
        return merged

    def __repr__(self) -> str:
        return f"<Histogram [{self.low}, {self.high}) bins={self.bins} total={self.total}>"

