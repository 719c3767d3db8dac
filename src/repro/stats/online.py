"""Online (single-pass) statistics.

The simulator records hundreds of thousands of observations per run; the
Welford update lets it keep running means and variances without storing all
samples and without catastrophic cancellation.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["RunningStatistics"]


class RunningStatistics:
    """Numerically stable running mean / variance / extrema (Welford).

    Example
    -------
    >>> stats = RunningStatistics()
    >>> for x in [1.0, 2.0, 3.0, 4.0]:
    ...     stats.push(x)
    >>> stats.mean
    2.5
    >>> round(stats.variance, 6)
    1.666667
    """

    __slots__ = ("_n", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def push(self, value: float) -> None:
        """Incorporate one observation."""
        value = float(value)
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def push_many(self, values: Iterable[float]) -> None:
        """Incorporate many observations."""
        for value in values:
            self.push(value)

    # -- accessors ------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._mean if self._n else math.nan

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self._total

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN with fewer than two observations)."""
        if self._n < 2:
            return math.nan
        return self._m2 / (self._n - 1)

    @property
    def population_variance(self) -> float:
        """Population (biased) variance."""
        if self._n < 1:
            return math.nan
        return self._m2 / self._n

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    @property
    def minimum(self) -> float:
        """Smallest observation (NaN when empty)."""
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        """Largest observation (NaN when empty)."""
        return self._max if self._n else math.nan

    @property
    def standard_error(self) -> float:
        """Standard error of the mean."""
        if self._n < 2:
            return math.nan
        return self.std / math.sqrt(self._n)

    def merge(self, other: "RunningStatistics") -> "RunningStatistics":
        """Return a new accumulator equivalent to seeing both sample sets."""
        if not isinstance(other, RunningStatistics):
            raise TypeError("can only merge with another RunningStatistics")
        merged = RunningStatistics()
        n = self._n + other._n
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._n = n
        merged._mean = (self._n * self._mean + other._n * other._mean) / n
        merged._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / n
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        merged._total = self._total + other._total
        return merged

    def __repr__(self) -> str:
        return f"<RunningStatistics n={self._n} mean={self.mean:.6g} std={self.std:.6g}>"

