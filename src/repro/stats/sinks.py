"""Pluggable statistics sinks: the streaming observation layer.

Every consumer of per-observation statistics in the simulation path —
:class:`~repro.simulation.components.LatencySink`, the simulator's result
assembly and the experiment pipeline's collectors — talks to a
:class:`StatsSink`, not to a concrete storage strategy.  Two
interchangeable implementations exist:

* :class:`Monitor` — the array-backed sink.  It retains every value, so
  percentiles are exact, at O(n) memory.  This is the default
  (``stats_mode="array"``) and is bit-identical to every earlier release
  (pinned by the golden-trace fixtures).
* :class:`OnlineMonitor` — the bounded-memory streaming sink built on
  :class:`~repro.stats.online.RunningStatistics` (Welford mean/variance/
  extrema) and a :class:`~repro.stats.histogram.Histogram` for quantiles
  at a documented resolution.  Memory is O(bins) no matter how many
  observations stream through, so simulation length is bounded by CPU,
  not RAM (``stats_mode="online"``).

Both sinks take the observation time in :meth:`StatsSink.record` and
neither retains it.

Exactness contract of the online sink relative to the array sink, for the
same observation stream:

* ``count``, ``minimum``, ``maximum`` and ``total`` are **exact**;
* ``mean``/``std``/``variance`` agree to within ~1e-12 relative (Welford
  vs NumPy pairwise summation — the test suite pins 1e-9);
* percentiles are approximate: the histogram auto-calibrates its range on
  the first ``calibration_samples`` observations (quantiles are *exact*
  until then) and afterwards resolves quantiles to one bin width —
  ``range / quantile_bins`` — with values outside the calibrated range
  clamped to its edges.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from .histogram import Histogram
from .online import RunningStatistics

__all__ = [
    "StatsSink",
    "Monitor",
    "OnlineMonitor",
]

@runtime_checkable
class StatsSink(Protocol):
    """Structural interface every observation sink implements.

    :class:`Monitor` (array-backed) and :class:`OnlineMonitor` (streaming)
    both satisfy it; simulation components and result assembly depend only
    on these members, so the two are interchangeable behind the
    ``stats_mode`` knob.
    """

    name: str

    def record(self, time: float, value: float) -> None: ...

    @property
    def count(self) -> int: ...

    def mean(self) -> float: ...

    def variance(self) -> float: ...

    def std(self) -> float: ...

    def minimum(self) -> float: ...

    def maximum(self) -> float: ...

    def percentile(self, q: float) -> float: ...

    def summary(self) -> Dict[str, float]: ...


class Monitor:
    """Array-backed sink: keeps every observed value.

    Storage is one C-double :class:`array.array` buffer: recording appends
    a native double (no per-observation Python ``float`` boxing), and the
    statistics run on transient zero-copy NumPy views of the buffer instead
    of rebuilding an ndarray from a list of boxed floats per call.
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str = "monitor") -> None:
        self.name = name
        self._values = array("d")

    def record(self, time: float, value: float) -> None:
        """Record ``value`` (the ``time`` is not retained)."""
        self._values.append(value)

    def _view(self) -> np.ndarray:
        """Transient zero-copy view of the values buffer (internal).

        The view exports the buffer of ``self._values``, which blocks
        appends for as long as it is alive — callers must not store it.
        """
        return np.frombuffer(self._values, dtype=np.float64)

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return len(self._values)

    def mean(self) -> float:
        """Sample mean of the observations (NaN when empty)."""
        return float(self._view().mean()) if self._values else math.nan

    def variance(self) -> float:
        """Unbiased sample variance (NaN when fewer than two observations)."""
        return float(self._view().var(ddof=1)) if len(self._values) > 1 else math.nan

    def std(self) -> float:
        """Sample standard deviation."""
        var = self.variance()
        return math.sqrt(var) if not math.isnan(var) else math.nan

    def minimum(self) -> float:
        """Smallest observation (NaN when empty)."""
        return float(self._view().min()) if self._values else math.nan

    def maximum(self) -> float:
        """Largest observation (NaN when empty)."""
        return float(self._view().max()) if self._values else math.nan

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the observations."""
        if not self._values:
            return math.nan
        return float(np.percentile(self._view(), q))

    def summary(self) -> Dict[str, float]:
        """Return a dictionary with the usual summary statistics."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "std": self.std(),
            "min": self.minimum(),
            "max": self.maximum(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"<Monitor {self.name!r} n={self.count} mean={self.mean():.6g}>"


class OnlineMonitor:
    """Bounded-memory streaming sink: Welford + histogram.

    Parameters
    ----------
    name:
        Sink name used in reports (mirrors :class:`Monitor`).
    quantile_bins:
        Regular bins of the quantile histogram; the quantile resolution is
        ``calibrated range / quantile_bins``.
    calibration_samples:
        Observations buffered before the histogram range is frozen (the
        range becomes ``[min(0, observed min), 4 * observed max]``).
        Quantiles are exact while calibrating.  Ignored when
        ``histogram_range`` fixes the range up front.
    histogram_range:
        Optional explicit ``(low, high)`` histogram range.  Required for
        :meth:`merge`, since auto-calibrated ranges are data-dependent.
    track_quantiles:
        ``False`` drops the histogram entirely (percentiles become NaN) —
        used for the local/remote split sinks that only report means.
    """

    __slots__ = (
        "name",
        "_stats",
        "_histogram",
        "_pending",
        "_calibration_samples",
        "_quantile_bins",
        "_fixed_range",
        "_track_quantiles",
    )

    def __init__(
        self,
        name: str = "monitor",
        *,
        quantile_bins: int = 4096,
        calibration_samples: int = 1024,
        histogram_range: Optional[Tuple[float, float]] = None,
        track_quantiles: bool = True,
    ) -> None:
        if quantile_bins < 1:
            raise ValueError(f"quantile_bins must be >= 1, got {quantile_bins!r}")
        if calibration_samples < 1:
            raise ValueError(
                f"calibration_samples must be >= 1, got {calibration_samples!r}"
            )
        self.name = name
        self._stats = RunningStatistics()
        self._track_quantiles = bool(track_quantiles)
        self._quantile_bins = int(quantile_bins)
        self._calibration_samples = int(calibration_samples)
        self._fixed_range = histogram_range
        self._histogram: Optional[Histogram] = None
        self._pending: Optional[array] = None
        if self._track_quantiles:
            if histogram_range is not None:
                low, high = histogram_range
                self._histogram = Histogram(low, high, self._quantile_bins)
            else:
                self._pending = array("d")

    # -- recording ------------------------------------------------------------

    def record(self, time: float, value: float) -> None:
        """Incorporate one observation (the ``time`` is not retained)."""
        value = float(value)
        self._stats.push(value)
        if self._histogram is not None:
            self._histogram.add(value)
        elif self._pending is not None:
            self._pending.append(value)
            if len(self._pending) >= self._calibration_samples:
                self._freeze_histogram()

    def _freeze_histogram(self) -> None:
        """Fix the histogram range from the calibration buffer and replay it."""
        low = min(0.0, self._stats.minimum)
        high = self._stats.maximum * 4.0
        if not high > low:
            high = low + max(abs(low), 1.0)
        self._histogram = Histogram(low, high, self._quantile_bins)
        self._histogram.add_many(self._pending)
        self._pending = None

    # -- accessors ------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of recorded observations (exact)."""
        return self._stats.count

    @property
    def total(self) -> float:
        """Sum of all observations (exact)."""
        return self._stats.total

    def mean(self) -> float:
        """Streaming sample mean (NaN when empty)."""
        return self._stats.mean

    def variance(self) -> float:
        """Unbiased sample variance (NaN below two observations)."""
        return self._stats.variance

    def std(self) -> float:
        """Sample standard deviation."""
        return self._stats.std

    def minimum(self) -> float:
        """Smallest observation (exact; NaN when empty)."""
        return self._stats.minimum

    def maximum(self) -> float:
        """Largest observation (exact; NaN when empty)."""
        return self._stats.maximum

    @property
    def quantile_resolution(self) -> float:
        """Width of one histogram bin (NaN before the range is frozen)."""
        if self._histogram is None:
            return math.nan
        return (self._histogram.high - self._histogram.low) / self._histogram.bins

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100), histogram-resolved.

        Exact while the calibration buffer is still live; afterwards
        resolved to one bin width and clamped to the exact ``[min, max]``.
        NaN when quantile tracking is disabled or no data arrived.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must lie in [0, 100], got {q!r}")
        if self._stats.count == 0 or not self._track_quantiles:
            return math.nan
        if self._pending is not None:
            return float(np.percentile(np.frombuffer(self._pending, dtype=np.float64), q))
        estimate = self._histogram.quantile(q / 100.0)
        # The histogram answers with bin centres (or range edges for
        # clamped mass); the exact running extrema bound the true value.
        return float(min(max(estimate, self._stats.minimum), self._stats.maximum))

    def summary(self) -> Dict[str, float]:
        """Summary dictionary with the same keys as ``Monitor.summary``."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "std": self.std(),
            "min": self.minimum(),
            "max": self.maximum(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    # -- merging --------------------------------------------------------------

    def merge(self, other: "OnlineMonitor") -> "OnlineMonitor":
        """Combine two partial streams into one sink (``self`` then ``other``).

        Scalar statistics merge exactly for any split
        (:meth:`RunningStatistics.merge`).  Histograms merge only when both
        sinks were built with the same explicit ``histogram_range`` — the
        auto-calibrated range is data-dependent, so two partial streams
        would bin differently.
        """
        if not isinstance(other, OnlineMonitor):
            raise TypeError("can only merge with another OnlineMonitor")
        if self._track_quantiles != other._track_quantiles:
            raise ValueError("cannot merge sinks with different quantile tracking")
        if self._track_quantiles:
            if self._fixed_range is None or self._fixed_range != other._fixed_range:
                raise ValueError(
                    "merging quantile-tracking sinks requires both to share an "
                    "explicit histogram_range (auto-calibrated ranges are "
                    "data-dependent)"
                )
        merged = OnlineMonitor(
            self.name,
            quantile_bins=self._quantile_bins,
            calibration_samples=self._calibration_samples,
            histogram_range=self._fixed_range,
            track_quantiles=self._track_quantiles,
        )
        merged._stats = self._stats.merge(other._stats)
        if merged._histogram is not None:
            merged._histogram = self._histogram.merge(other._histogram)
        return merged

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"<OnlineMonitor {self.name!r} n={self.count} mean={self.mean():.6g}>"
