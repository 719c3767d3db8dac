"""Observation utilities for simulations.

:class:`Monitor` records tagged scalar observations (e.g. per-message
latency), and :class:`TimeWeightedMonitor` records piecewise-constant signals
(e.g. queue length over time) and integrates them correctly.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = ["Monitor", "TimeWeightedMonitor"]


def _as_double_array(data: Iterable[float]) -> array:
    """Coerce ``data`` to a C-double :class:`array.array` in a single pass.

    ndarray input is converted with one C-level memcpy (no per-element
    Python float boxing); any other iterable — including one-shot
    generators — is consumed exactly once by the ``array`` constructor.
    """
    if isinstance(data, array) and data.typecode == "d":
        return data
    if isinstance(data, np.ndarray):
        if data.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {data.shape!r}")
        out = array("d")
        out.frombytes(np.ascontiguousarray(data, dtype=np.float64).tobytes())
        return out
    return array("d", data)


class Monitor:
    """Record scalar observations and expose summary statistics.

    The monitor keeps all observations (time, value) so that warm-up
    truncation and batching can be applied afterwards; for extremely long
    runs use :meth:`summary` incrementally instead.

    Storage is a pair of C-double :class:`array.array` buffers: recording
    appends a native double (no per-observation Python ``float`` boxing),
    and the statistics run on transient zero-copy NumPy views of the
    buffers instead of rebuilding an ndarray from a list of boxed floats
    per call.
    """

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "monitor") -> None:
        self.name = name
        self._times = array("d")
        self._values = array("d")

    # -- recording ------------------------------------------------------------

    def record(self, time: float, value: float) -> None:
        """Record ``value`` observed at simulated ``time``."""
        self._times.append(time)
        self._values.append(value)

    def extend(self, times: Iterable[float], values: Iterable[float]) -> None:
        """Record many observations at once.

        Each input is materialized exactly once (ndarrays via a C memcpy,
        generators consumed in a single pass); a length mismatch raises
        ``ValueError`` before either buffer is modified.
        """
        times = _as_double_array(times)
        values = _as_double_array(values)
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        self._times.extend(times)
        self._values.extend(values)

    def reset(self) -> None:
        """Discard all observations."""
        del self._times[:]
        del self._values[:]

    # -- access ---------------------------------------------------------------

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

    @property
    def times(self) -> np.ndarray:
        """Observation times as an array (an independent snapshot)."""
        return np.frombuffer(self._times, dtype=np.float64).copy()

    @property
    def values(self) -> np.ndarray:
        """Observation values as an array (an independent snapshot)."""
        return np.frombuffer(self._values, dtype=np.float64).copy()

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

    def truncated(self, skip: int) -> "Monitor":
        """Return a copy with the first ``skip`` observations removed (warm-up)."""
        if skip < 0:
            raise ValueError(f"skip must be non-negative, got {skip!r}")
        out = Monitor(self.name)
        out._times = self._times[skip:]
        out._values = self._values[skip:]
        return out

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

    def batch_means_interval(self, num_batches: int, confidence: float = 0.95):
        """Batch-means confidence interval over the retained observations.

        Part of the :class:`repro.stats.sinks.StatsSink` protocol; delegates
        to :func:`repro.stats.intervals.batch_means` on the full value
        array, so it is bit-identical to calling that function directly.
        """
        from ..stats.intervals import batch_means

        return batch_means(self.values, num_batches=num_batches, confidence=confidence)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"<Monitor {self.name!r} n={self.count} mean={self.mean():.6g}>"


class TimeWeightedMonitor:
    """Record a piecewise-constant signal and compute its time average.

    Typical use: queue length or number of busy servers over time.  Values
    are integrated from the time they are set until the next change.
    """

    __slots__ = ("name", "_last_time", "_last_value", "_area", "_max", "_min", "_start_time")

    def __init__(self, name: str = "level", initial: float = 0.0, start_time: float = 0.0) -> None:
        self.name = name
        self._last_time = float(start_time)
        self._last_value = float(initial)
        self._area = 0.0
        self._max = float(initial)
        self._min = float(initial)
        self._start_time = float(start_time)

    def update(self, time: float, value: float) -> None:
        """Set the signal to ``value`` at simulated ``time``."""
        time = float(time)
        last_time = self._last_time
        if time < last_time:
            raise ValueError(
                f"time went backwards: {time!r} < {last_time!r} in monitor {self.name!r}"
            )
        value = float(value)
        self._area += self._last_value * (time - last_time)
        self._last_time = time
        self._last_value = value
        if value > self._max:
            self._max = value
        elif value < self._min:
            self._min = value

    def update_unchecked(self, time: float, value: float) -> None:
        """:meth:`update` without coercion or the went-backwards check.

        For event-driven hot paths where ``time`` is the simulation clock
        (monotonic by construction) and ``value`` is already a float; keeps
        the integration bookkeeping in one place instead of letting callers
        inline it.
        """
        self._area += self._last_value * (time - self._last_time)
        self._last_time = time
        self._last_value = value
        if value > self._max:
            self._max = value
        elif value < self._min:
            self._min = value

    def increment(self, time: float, delta: float = 1.0) -> None:
        """Add ``delta`` to the current level at ``time``."""
        self.update(time, self._last_value + delta)

    def decrement(self, time: float, delta: float = 1.0) -> None:
        """Subtract ``delta`` from the current level at ``time``."""
        self.update(time, self._last_value - delta)

    @property
    def current(self) -> float:
        """The current level."""
        return self._last_value

    @property
    def maximum(self) -> float:
        """Largest level seen so far."""
        return self._max

    @property
    def minimum(self) -> float:
        """Smallest level seen so far."""
        return self._min

    def time_average(self, now: Optional[float] = None) -> float:
        """Time-average of the signal from the start time until ``now``."""
        end = self._last_time if now is None else float(now)
        if end < self._last_time:
            raise ValueError("now must not be before the last update")
        total_area = self._area + self._last_value * (end - self._last_time)
        horizon = end - self._start_time
        if horizon <= 0:
            return self._last_value
        return total_area / horizon

    def __repr__(self) -> str:
        return f"<TimeWeightedMonitor {self.name!r} level={self._last_value!r}>"
