"""Unit tests for the array-backed sink :class:`repro.stats.sinks.Monitor`."""

from __future__ import annotations

import math

import pytest

from repro.stats.sinks import Monitor


def filled(values, name: str = "monitor") -> Monitor:
    """A monitor that recorded ``values`` at times 0, 1, 2, ..."""
    mon = Monitor(name)
    for t, value in enumerate(values):
        mon.record(float(t), value)
    return mon


class TestMonitor:
    def test_empty_monitor_stats_are_nan(self):
        mon = Monitor()
        assert math.isnan(mon.mean())
        assert math.isnan(mon.minimum())
        assert math.isnan(mon.maximum())
        assert mon.count == 0

    def test_empty_monitor_percentile_is_nan(self):
        assert math.isnan(Monitor().percentile(50))

    def test_record_and_statistics(self):
        mon = filled([2.0, 4.0, 6.0, 8.0], "latency")
        assert mon.mean() == pytest.approx(5.0)
        assert mon.minimum() == 2.0
        assert mon.maximum() == 8.0
        assert mon.std() == pytest.approx(2.581988897, rel=1e-6)
        assert mon.percentile(50) == pytest.approx(5.0)

    def test_record_ignores_the_time(self):
        mon = Monitor()
        for time, value in ((5.0, 1.0), (1.0, 2.0), (1.0, 3.0)):
            mon.record(time, value)
        assert mon.summary() == filled([1.0, 2.0, 3.0]).summary()

    def test_variance_needs_two_observations(self):
        mon = filled([3.0])
        assert math.isnan(mon.variance())
        assert math.isnan(mon.std())
        mon.record(1.0, 5.0)
        assert (mon.variance(), mon.std()) == (2.0, math.sqrt(2.0))

    def test_len_is_the_observation_count(self):
        mon = filled([1.0, 2.0, 3.0])
        assert len(mon) == mon.count == 3

    def test_summary_keys(self):
        summary = filled([float(i) for i in range(100)]).summary()
        assert set(summary) == {"count", "mean", "std", "min", "max", "p50", "p95", "p99"}
        assert summary["count"] == 100

    def test_repr_shows_name_count_and_mean(self):
        mon = filled([1.0, 2.0], "latency")
        assert repr(mon) == "<Monitor 'latency' n=2 mean=1.5>"


class TestMonitorBuffer:
    """The C-double buffer behind the statistics."""

    def test_record_after_reading_stats(self):
        # Stats use transient zero-copy views of the buffer; they must not
        # keep the buffer exported (which would block further appends).
        mon = Monitor()
        mon.record(0.0, 1.0)
        assert mon.mean() == 1.0
        assert mon.summary()["p50"] == 1.0
        mon.record(1.0, 3.0)
        assert mon.mean() == 2.0
        assert mon.percentile(100) == 3.0

    def test_monitor_has_no_dict(self):
        assert not hasattr(Monitor(), "__dict__")
