"""Unit tests for monitors."""

from __future__ import annotations

import math

import pytest

from repro.des.monitor import Monitor, TimeWeightedMonitor


class TestMonitor:
    def test_empty_monitor_stats_are_nan(self):
        mon = Monitor()
        assert math.isnan(mon.mean())
        assert math.isnan(mon.minimum())
        assert math.isnan(mon.maximum())
        assert mon.count == 0

    def test_record_and_statistics(self):
        mon = Monitor("latency")
        for t, v in enumerate([2.0, 4.0, 6.0, 8.0]):
            mon.record(float(t), v)
        assert mon.mean() == pytest.approx(5.0)
        assert mon.minimum() == 2.0
        assert mon.maximum() == 8.0
        assert mon.std() == pytest.approx(2.581988897, rel=1e-6)
        assert mon.percentile(50) == pytest.approx(5.0)

    def test_extend_requires_matching_lengths(self):
        mon = Monitor()
        with pytest.raises(ValueError):
            mon.extend([1.0, 2.0], [1.0])

    def test_extend_and_len(self):
        mon = Monitor()
        mon.extend([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert len(mon) == 3
        assert list(mon.values) == [1.0, 2.0, 3.0]

    def test_truncated_removes_warmup(self):
        mon = Monitor()
        mon.extend(range(10), [100.0] * 5 + [1.0] * 5)
        steady = mon.truncated(5)
        assert steady.count == 5
        assert steady.mean() == pytest.approx(1.0)

    def test_truncated_negative_rejected(self):
        with pytest.raises(ValueError):
            Monitor().truncated(-1)

    def test_reset(self):
        mon = Monitor()
        mon.record(0.0, 1.0)
        mon.reset()
        assert mon.count == 0

    def test_summary_keys(self):
        mon = Monitor()
        mon.extend(range(100), [float(i) for i in range(100)])
        summary = mon.summary()
        assert set(summary) == {"count", "mean", "std", "min", "max", "p50", "p95", "p99"}
        assert summary["count"] == 100


class TestTimeWeightedMonitor:
    def test_time_average_piecewise_constant(self):
        mon = TimeWeightedMonitor(initial=0.0)
        mon.update(2.0, 4.0)   # level 0 on [0, 2), then 4
        mon.update(6.0, 1.0)   # level 4 on [2, 6), then 1
        # Average over [0, 10): (0*2 + 4*4 + 1*4) / 10 = 2.0
        assert mon.time_average(now=10.0) == pytest.approx(2.0)

    def test_increment_decrement(self):
        mon = TimeWeightedMonitor()
        mon.increment(1.0)
        mon.increment(2.0)
        mon.decrement(3.0)
        assert mon.current == 1.0
        assert mon.maximum == 2.0
        assert mon.minimum == 0.0

    def test_time_going_backwards_rejected(self):
        mon = TimeWeightedMonitor()
        mon.update(5.0, 1.0)
        with pytest.raises(ValueError):
            mon.update(4.0, 2.0)

    def test_time_average_before_last_update_rejected(self):
        mon = TimeWeightedMonitor()
        mon.update(5.0, 1.0)
        with pytest.raises(ValueError):
            mon.time_average(now=1.0)

    def test_zero_horizon_returns_current(self):
        mon = TimeWeightedMonitor(initial=3.0, start_time=2.0)
        assert mon.time_average(now=2.0) == 3.0


class TestMonitorExtendFastPaths:
    """The single-pass / zero-copy ``extend`` added by the PR-4 perf work."""

    def test_extend_accepts_ndarrays(self):
        import numpy as np

        mon = Monitor()
        mon.extend(np.arange(4, dtype=float), np.array([1.0, 2.0, 3.0, 4.0]))
        assert mon.count == 4
        assert list(mon.values) == [1.0, 2.0, 3.0, 4.0]
        assert list(mon.times) == [0.0, 1.0, 2.0, 3.0]

    def test_extend_ndarray_length_mismatch_leaves_monitor_untouched(self):
        import numpy as np

        mon = Monitor()
        mon.record(0.0, 9.0)
        with pytest.raises(ValueError):
            mon.extend(np.zeros(3), np.zeros(2))
        assert mon.count == 1
        assert list(mon.values) == [9.0]

    def test_extend_generator_consumed_single_pass(self):
        mon = Monitor()
        consumed = []

        def times():
            for t in (0.0, 1.0, 2.0):
                consumed.append(t)
                yield t

        mon.extend(times(), iter([5.0, 6.0, 7.0]))
        assert consumed == [0.0, 1.0, 2.0]
        assert list(mon.values) == [5.0, 6.0, 7.0]

    def test_extend_generator_length_mismatch_rejected(self):
        mon = Monitor()
        with pytest.raises(ValueError):
            mon.extend(iter([0.0, 1.0]), iter([5.0]))
        assert mon.count == 0

    def test_extend_rejects_multidimensional_arrays(self):
        import numpy as np

        with pytest.raises(ValueError):
            Monitor().extend(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_extend_casts_integer_arrays(self):
        import numpy as np

        mon = Monitor()
        mon.extend(np.arange(3), np.array([1, 2, 3]))
        assert list(mon.values) == [1.0, 2.0, 3.0]

    def test_values_snapshot_is_independent(self):
        mon = Monitor()
        mon.record(0.0, 1.0)
        snapshot = mon.values
        snapshot[0] = 99.0
        assert mon.mean() == 1.0

    def test_record_after_reading_stats(self):
        # Stats use transient zero-copy views of the buffer; they must not
        # keep the buffer exported (which would block further appends).
        mon = Monitor()
        mon.record(0.0, 1.0)
        assert mon.mean() == 1.0
        assert mon.values is not None
        mon.record(1.0, 3.0)
        assert mon.mean() == 2.0

    def test_monitor_has_no_dict(self):
        assert not hasattr(Monitor(), "__dict__")
        assert not hasattr(TimeWeightedMonitor(), "__dict__")
