"""Streaming-parity property tests for the pluggable stats sinks.

The acceptance contract of the streaming observation layer: for the same
observation stream, :class:`OnlineMonitor` must agree with the array-backed
:class:`Monitor` *exactly* on ``count``/``min``/``max``/``total`` and to
within 1e-9 relative on ``mean``/``std`` — across adversarial streams
(constant, heavy-tailed, warmup-truncated).  Merging partial sinks must
not depend on where the stream was split.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats.histogram import Histogram
from repro.stats.online import RunningStatistics
from repro.stats.modes import STATS_MODES, validate_stats_mode
from repro.stats.sinks import Monitor, OnlineMonitor, StatsSink

PARITY_REL = 1e-9


def _rel(a: float, b: float) -> float:
    """Relative difference with an absolute floor for near-zero references."""
    return abs(a - b) / max(abs(b), 1e-300)


def _adversarial_streams():
    """Named adversarial observation streams of the acceptance criteria."""
    rng = np.random.default_rng(20260808)
    constant = np.full(5_000, 3.25e-4)
    heavy = rng.pareto(1.3, size=5_000) * 1e-3 + 1e-6  # infinite-variance tail
    lognormal = rng.lognormal(mean=-8.0, sigma=2.5, size=5_000)
    full = rng.exponential(2.5e-4, size=6_000)
    warmup_truncated = full[1_000:]  # what LatencySink feeds after the cut
    # Mean/std ratio of 1e6 stresses cancellation; Welford holds ~1e-14
    # relative here (a naive sum-of-squares accumulator would lose half the
    # mantissa).
    offset = rng.normal(1e6, 1.0, size=5_000)
    return {
        "constant": constant,
        "pareto-heavy-tail": heavy,
        "lognormal": lognormal,
        "warmup-truncated": warmup_truncated,
        "large-offset": offset,
    }


STREAMS = _adversarial_streams()


def _filled_pair(values: np.ndarray):
    """An array Monitor and an OnlineMonitor fed the identical stream."""
    mon = Monitor("latency")
    online = OnlineMonitor("latency")
    for i, v in enumerate(values):
        mon.record(float(i), float(v))
        online.record(float(i), float(v))
    return mon, online


class TestStatsModeKnob:
    def test_modes(self):
        assert STATS_MODES == ("array", "online")
        for mode in STATS_MODES:
            assert validate_stats_mode(mode) == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="stats_mode"):
            validate_stats_mode("rolling")

    def test_both_sinks_satisfy_protocol(self):
        assert isinstance(Monitor(), StatsSink)
        assert isinstance(OnlineMonitor(), StatsSink)


class TestOnlineArrayParity:
    """Exactness contract of the online sink vs the array sink."""

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_count_min_max_total_exact(self, name):
        values = STREAMS[name]
        mon, online = _filled_pair(values)
        assert online.count == mon.count == len(values)
        # Exact — compared by hex, not approx.
        assert online.minimum().hex() == mon.minimum().hex()
        assert online.maximum().hex() == mon.maximum().hex()
        assert online.total == float(values.sum()) or _rel(
            online.total, float(values.sum())
        ) < PARITY_REL

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_mean_std_within_1e9_relative(self, name):
        values = STREAMS[name]
        mon, online = _filled_pair(values)
        assert _rel(online.mean(), mon.mean()) < PARITY_REL
        if name == "constant":
            # Welford is exactly 0 on a constant stream; NumPy's pairwise
            # summation leaves ~1e-20 of rounding dust.  Both are "zero" at
            # the scale of the data.
            scale = abs(mon.mean())
            assert online.std() <= scale * 1e-12
            assert mon.std() <= scale * 1e-12
        else:
            assert _rel(online.std(), mon.std()) < PARITY_REL
            assert _rel(online.variance(), mon.variance()) < PARITY_REL

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_summary_keys_match_array_sink(self, name):
        mon, online = _filled_pair(STREAMS[name])
        assert set(online.summary()) == set(mon.summary())

    @pytest.mark.parametrize("length", [1, 2, 19])
    def test_short_stream_matches_the_array_sink(self, length):
        values = STREAMS["lognormal"][:length]
        mon, online = _filled_pair(values)
        assert online.count == mon.count == length
        assert _rel(online.mean(), mon.mean()) < PARITY_REL
        assert (online.minimum(), online.maximum()) == (mon.minimum(), mon.maximum())
        if length == 1:
            assert math.isnan(online.variance()) and math.isnan(mon.variance())
        else:
            assert _rel(online.variance(), mon.variance()) < PARITY_REL
        for q in (0.0, 50.0, 99.0):
            assert online.percentile(q) == mon.percentile(q)

    def test_percentiles_exact_while_calibrating(self):
        values = STREAMS["lognormal"][:512]  # below calibration_samples
        mon, online = _filled_pair(values)
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert online.percentile(q) == mon.percentile(q)

    def test_percentiles_within_one_bin_after_freeze(self):
        values = STREAMS["lognormal"]
        mon, online = _filled_pair(values)
        res = online.quantile_resolution
        assert res > 0 and math.isfinite(res)
        for q in (50.0, 95.0, 99.0):
            exact = mon.percentile(q)
            approx = online.percentile(q)
            # One bin of slack, plus clamped to the exact extrema.
            assert abs(approx - exact) <= res
            assert online.minimum() <= approx <= online.maximum()


class TestMergeAssociativity:
    """Combining partial streams must not depend on where they were split."""

    def test_running_statistics_merge_associative(self):
        rng = np.random.default_rng(7)
        chunks = [rng.lognormal(0.0, 2.0, size=n) for n in (313, 1, 997, 40)]
        shards = []
        for chunk in chunks:
            s = RunningStatistics()
            s.push_many(chunk)
            shards.append(s)
        left = shards[0].merge(shards[1]).merge(shards[2]).merge(shards[3])
        right = shards[0].merge(shards[1].merge(shards[2].merge(shards[3])))
        whole = RunningStatistics()
        whole.push_many(np.concatenate(chunks))
        for merged in (left, right):
            assert merged.count == whole.count
            assert merged.minimum == whole.minimum
            assert merged.maximum == whole.maximum
            assert _rel(merged.mean, whole.mean) < PARITY_REL
            assert _rel(merged.variance, whole.variance) < PARITY_REL

    def test_histogram_merge_associative_and_exact(self):
        rng = np.random.default_rng(8)
        chunks = [rng.exponential(1.0, size=n) for n in (500, 200, 800)]
        shards = []
        for chunk in chunks:
            h = Histogram(0.0, 5.0, bins=64)
            h.add_many(chunk)
            shards.append(h)
        left = shards[0].merge(shards[1]).merge(shards[2])
        right = shards[0].merge(shards[1].merge(shards[2]))
        whole = Histogram(0.0, 5.0, bins=64)
        whole.add_many(np.concatenate(chunks))
        for merged in (left, right):
            assert merged.total == whole.total
            assert merged.underflow == whole.underflow
            assert merged.overflow == whole.overflow
            assert (merged.counts == whole.counts).all()
            for q in (0.1, 0.5, 0.9, 0.99):
                assert merged.quantile(q) == whole.quantile(q)

    @pytest.mark.parametrize("cut", [1, 777, 1_999])
    def test_online_monitor_merge_matches_the_unsplit_stream(self, cut):
        rng = np.random.default_rng(9)
        values = rng.exponential(1e-4, size=2_000)
        hist_range = (0.0, 2e-3)

        def fed(chunk):
            sink = OnlineMonitor("latency", histogram_range=hist_range)
            for i, v in enumerate(chunk):
                sink.record(float(i), float(v))
            return sink

        merged = fed(values[:cut]).merge(fed(values[cut:]))
        whole = fed(values)
        assert merged.count == whole.count
        assert merged.minimum() == whole.minimum()
        assert merged.maximum() == whole.maximum()
        assert _rel(merged.mean(), whole.mean()) < PARITY_REL
        assert _rel(merged.variance(), whole.variance()) < PARITY_REL
        for q in (50.0, 95.0):
            assert merged.percentile(q) == whole.percentile(q)

    def test_merge_requires_explicit_histogram_range(self):
        a = OnlineMonitor("x")
        b = OnlineMonitor("x")
        a.record(0.0, 1.0)
        b.record(0.0, 2.0)
        with pytest.raises(ValueError, match="histogram_range"):
            a.merge(b)

    def test_merge_rejects_mixed_quantile_tracking(self):
        a = OnlineMonitor("x", track_quantiles=False)
        b = OnlineMonitor("x")
        with pytest.raises(ValueError, match="quantile tracking"):
            a.merge(b)

    def test_merge_without_quantiles_is_exact(self):
        a = OnlineMonitor("x", track_quantiles=False)
        b = OnlineMonitor("x", track_quantiles=False)
        for i in range(10):
            a.record(float(i), float(i))
        for i in range(5):
            b.record(float(i), float(100 + i))
        merged = a.merge(b)
        assert merged.count == 15
        assert merged.minimum() == 0.0
        assert merged.maximum() == 104.0
        assert math.isnan(merged.percentile(50))


class TestOnlineMonitorEdgeCases:
    def test_empty_sink_is_nan(self):
        sink = OnlineMonitor()
        assert sink.count == 0
        assert math.isnan(sink.mean())
        assert math.isnan(sink.percentile(50))
        assert math.isnan(sink.quantile_resolution)

    def test_len_is_the_observation_count(self):
        sink = OnlineMonitor()
        for value in (1.0, 2.0, 3.0):
            sink.record(value, value)
        assert len(sink) == sink.count == 3

    def test_merge_with_another_sink_type_rejected(self):
        with pytest.raises(TypeError, match="another OnlineMonitor"):
            OnlineMonitor().merge(Monitor())

    def test_constant_stream_freezes_degenerate_range(self):
        sink = OnlineMonitor(calibration_samples=16)
        for i in range(64):
            sink.record(float(i), 0.0)  # max*4 == min == 0 → degenerate
        assert sink.percentile(50) == 0.0
        assert sink.quantile_resolution > 0

    def test_percentile_range_validation(self):
        sink = OnlineMonitor()
        sink.record(0.0, 1.0)
        with pytest.raises(ValueError):
            sink.percentile(101.0)

    def test_slots_reject_stray_attributes(self):
        sink = OnlineMonitor()
        with pytest.raises(AttributeError):
            sink.messages = []

    def test_repr_mentions_name_and_count(self):
        sink = OnlineMonitor("latency")
        sink.record(0.0, 2.0)
        assert "latency" in repr(sink) and "n=1" in repr(sink)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"quantile_bins": 0}, "quantile_bins"),
            ({"calibration_samples": 0}, "calibration_samples"),
        ],
    )
    def test_constructor_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            OnlineMonitor(**kwargs)
