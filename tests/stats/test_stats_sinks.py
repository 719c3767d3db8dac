"""Streaming-parity property tests for the pluggable stats sinks.

The acceptance contract of the streaming observation layer: for the same
observation stream, :class:`OnlineMonitor` must agree with the array-backed
:class:`Monitor` *exactly* on ``count``/``min``/``max``/``total`` and to
within 1e-9 relative on ``mean``/``std`` and the batch-means confidence
interval — across adversarial streams (constant, heavy-tailed,
warmup-truncated).  Merging partial sinks (how a sharded backend combines
results) must be associative.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.des.monitor import Monitor
from repro.stats.histogram import Histogram
from repro.stats.intervals import batch_means
from repro.stats.online import RunningStatistics
from repro.stats.sinks import (
    STATS_MODES,
    OnlineMonitor,
    StatsSink,
    validate_stats_mode,
)

BATCHES = 20
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
    online = OnlineMonitor(
        "latency", batch_count=BATCHES, expected_count=len(values)
    )
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
    def test_batch_means_interval_within_1e9_relative(self, name):
        values = STREAMS[name]
        mon, online = _filled_pair(values)
        ref = batch_means(values, num_batches=BATCHES)
        arr = mon.batch_means_interval(BATCHES)
        onl = online.batch_means_interval(BATCHES)
        # The array sink delegates to batch_means, so it is bit-identical.
        assert arr.mean.hex() == ref.mean.hex()
        assert arr.half_width.hex() == ref.half_width.hex()
        assert _rel(onl.mean, ref.mean) < PARITY_REL
        if ref.half_width > 0:
            assert _rel(onl.half_width, ref.half_width) < PARITY_REL
        else:
            assert onl.half_width == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_summary_keys_match_array_sink(self, name):
        mon, online = _filled_pair(STREAMS[name])
        assert set(online.summary()) == set(mon.summary())

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


class TestBatchLayout:
    def test_final_batch_absorbs_remainder_like_array_path(self):
        # 103 observations over 20 batches: bs=5, final batch holds 8.
        values = np.linspace(1.0, 103.0, 103)
        online = OnlineMonitor("x", batch_count=BATCHES, expected_count=103)
        for i, v in enumerate(values):
            online.record(float(i), float(v))
        ref = batch_means(values, num_batches=BATCHES)
        got = online.batch_means_interval(BATCHES)
        assert _rel(got.mean, ref.mean) < PARITY_REL
        assert _rel(got.half_width, ref.half_width) < PARITY_REL

    def test_wrong_batch_count_rejected(self):
        online = OnlineMonitor("x", batch_count=10, expected_count=100)
        for i in range(100):
            online.record(float(i), 1.0)
        with pytest.raises(ValueError, match="10 batches"):
            online.batch_means_interval(20)

    def test_unconfigured_sink_rejects_interval(self):
        online = OnlineMonitor("x")
        online.record(0.0, 1.0)
        with pytest.raises(ValueError, match="without batch-means"):
            online.batch_means_interval(20)

    def test_too_few_observations_rejected(self):
        online = OnlineMonitor("x", batch_count=20, expected_count=100)
        for i in range(5):
            online.record(float(i), 1.0)
        with pytest.raises(ValueError, match="at least 20"):
            online.batch_means_interval(20)

    def test_batch_config_must_come_paired(self):
        with pytest.raises(ValueError, match="together"):
            OnlineMonitor("x", batch_count=20)
        with pytest.raises(ValueError, match="together"):
            OnlineMonitor("x", expected_count=100)


class TestMergeAssociativity:
    """Backend-split combining: merges must not depend on shard boundaries."""

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

    def test_online_monitor_merge_across_batch_boundary(self):
        rng = np.random.default_rng(9)
        values = rng.exponential(1e-4, size=2_000)
        hist_range = (0.0, 2e-3)
        cut = 1_000  # 10 of 20 batches, a clean shard boundary

        def shard(chunk, start):
            sink = OnlineMonitor(
                "latency",
                batch_count=BATCHES,
                expected_count=len(values),
                histogram_range=hist_range,
            )
            # Replay with the global observation index so batch selection
            # matches the unsharded stream.
            for i, v in enumerate(chunk):
                sink._batches[
                    min((start + i) // sink._batch_size, BATCHES - 1)
                ].push(float(v))
                sink._stats.push(float(v))
                sink._histogram.add(float(v))
            return sink

        a, b = shard(values[:cut], 0), shard(values[cut:], cut)
        merged = a.merge(b)
        whole = OnlineMonitor(
            "latency",
            batch_count=BATCHES,
            expected_count=len(values),
            histogram_range=hist_range,
        )
        for i, v in enumerate(values):
            whole.record(float(i), float(v))
        assert merged.count == whole.count
        assert merged.minimum() == whole.minimum()
        assert merged.maximum() == whole.maximum()
        assert _rel(merged.mean(), whole.mean()) < PARITY_REL
        ref = whole.batch_means_interval(BATCHES)
        got = merged.batch_means_interval(BATCHES)
        assert _rel(got.mean, ref.mean) < PARITY_REL
        assert _rel(got.half_width, ref.half_width) < PARITY_REL
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

    def test_merge_rejects_different_batch_layouts(self):
        a = OnlineMonitor("x", batch_count=10, expected_count=100,
                          track_quantiles=False)
        b = OnlineMonitor("x", batch_count=20, expected_count=100,
                          track_quantiles=False)
        with pytest.raises(ValueError, match="batch layouts"):
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

    def test_constant_stream_freezes_degenerate_range(self):
        sink = OnlineMonitor(calibration_samples=16)
        for i in range(64):
            sink.record(float(i), 0.0)  # max*4 == min == 0 → degenerate
        assert sink.percentile(50) == 0.0
        assert sink.quantile_resolution > 0

    def test_extend_matches_record_loop(self):
        values = np.linspace(0.1, 1.0, 50)
        a = OnlineMonitor("x", track_quantiles=False)
        b = OnlineMonitor("x", track_quantiles=False)
        a.extend(np.arange(50.0), values)
        for i, v in enumerate(values):
            b.record(float(i), float(v))
        assert a.count == b.count
        assert a.mean() == b.mean()
        assert a.total == b.total

    def test_extend_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            OnlineMonitor().extend([0.0], [1.0, 2.0])

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
            ({"batch_count": 1, "expected_count": 100}, "batch_count"),
            ({"batch_count": 20, "expected_count": 0}, "expected_count"),
        ],
    )
    def test_constructor_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            OnlineMonitor(**kwargs)
