"""Unit tests for confidence intervals, warm-up detection, histograms and comparison metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats.compare import (
    absolute_error,
    compare_series,
    max_relative_error,
    mean_absolute_percentage_error,
    relative_error,
    root_mean_square_error,
)
from repro.stats.histogram import Histogram
from repro.stats.intervals import batch_means, mean_confidence_interval, t_quantile
from repro.stats.warmup import moving_average_crossing, mser5_truncation, truncate_warmup


class TestTQuantile:
    def test_matches_known_values(self):
        # Classic t-table values.
        assert t_quantile(0.95, 10) == pytest.approx(2.228, abs=0.01)
        assert t_quantile(0.95, 30) == pytest.approx(2.042, abs=0.01)
        assert t_quantile(0.99, 20) == pytest.approx(2.845, abs=0.01)

    def test_approaches_normal_for_large_dof(self):
        assert t_quantile(0.95, 100_000) == pytest.approx(1.96, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            t_quantile(1.5, 10)
        with pytest.raises(ValueError):
            t_quantile(0.95, 0)


class TestConfidenceIntervals:
    def test_basic_interval(self):
        data = [10.0, 12.0, 9.0, 11.0, 13.0, 10.0, 12.0, 11.0]
        ci = mean_confidence_interval(data, confidence=0.95)
        assert ci.mean == pytest.approx(float(np.mean(data)))
        assert ci.lower < ci.mean < ci.upper
        assert ci.contains(ci.mean)
        assert ci.sample_size == 8

    def test_single_observation_infinite_width(self):
        ci = mean_confidence_interval([5.0])
        assert math.isinf(ci.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_higher_confidence_wider(self):
        data = list(np.random.default_rng(3).random(50))
        assert (
            mean_confidence_interval(data, 0.99).half_width
            > mean_confidence_interval(data, 0.90).half_width
        )

    def test_coverage_of_known_mean(self):
        """95% CI should contain the true mean roughly 95% of the time."""
        rng = np.random.default_rng(4)
        hits = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(10.0, 2.0, size=30)
            if mean_confidence_interval(sample, 0.95).contains(10.0):
                hits += 1
        assert hits / trials > 0.88

    def test_relative_half_width_and_str(self):
        ci = mean_confidence_interval([10.0, 10.5, 9.5, 10.2])
        assert 0 < ci.relative_half_width < 1
        assert "95%" in str(ci)

    def test_batch_means_requires_enough_data(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0], num_batches=10)
        with pytest.raises(ValueError):
            batch_means(list(range(100)), num_batches=1)

    def test_batch_means_interval_reasonable(self):
        rng = np.random.default_rng(5)
        data = rng.exponential(2.0, size=2000)
        ci = batch_means(data, num_batches=20)
        assert ci.mean == pytest.approx(2.0, rel=0.1)
        assert ci.sample_size == 20

    def test_batch_means_drops_no_observation(self):
        """Regression: the tail remainder folds into the final batch."""
        # 107 = 5 batches of 21 + remainder 2; the old code silently dropped
        # the last 2 observations.  With equal-size head batches the grand
        # batch-mean average weighted by batch length must equal the overall
        # mean of *all* observations.
        data = np.arange(107, dtype=float)
        num_batches = 5
        ci = batch_means(data, num_batches=num_batches)
        batch_size = data.size // num_batches
        head = batch_size * (num_batches - 1)
        expected_means = [
            data[i * batch_size:(i + 1) * batch_size].mean()
            for i in range(num_batches - 1)
        ] + [data[head:].mean()]
        assert ci.mean == pytest.approx(np.mean(expected_means))
        # The final batch's observations (including the tail) are all used:
        # shifting only the tail values must change the interval.
        shifted = data.copy()
        shifted[-2:] += 1000.0
        assert batch_means(shifted, num_batches=num_batches).mean != ci.mean

    def test_batch_means_exact_multiple_unchanged(self):
        data = np.arange(100, dtype=float)
        ci = batch_means(data, num_batches=5)
        assert ci.mean == pytest.approx(data.mean())
        assert ci.sample_size == 5


class TestWarmup:
    def test_mser5_detects_transient(self):
        # Initial transient at a high value, then steady state around 1.0.
        rng = np.random.default_rng(6)
        transient = 50.0 * np.exp(-np.arange(100) / 20.0)
        steady = rng.normal(1.0, 0.1, size=900)
        data = np.concatenate([transient + 1.0, steady])
        cutoff = mser5_truncation(data)
        assert 20 <= cutoff <= 300

    def test_mser5_no_transient_small_cutoff(self):
        rng = np.random.default_rng(7)
        data = rng.normal(5.0, 1.0, size=500)
        assert mser5_truncation(data) <= 125  # at most a modest fraction

    def test_mser5_short_sequence(self):
        assert mser5_truncation([1.0, 2.0]) == 0

    def test_mser5_validation(self):
        with pytest.raises(ValueError):
            mser5_truncation([1.0] * 100, batch_size=0)

    def test_moving_average_crossing(self):
        data = np.concatenate([np.full(200, 10.0), np.full(800, 1.0)])
        cutoff = moving_average_crossing(data, window=50)
        assert cutoff > 0

    def test_moving_average_short_sequence(self):
        assert moving_average_crossing([1.0, 2.0, 3.0], window=50) == 0

    def test_truncate_warmup_methods(self):
        data = list(np.linspace(10, 1, 200)) + [1.0] * 800
        for method in ("mser5", "welch", "none"):
            steady, cutoff = truncate_warmup(data, method=method)
            assert len(steady) + cutoff == len(data)
            assert len(steady) >= 10
        with pytest.raises(ValueError):
            truncate_warmup(data, method="bogus")

    def test_truncate_keeps_minimum_observations(self):
        data = [100.0] * 15
        steady, cutoff = truncate_warmup(data, method="mser5")
        assert len(steady) >= 10


class TestHistogram:
    def test_binning(self):
        hist = Histogram(0.0, 10.0, bins=10)
        hist.add(0.5)
        hist.add(9.99)
        hist.add(-1.0)
        hist.add(10.0)
        assert hist.counts[0] == 1
        assert hist.counts[9] == 1
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.total == 4

    def test_add_many_matches_add(self):
        values = np.random.default_rng(8).uniform(0, 10, size=1000)
        a = Histogram(0.0, 10.0, bins=20)
        b = Histogram(0.0, 10.0, bins=20)
        for v in values:
            a.add(v)
        b.add_many(values)
        assert np.array_equal(a.counts, b.counts)

    def test_normalized_sums_to_one(self):
        hist = Histogram(0.0, 1.0, bins=4)
        hist.add_many([0.1, 0.3, 0.6, 0.9])
        assert hist.normalized().sum() == pytest.approx(1.0)

    def test_quantile(self):
        hist = Histogram(0.0, 100.0, bins=100)
        hist.add_many(np.linspace(0, 99.9, 1000))
        assert hist.quantile(0.5) == pytest.approx(50.0, abs=2.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_zero_without_underflow_hits_first_occupied_bin(self):
        # Regression: with an empty underflow bucket, running >= target is
        # 0 >= 0 and q=0 wrongly returned ``low`` instead of the centre of
        # the first occupied bin.
        hist = Histogram(0.0, 10.0, bins=10)
        hist.add_many([3.5, 4.5, 7.5])
        assert hist.quantile(0.0) == pytest.approx(3.5)
        assert hist.quantile(1.0) == pytest.approx(7.5)

    def test_quantile_zero_with_underflow_returns_low(self):
        hist = Histogram(0.0, 10.0, bins=10)
        hist.add(-1.0)
        hist.add(5.5)
        assert hist.quantile(0.0) == 0.0

    def test_quantile_empty_histogram_is_nan(self):
        assert np.isnan(Histogram(0.0, 10.0, bins=10).quantile(0.5))

    def test_nan_observations_rejected_consistently(self):
        # add() and add_many() must agree: NaN is an error, never silently
        # dropped by add_many.
        hist = Histogram(0.0, 10.0, bins=10)
        with pytest.raises(ValueError):
            hist.add(float("nan"))
        with pytest.raises(ValueError):
            hist.add_many([1e-3, float("nan")])
        assert hist.total == 0

    def test_merge(self):
        a = Histogram(0.0, 10.0, bins=5)
        b = Histogram(0.0, 10.0, bins=5)
        a.add(1.0)
        b.add(9.0)
        merged = a.merge(b)
        assert merged.total == 2
        with pytest.raises(ValueError):
            a.merge(Histogram(0.0, 20.0, bins=5))

    def test_bin_edges_and_centers(self):
        hist = Histogram(0.0, 10.0, bins=10)
        assert len(hist.bin_edges()) == 11
        assert len(hist.bin_centers()) == 10
        assert hist.bin_centers()[0] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(5.0, 1.0)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, bins=0)


class TestComparisonMetrics:
    def test_relative_and_absolute_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert absolute_error(11.0, 10.0) == pytest.approx(1.0)
        assert math.isnan(relative_error(1.0, 0.0))

    def test_mape(self):
        assert mean_absolute_percentage_error([11.0, 9.0], [10.0, 10.0]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([], [])

    def test_rmse(self):
        assert root_mean_square_error([1.0, 2.0], [1.0, 4.0]) == pytest.approx(math.sqrt(2.0))

    def test_max_relative_error(self):
        assert max_relative_error([11.0, 12.0], [10.0, 10.0]) == pytest.approx(0.2)

    def test_compare_series_summary(self):
        summary = compare_series([1.0, 2.0, 3.0], [1.1, 2.2, 2.7])
        assert summary.n_points == 3
        assert summary.mape_percent > 0
        assert "MAPE" in str(summary)
        assert set(summary.as_dict()) == {"mape_percent", "rmse", "max_relative_error", "n_points"}

    def test_perfect_prediction(self):
        summary = compare_series([1.0, 2.0], [1.0, 2.0])
        assert summary.mape_percent == pytest.approx(0.0)
        assert summary.rmse == pytest.approx(0.0)
