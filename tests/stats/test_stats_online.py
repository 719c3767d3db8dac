"""Unit tests for online statistics accumulators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats.online import RunningStatistics


class TestRunningStatistics:
    def test_empty_is_nan(self):
        stats = RunningStatistics()
        assert math.isnan(stats.mean)
        assert math.isnan(stats.variance)
        assert math.isnan(stats.minimum)
        assert stats.count == 0

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5.0, 2.0, size=1000)
        stats = RunningStatistics()
        stats.push_many(data)
        assert stats.count == 1000
        assert stats.mean == pytest.approx(float(np.mean(data)))
        assert stats.variance == pytest.approx(float(np.var(data, ddof=1)))
        assert stats.std == pytest.approx(float(np.std(data, ddof=1)))
        assert stats.minimum == pytest.approx(float(np.min(data)))
        assert stats.maximum == pytest.approx(float(np.max(data)))
        assert stats.total == pytest.approx(float(np.sum(data)))

    def test_single_observation(self):
        stats = RunningStatistics()
        stats.push(3.0)
        assert stats.mean == 3.0
        assert math.isnan(stats.variance)
        assert stats.population_variance == 0.0

    def test_standard_error_needs_two_observations(self):
        stats = RunningStatistics()
        stats.push(3.0)
        assert math.isnan(stats.standard_error)

    def test_standard_error(self):
        stats = RunningStatistics()
        stats.push_many([1.0, 2.0, 3.0, 4.0])
        expected = np.std([1, 2, 3, 4], ddof=1) / 2.0
        assert stats.standard_error == pytest.approx(float(expected))

    def test_merge_equivalent_to_combined(self):
        rng = np.random.default_rng(1)
        a_data, b_data = rng.random(500), rng.random(300) * 10
        a, b = RunningStatistics(), RunningStatistics()
        a.push_many(a_data)
        b.push_many(b_data)
        merged = a.merge(b)
        combined = np.concatenate([a_data, b_data])
        assert merged.count == 800
        assert merged.mean == pytest.approx(float(np.mean(combined)))
        assert merged.variance == pytest.approx(float(np.var(combined, ddof=1)))
        assert merged.minimum == pytest.approx(float(np.min(combined)))

    def test_merge_with_empty(self):
        a = RunningStatistics()
        a.push_many([1.0, 2.0])
        merged = a.merge(RunningStatistics())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)

    def test_population_variance_divides_by_n(self):
        stats = RunningStatistics()
        assert math.isnan(stats.population_variance)
        stats.push_many([1.0, 2.0, 3.0, 4.0])
        assert stats.population_variance == pytest.approx(1.25)
        assert stats.variance == pytest.approx(5.0 / 3.0)

    def test_merge_of_two_empty_accumulators_is_empty(self):
        merged = RunningStatistics().merge(RunningStatistics())
        assert merged.count == 0
        assert math.isnan(merged.mean)
        assert math.isnan(merged.minimum)

    def test_merge_type_check(self):
        with pytest.raises(TypeError):
            RunningStatistics().merge([1, 2, 3])  # type: ignore[arg-type]

    def test_numerical_stability_large_offset(self):
        """Welford should not cancel catastrophically with a large mean offset."""
        offset = 1e9
        data = [offset + v for v in (1.0, 2.0, 3.0, 4.0)]
        stats = RunningStatistics()
        stats.push_many(data)
        assert stats.variance == pytest.approx(5.0 / 3.0, rel=1e-6)


