"""Property-based tests for the random streams and the statistics toolkit."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import RandomStreams
from repro.stats.histogram import Histogram
from repro.stats.intervals import mean_confidence_interval
from repro.stats.online import RunningStatistics

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)


class TestRNGProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_streams_reproducible(self, seed, name):
        a = RandomStreams(seed).stream(name).exponential(1.0)
        b = RandomStreams(seed).stream(name).exponential(1.0)
        assert a == b

    @given(mean=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50)
    def test_exponential_positive(self, mean):
        rng = RandomStreams(0).stream("x")
        assert all(rng.exponential(mean) > 0 for _ in range(20))


class TestStatisticsProperties:
    @given(values=st.lists(finite_floats, min_size=1, max_size=500))
    @settings(max_examples=150)
    def test_running_statistics_match_numpy(self, values):
        stats = RunningStatistics()
        stats.push_many(values)
        arr = np.asarray(values)
        assert math.isclose(stats.mean, float(arr.mean()), rel_tol=1e-7, abs_tol=1e-6)
        assert stats.minimum == float(arr.min())
        assert stats.maximum == float(arr.max())
        if len(values) > 1:
            assert math.isclose(
                stats.variance, float(arr.var(ddof=1)), rel_tol=1e-6, abs_tol=1e-5
            )

    @given(
        values=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                        min_size=2, max_size=200),
        confidence=st.sampled_from([0.9, 0.95, 0.99]),
    )
    @settings(max_examples=150)
    def test_confidence_interval_contains_sample_mean(self, values, confidence):
        ci = mean_confidence_interval(values, confidence)
        assert ci.lower <= ci.mean <= ci.upper
        assert ci.half_width >= 0.0

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                        min_size=1, max_size=300),
        bins=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=150)
    def test_histogram_conserves_counts(self, values, bins):
        hist = Histogram(0.0, 100.0, bins=bins)
        hist.add_many(values)
        assert hist.total == len(values)
        assert int(hist.counts.sum()) + hist.underflow + hist.overflow == len(values)
