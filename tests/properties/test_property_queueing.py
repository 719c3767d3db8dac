"""Property-based tests (hypothesis) for the queueing substrate."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.distributions import HyperExponential
from repro.queueing.mva import MVAStation, mean_value_analysis


class TestDistributionProperties:
    @given(
        mean=st.floats(min_value=0.01, max_value=10.0),
        scv=st.floats(min_value=1.01, max_value=20.0),
    )
    @settings(max_examples=100)
    def test_hyperexponential_fit_preserves_moments(self, mean, scv):
        dist = HyperExponential.from_mean_and_scv(mean, scv)
        assert math.isclose(dist.mean, mean, rel_tol=1e-9)
        assert math.isclose(dist.scv, scv, rel_tol=1e-6)


class TestMVAProperties:
    @given(
        population=st.integers(min_value=0, max_value=64),
        think=st.floats(min_value=0.1, max_value=100.0),
        demand=st.floats(min_value=0.001, max_value=10.0),
    )
    @settings(max_examples=150)
    def test_queue_lengths_sum_to_population(self, population, think, demand):
        stations = [
            MVAStation("think", 1.0, think, is_delay=True),
            MVAStation("server", 1.0, demand),
        ]
        result = mean_value_analysis(stations, population)
        assert math.isclose(float(result.queue_lengths.sum()), population, rel_tol=1e-9, abs_tol=1e-9)
        assert result.throughput <= 1.0 / demand + 1e-9
        assert result.throughput <= population / think + 1e-9 if think > 0 else True
