"""Property-based tests (hypothesis) for the queueing substrate."""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.queueing.distributions import HyperExponential
from repro.queueing.mm1 import MM1KQueue, MM1Queue
from repro.queueing.mva import MVAStation, mean_value_analysis

rates = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestMM1Properties:
    @given(arrival=rates, service=rates)
    @settings(max_examples=200)
    def test_littles_law_holds_whenever_stable(self, arrival, service):
        assume(arrival < 0.999 * service)
        q = MM1Queue(arrival, service)
        assert math.isclose(q.mean_number_in_system, arrival * q.mean_sojourn_time, rel_tol=1e-9)
        assert math.isclose(q.mean_number_in_queue, arrival * q.mean_waiting_time, rel_tol=1e-9)

    @given(arrival=rates, service=rates)
    @settings(max_examples=200)
    def test_sojourn_time_at_least_service_time(self, arrival, service):
        assume(arrival < 0.999 * service)
        q = MM1Queue(arrival, service)
        assert q.mean_sojourn_time >= q.mean_service_time * (1 - 1e-12)

    @given(service=rates, factor=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100)
    def test_latency_monotone_in_load(self, service, factor):
        lighter = MM1Queue(0.5 * factor * service, service)
        heavier = MM1Queue(factor * service, service)
        assert heavier.mean_sojourn_time >= lighter.mean_sojourn_time

    @given(arrival=rates, service=rates, capacity=st.integers(min_value=1, max_value=60))
    @settings(max_examples=150)
    def test_mm1k_probabilities_normalise(self, arrival, service, capacity):
        q = MM1KQueue(arrival, service, capacity)
        total = sum(q.probability_n_in_system(n) for n in range(capacity + 1))
        assert math.isclose(total, 1.0, rel_tol=1e-8)
        assert 0.0 <= q.blocking_probability <= 1.0
        assert q.effective_arrival_rate <= arrival + 1e-12


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
