"""Unit tests for the M/M/1 and M/M/1/K queue formulas."""

from __future__ import annotations

import math

import pytest

from repro.errors import StabilityError
from repro.queueing.mm1 import MM1KQueue, MM1Queue


class TestMM1:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MM1Queue(-1.0, 1.0)
        with pytest.raises(ValueError):
            MM1Queue(1.0, 0.0)

    def test_utilization(self):
        q = MM1Queue(arrival_rate=2.0, service_rate=5.0)
        assert q.utilization == pytest.approx(0.4)
        assert q.is_stable

    def test_textbook_values(self):
        # Classic example: λ=2, µ=3 => L=2, W=1, Lq=4/3, Wq=2/3.
        q = MM1Queue(2.0, 3.0)
        assert q.mean_number_in_system == pytest.approx(2.0)
        assert q.mean_sojourn_time == pytest.approx(1.0)
        assert q.mean_number_in_queue == pytest.approx(4.0 / 3.0)
        assert q.mean_waiting_time == pytest.approx(2.0 / 3.0)

    def test_littles_law_consistency(self):
        q = MM1Queue(3.0, 10.0)
        assert q.mean_number_in_system == pytest.approx(q.arrival_rate * q.mean_sojourn_time)
        assert q.mean_number_in_queue == pytest.approx(q.arrival_rate * q.mean_waiting_time)

    def test_sojourn_is_wait_plus_service(self):
        q = MM1Queue(1.0, 4.0)
        assert q.mean_sojourn_time == pytest.approx(q.mean_waiting_time + q.mean_service_time)

    def test_unstable_raises(self):
        q = MM1Queue(5.0, 5.0)
        assert not q.is_stable
        with pytest.raises(StabilityError):
            _ = q.mean_number_in_system
        with pytest.raises(StabilityError):
            _ = q.mean_sojourn_time

    def test_zero_arrivals(self):
        q = MM1Queue(0.0, 2.0)
        assert q.mean_number_in_system == 0.0
        assert q.mean_sojourn_time == pytest.approx(0.5)

    def test_state_probabilities_sum_to_one(self):
        q = MM1Queue(1.0, 2.0)
        total = sum(q.probability_n_in_system(n) for n in range(200))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_probability_wait_exceeds(self):
        q = MM1Queue(1.0, 2.0)
        assert q.probability_wait_exceeds(0.0) == pytest.approx(1.0)
        assert q.probability_wait_exceeds(1.0) == pytest.approx(math.exp(-1.0))

    def test_sojourn_quantile_monotone(self):
        q = MM1Queue(1.0, 2.0)
        assert q.sojourn_time_quantile(0.9) > q.sojourn_time_quantile(0.5)
        with pytest.raises(ValueError):
            q.sojourn_time_quantile(1.0)

    def test_paper_equation_16_form(self):
        """W = 1/(µ − λ) is exactly the paper's Eq. (16)."""
        lam, mu = 3.0, 7.0
        assert MM1Queue(lam, mu).mean_sojourn_time == pytest.approx(1.0 / (mu - lam))


class TestMM1K:
    def test_validation(self):
        with pytest.raises(ValueError):
            MM1KQueue(1.0, 1.0, capacity=0)

    def test_blocking_probability_increases_with_load(self):
        low = MM1KQueue(1.0, 5.0, capacity=3).blocking_probability
        high = MM1KQueue(4.0, 5.0, capacity=3).blocking_probability
        assert high > low

    def test_rho_equal_one_uniform_distribution(self):
        q = MM1KQueue(2.0, 2.0, capacity=4)
        for n in range(5):
            assert q.probability_n_in_system(n) == pytest.approx(1.0 / 5.0)
        assert q.mean_number_in_system == pytest.approx(2.0)

    def test_probabilities_sum_to_one(self):
        q = MM1KQueue(3.0, 4.0, capacity=6)
        total = sum(q.probability_n_in_system(n) for n in range(7))
        assert total == pytest.approx(1.0)

    def test_effective_rate_below_offered(self):
        q = MM1KQueue(10.0, 4.0, capacity=5)
        assert q.effective_arrival_rate < 10.0
        assert q.throughput == pytest.approx(q.effective_arrival_rate)

    def test_large_capacity_approaches_mm1(self):
        mm1 = MM1Queue(1.0, 2.0)
        mm1k = MM1KQueue(1.0, 2.0, capacity=500)
        assert mm1k.mean_number_in_system == pytest.approx(mm1.mean_number_in_system, rel=1e-6)
        assert mm1k.mean_sojourn_time == pytest.approx(mm1.mean_sojourn_time, rel=1e-6)

    def test_out_of_range_state_probability_zero(self):
        q = MM1KQueue(1.0, 2.0, capacity=3)
        assert q.probability_n_in_system(10) == 0.0
