"""Unit tests for exact mean value analysis (MVA) of closed networks."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.queueing.mva import MVAStation, mean_value_analysis


class TestMVA:
    def test_single_queue_closed_network(self):
        # One queueing station + think station, textbook interactive system.
        stations = [
            MVAStation("think", visit_ratio=1.0, service_time=5.0, is_delay=True),
            MVAStation("server", visit_ratio=1.0, service_time=1.0),
        ]
        result = mean_value_analysis(stations, population=1)
        # One customer never queues: cycle time = 6, throughput = 1/6.
        assert result.throughput == pytest.approx(1.0 / 6.0)
        assert result.residence_time("server") == pytest.approx(1.0)

    def test_throughput_saturates_at_bottleneck(self):
        stations = [
            MVAStation("think", visit_ratio=1.0, service_time=2.0, is_delay=True),
            MVAStation("bottleneck", visit_ratio=1.0, service_time=1.0),
        ]
        result = mean_value_analysis(stations, population=50)
        assert result.throughput == pytest.approx(1.0, rel=1e-3)
        assert result.utilization("bottleneck") == pytest.approx(1.0, rel=1e-3)

    def test_population_zero(self):
        stations = [MVAStation("s", 1.0, 1.0)]
        result = mean_value_analysis(stations, population=0)
        assert result.throughput == 0.0
        assert result.cycle_time == float("inf")

    def test_queue_lengths_sum_to_population(self):
        stations = [
            MVAStation("think", 1.0, 4.0, is_delay=True),
            MVAStation("a", 1.0, 1.0),
            MVAStation("b", 0.5, 2.0),
        ]
        population = 12
        result = mean_value_analysis(stations, population)
        total_queue = float(result.queue_lengths.sum())
        # Delay-station "queue" counts thinking customers, so totals match N.
        assert total_queue == pytest.approx(population, rel=1e-9)

    def test_single_queue_holds_the_whole_population(self):
        # With no think station every customer is always at the one queue:
        # Q = N, R = N·S and X = 1/S for every N.
        result = mean_value_analysis([MVAStation("cpu", 1.0, 0.5)], population=7)
        assert result.queue_length("cpu") == pytest.approx(7.0)
        assert result.residence_time("cpu") == pytest.approx(3.5)
        assert result.throughput == pytest.approx(2.0)

    def test_negative_service_time_rejected(self):
        with pytest.raises(ConfigurationError, match="service time must be non-negative"):
            MVAStation("s", 1.0, -0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            mean_value_analysis([], population=1)
        with pytest.raises(ConfigurationError):
            mean_value_analysis([MVAStation("s", 1.0, 1.0)], population=-1)
        with pytest.raises(ConfigurationError):
            MVAStation("s", -1.0, 1.0)

    def test_as_dict(self):
        stations = [MVAStation("s", 1.0, 1.0)]
        result = mean_value_analysis(stations, population=3)
        assert "s" in result.as_dict()


