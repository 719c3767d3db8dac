"""Unit tests for service centres, the fixed point, latency and the model facade."""

from __future__ import annotations

import math

import pytest

from repro.cluster.presets import paper_evaluation_system
from repro.cluster.processor import ProcessorType
from repro.cluster.system import MultiClusterSystem
from repro.core.latency import WaitingTimes, mean_message_latency, waiting_time
from repro.core.model import AnalyticalModel, ModelConfig
from repro.core.service_centers import build_service_centers
from repro.core.traffic import compute_traffic_rates
from repro.errors import ConfigurationError, StabilityError
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET


class TestServiceCenters:
    def test_case1_technologies_assigned_correctly(self, paper_case1_system):
        centers = build_service_centers(paper_case1_system, "non-blocking", 1024)
        assert centers.icn1.technology is GIGABIT_ETHERNET
        assert centers.ecn1.technology is FAST_ETHERNET
        assert centers.icn2.technology is FAST_ETHERNET

    def test_attached_node_counts(self, paper_case1_system):
        centers = build_service_centers(paper_case1_system, "non-blocking", 1024)
        assert centers.icn1.attached_nodes == 16   # N0
        assert centers.ecn1.attached_nodes == 16   # N0
        assert centers.icn2.attached_nodes == 16   # C

    def test_service_rates_are_reciprocal_times(self, paper_case1_system):
        centers = build_service_centers(paper_case1_system, "non-blocking", 1024)
        assert centers.icn1_service_rate == pytest.approx(1.0 / centers.icn1_service_time)
        assert centers.ecn1_service_rate == pytest.approx(1.0 / centers.ecn1_service_time)
        assert centers.icn2_service_rate == pytest.approx(1.0 / centers.icn2_service_time)

    def test_blocking_service_slower(self, paper_case1_system):
        nb = build_service_centers(paper_case1_system, "non-blocking", 1024)
        b = build_service_centers(paper_case1_system, "blocking", 1024)
        assert b.ecn1_service_time > nb.ecn1_service_time

    def test_message_size_validation(self, paper_case1_system):
        with pytest.raises(ConfigurationError):
            build_service_centers(paper_case1_system, "non-blocking", 0.0)

    def test_as_dict_keys(self, paper_case1_system):
        d = build_service_centers(paper_case1_system, "non-blocking", 512).as_dict()
        assert set(d) == {
            "icn1_service_time", "ecn1_service_time", "icn2_service_time",
            "icn1_service_rate", "ecn1_service_rate", "icn2_service_rate",
        }


def _mm1_length(utilization: float) -> float:
    """M/M/1 mean number in system at utilisation ρ."""
    return utilization / (1.0 - utilization)


def _eq6_total(report) -> float:
    """Eq. (6) from a report's utilisations: ``C·(2·L_E1 + L_I1) + L_I2``."""
    u = report.utilizations
    return report.num_clusters * (
        2 * _mm1_length(u["ecn1"]) + _mm1_length(u["icn1"])
    ) + _mm1_length(u["icn2"])


def _evaluate(system, rate: float):
    return AnalyticalModel(
        system, ModelConfig(message_bytes=1024, generation_rate=rate)
    ).evaluate()


class TestFixedPoint:
    def test_light_load_barely_throttles(self, paper_case1_system):
        report = _evaluate(paper_case1_system, 0.25)
        assert report.fixed_point_iterations >= 1
        assert report.effective_rate == pytest.approx(0.25, rel=1e-3)
        assert report.throttling_factor > 0.99
        assert report.total_waiting_processors < 1.0

    def test_heavy_load_throttles(self, paper_case1_system):
        # At 1000 msg/s per processor the ICN2 saturates without the correction.
        report = _evaluate(paper_case1_system, 1000.0)
        assert report.effective_rate < 1000.0
        assert report.total_waiting_processors > 0.0
        # The solution must leave every centre stable.
        assert all(u < 1.0 for u in report.utilizations.values())
        assert math.isfinite(report.total_waiting_processors)

    def test_zero_rate(self, paper_case1_system):
        report = _evaluate(paper_case1_system, 0.0)
        assert report.effective_rate == 0.0
        assert report.total_waiting_processors == 0.0
        assert report.fixed_point_iterations == 0

    def test_effective_rate_monotone_in_nominal(self, paper_case1_system):
        rates = [
            _evaluate(paper_case1_system, lam).effective_rate
            for lam in (0.25, 10.0, 100.0, 1000.0)
        ]
        assert rates == sorted(rates)

    def test_fixed_point_self_consistency(self, paper_case1_system):
        """λ_eff must satisfy λ_eff = (N − L(λ_eff))/N · λ (Eq. 7)."""
        nominal = 200.0
        report = _evaluate(paper_case1_system, nominal)
        population = 256
        expected = (population - min(_eq6_total(report), population)) / population * nominal
        assert report.effective_rate == pytest.approx(expected, rel=1e-4)

    def test_queue_lengths_eq6_combination(self, paper_case1_system):
        report = _evaluate(paper_case1_system, 0.25)
        assert report.total_waiting_processors == pytest.approx(_eq6_total(report))


class TestLatency:
    def test_waiting_time_equation_16(self):
        assert waiting_time(2.0, 5.0) == pytest.approx(1.0 / 3.0)

    def test_waiting_time_saturation(self):
        with pytest.raises(StabilityError):
            waiting_time(5.0, 5.0)

    def test_waiting_time_validation(self):
        with pytest.raises(ValueError):
            waiting_time(-1.0, 5.0)
        with pytest.raises(ValueError):
            waiting_time(1.0, 0.0)

    def test_mean_latency_equation_15(self):
        waits = WaitingTimes(icn1=1.0, ecn1=2.0, icn2=3.0)
        breakdown = mean_message_latency(waits, outgoing_probability=0.25)
        # T = (1−P)·W_I1 + P·(W_I2 + 2·W_E1) = 0.75*1 + 0.25*7 = 2.5
        assert breakdown.local_latency == 1.0
        assert breakdown.remote_latency == 7.0
        assert breakdown.mean_latency == pytest.approx(2.5)
        assert breakdown.local_weight == 0.75
        assert breakdown.remote_weight == 0.25

    def test_probability_bounds(self):
        waits = WaitingTimes(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mean_message_latency(waits, 1.5)

    def test_from_rates_factory(self, paper_case1_system):
        centers = build_service_centers(paper_case1_system, "non-blocking", 1024)
        traffic = compute_traffic_rates(16, 16, 0.25)
        waits = WaitingTimes.from_rates(
            traffic,
            centers.icn1_service_rate,
            centers.ecn1_service_rate,
            centers.icn2_service_rate,
        )
        assert waits.icn1 > 0 and waits.ecn1 > 0 and waits.icn2 > 0
        # Each wait is at least the bare service time.
        assert waits.icn1 >= centers.icn1_service_time
        assert waits.ecn1 >= centers.ecn1_service_time


class TestAnalyticalModel:
    def test_report_structure(self, paper_case1_system):
        report = AnalyticalModel(paper_case1_system, ModelConfig(message_bytes=1024)).evaluate()
        assert report.num_clusters == 16
        assert report.processors_per_cluster == 16
        assert report.total_processors == 256
        assert report.mean_latency_s > 0
        assert report.mean_latency_ms == pytest.approx(report.mean_latency_s * 1e3)
        assert 0 <= report.outgoing_probability <= 1
        assert set(report.utilizations) == {"icn1", "ecn1", "icn2"}
        assert set(report.service_times) == {"icn1", "ecn1", "icn2"}
        assert report.fixed_point_iterations >= 1
        d = report.as_dict()
        assert d["mean_latency_ms"] == pytest.approx(report.mean_latency_ms)

    def test_single_cluster_latency_is_icn1_wait(self):
        system = paper_evaluation_system(1, GIGABIT_ETHERNET, FAST_ETHERNET)
        report = AnalyticalModel(system, ModelConfig(message_bytes=1024)).evaluate()
        assert report.outgoing_probability == 0.0
        assert report.mean_latency_s == pytest.approx(report.waits.icn1)

    def test_all_remote_latency_composition(self):
        system = paper_evaluation_system(256, GIGABIT_ETHERNET, FAST_ETHERNET)
        report = AnalyticalModel(system, ModelConfig(message_bytes=1024)).evaluate()
        assert report.outgoing_probability == pytest.approx(1.0)
        assert report.mean_latency_s == pytest.approx(
            report.waits.icn2 + 2 * report.waits.ecn1
        )

    def test_larger_messages_increase_latency(self, paper_case1_system):
        small = AnalyticalModel(paper_case1_system, ModelConfig(message_bytes=512)).evaluate()
        large = AnalyticalModel(paper_case1_system, ModelConfig(message_bytes=1024)).evaluate()
        assert large.mean_latency_s > small.mean_latency_s

    def test_blocking_slower_than_nonblocking(self, paper_case1_system):
        nb = AnalyticalModel(
            paper_case1_system, ModelConfig(architecture="non-blocking", message_bytes=1024)
        ).evaluate()
        b = AnalyticalModel(
            paper_case1_system, ModelConfig(architecture="blocking", message_bytes=1024)
        ).evaluate()
        assert b.mean_latency_s > nb.mean_latency_s

    def test_latency_grows_with_cluster_count_nonblocking(self):
        latencies = []
        for c in (1, 4, 64, 256):
            system = paper_evaluation_system(c, GIGABIT_ETHERNET, FAST_ETHERNET)
            latencies.append(
                AnalyticalModel(system, ModelConfig(message_bytes=1024)).evaluate().mean_latency_s
            )
        assert latencies == sorted(latencies)

    def test_c16_dip_matches_paper_observation(self):
        """§6: 'different behaviour' at C = 16 because C and N0 <= Pr = 24."""
        lat = {}
        for c in (8, 16, 32):
            system = paper_evaluation_system(c, GIGABIT_ETHERNET, FAST_ETHERNET)
            lat[c] = AnalyticalModel(system, ModelConfig(message_bytes=1024)).evaluate().mean_latency_s
        assert lat[16] < lat[8]
        assert lat[16] < lat[32]

    def test_finite_source_correction_toggle(self, paper_case1_system):
        # 20 msg/s drives the ICN2 to ~75% utilisation: still stable for the
        # open model but high enough for the finite-source effect to show.
        corrected = AnalyticalModel(
            paper_case1_system,
            ModelConfig(message_bytes=1024, generation_rate=20.0),
        ).evaluate()
        open_model = AnalyticalModel(
            paper_case1_system,
            ModelConfig(
                message_bytes=1024, generation_rate=20.0, finite_source_correction=False
            ),
        ).evaluate()
        # The open model offers more load, so it predicts higher latency.
        assert corrected.effective_rate < 20.0
        assert open_model.effective_rate == 20.0
        assert open_model.mean_latency_s >= corrected.mean_latency_s

    def test_infeasible_open_load_raises(self, paper_case1_system):
        with pytest.raises(StabilityError):
            AnalyticalModel(
                paper_case1_system,
                ModelConfig(
                    message_bytes=1024,
                    generation_rate=10_000.0,
                    finite_source_correction=False,
                ),
            ).evaluate()

    def test_processor_speed_scales_generation_rate(self):
        """A processor of relative speed s generates s·λ, as in the simulator."""
        fast = MultiClusterSystem.super_cluster(
            4, 16, GIGABIT_ETHERNET, FAST_ETHERNET, processor_type=ProcessorType("fast", 4.0)
        )
        reference = MultiClusterSystem.super_cluster(4, 16, GIGABIT_ETHERNET, FAST_ETHERNET)
        report = _evaluate(fast, 20.0)
        same_load = _evaluate(reference, 80.0)
        assert report.nominal_rate == 80.0
        assert report.effective_rate == same_load.effective_rate
        assert report.mean_latency_s == same_load.mean_latency_s
        assert report.throttling_factor < 1.0

    def test_cluster_of_clusters_rejected(self):
        from repro.cluster.presets import llnl_like_system

        with pytest.raises(ConfigurationError):
            AnalyticalModel(llnl_like_system(), ModelConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(message_bytes=0)
        with pytest.raises(ConfigurationError):
            ModelConfig(generation_rate=-1.0)

    def test_mean_latency_shortcut(self, paper_case1_system):
        model = AnalyticalModel(paper_case1_system, ModelConfig(message_bytes=512))
        assert model.mean_latency_s() == pytest.approx(model.evaluate().mean_latency_s)

    def test_repr(self, paper_case1_system):
        assert "non-blocking" in repr(AnalyticalModel(paper_case1_system, ModelConfig()))
