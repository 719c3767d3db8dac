"""Tests for the analytical grid evaluation.

The contract is *bit-identity*: every point of
:func:`repro.core.vectorized.evaluate_latency_grid` must equal the scalar
``AnalyticalModel(system, config).evaluate()`` result exactly (``==`` on
the raw floats), open-model and zero-rate points included, and no point is
handed to a second implementation (``scalar_fallback`` stays empty).
"""

from __future__ import annotations

import pytest

from repro.core.model import AnalyticalModel, ModelConfig
from repro.core.vectorized import evaluate_latency_grid
from repro.errors import StabilityError
from repro.experiments.scenarios import CASE_1, CASE_2, PAPER_PARAMETERS, build_scenario_system


def _paper_grid(scenarios=(CASE_1, CASE_2), architectures=("non-blocking", "blocking")):
    pairs = []
    for scenario in scenarios:
        for architecture in architectures:
            for mb in PAPER_PARAMETERS.message_sizes:
                for nc in PAPER_PARAMETERS.cluster_counts:
                    system = build_scenario_system(scenario, nc, PAPER_PARAMETERS)
                    pairs.append(
                        (
                            system,
                            ModelConfig(
                                architecture=architecture,
                                message_bytes=float(mb),
                                generation_rate=PAPER_PARAMETERS.generation_rate,
                            ),
                        )
                    )
    return pairs


class TestGridBitIdentity:
    def test_full_paper_grid_matches_scalar_exactly(self):
        pairs = _paper_grid()
        grid = evaluate_latency_grid(pairs)
        assert len(grid) == len(pairs)
        assert grid.scalar_fallback == ()
        for i, (system, config) in enumerate(pairs):
            report = AnalyticalModel(system, config).evaluate()
            assert float(grid.mean_latency_s[i]) == report.mean_latency_s, i
            assert float(grid.local_latency_s[i]) == report.local_latency_s, i
            assert float(grid.remote_latency_s[i]) == report.remote_latency_s, i
            assert float(grid.effective_rate[i]) == report.effective_rate, i
            assert int(grid.iterations[i]) == report.fixed_point_iterations, i
            assert float(grid.outgoing_probability[i]) == report.outgoing_probability, i

    def test_non_power_of_two_cluster_counts_match_scalar_exactly(self):
        """Regression: lam_ecn1 must be summed as forward + return (icn2/C)
        like compute_traffic_rates — the algebraically equal ``2*n0*p*lam``
        rounds differently when C is not a power of two."""
        from repro.cluster.presets import paper_evaluation_system
        from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET

        pairs = []
        for c, total in [(3, 96), (6, 96), (7, 84), (12, 96)]:
            system = paper_evaluation_system(
                c, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=total
            )
            for architecture in ("non-blocking", "blocking"):
                pairs.append(
                    (
                        system,
                        ModelConfig(
                            architecture=architecture,
                            message_bytes=2048.0,
                            generation_rate=0.5,
                        ),
                    )
                )
        grid = evaluate_latency_grid(pairs)
        for i, (system, config) in enumerate(pairs):
            report = AnalyticalModel(system, config).evaluate()
            assert float(grid.mean_latency_s[i]) == report.mean_latency_s, i
            assert float(grid.effective_rate[i]) == report.effective_rate, i

    def test_mean_latency_ms_unit(self):
        pairs = _paper_grid(scenarios=(CASE_1,), architectures=("non-blocking",))[:4]
        grid = evaluate_latency_grid(pairs)
        assert grid.mean_latency_ms == tuple(value * 1e3 for value in grid.mean_latency_s)


class TestGridFallbacks:
    def test_empty_grid(self):
        grid = evaluate_latency_grid([])
        assert len(grid) == 0
        assert grid.scalar_fallback == ()

    def test_open_model_points_fall_back_to_scalar(self):
        system = build_scenario_system(CASE_1, 4, PAPER_PARAMETERS)
        config = ModelConfig(
            architecture="non-blocking", message_bytes=1024.0, finite_source_correction=False
        )
        grid = evaluate_latency_grid([(system, config)])
        assert grid.scalar_fallback == ()
        report = AnalyticalModel(system, config).evaluate()
        assert float(grid.mean_latency_s[0]) == report.mean_latency_s
        assert int(grid.iterations[0]) == report.fixed_point_iterations == 0

    def test_zero_rate_points_fall_back_to_scalar(self):
        system = build_scenario_system(CASE_1, 4, PAPER_PARAMETERS)
        config = ModelConfig(
            architecture="non-blocking", message_bytes=1024.0, generation_rate=0.0
        )
        grid = evaluate_latency_grid([(system, config)])
        assert grid.scalar_fallback == ()
        report = AnalyticalModel(system, config).evaluate()
        assert float(grid.mean_latency_s[0]) == report.mean_latency_s

    def test_mixed_grid_with_fallback_points(self):
        system = build_scenario_system(CASE_1, 8, PAPER_PARAMETERS)
        closed = ModelConfig(architecture="non-blocking", message_bytes=512.0)
        open_model = ModelConfig(
            architecture="blocking", message_bytes=1024.0, finite_source_correction=False
        )
        grid = evaluate_latency_grid([(system, closed), (system, open_model)])
        assert grid.scalar_fallback == ()
        for i, config in enumerate((closed, open_model)):
            report = AnalyticalModel(system, config).evaluate()
            assert float(grid.mean_latency_s[i]) == report.mean_latency_s

    def test_saturated_point_raises_like_scalar(self):
        system = build_scenario_system(CASE_1, 4, PAPER_PARAMETERS)
        config = ModelConfig(
            architecture="non-blocking",
            message_bytes=1024.0,
            generation_rate=1e9,
            finite_source_correction=False,
        )
        with pytest.raises(StabilityError):
            AnalyticalModel(system, config).evaluate()
        with pytest.raises(StabilityError):
            evaluate_latency_grid([(system, config)])


class TestRunFigureUsesGrid:
    def test_analysis_only_figure_matches_scalar_model(self):
        """run_figure's analysis pass (now vectorized) equals per-point evals."""
        from repro.experiments.figures import FIGURE_SPECS, run_figure

        spec = FIGURE_SPECS[4]
        result = run_figure(4, include_simulation=False, cluster_counts=[2, 8, 32])
        for point in result.points:
            system = build_scenario_system(spec.scenario, point.num_clusters, PAPER_PARAMETERS)
            report = AnalyticalModel(
                system,
                ModelConfig(
                    architecture=spec.architecture,
                    message_bytes=float(point.message_bytes),
                    generation_rate=PAPER_PARAMETERS.generation_rate,
                ),
            ).evaluate()
            assert point.analysis_latency_ms == report.mean_latency_ms


class TestGridUtilizationAndThrottling:
    """The PR-5 fields feeding the vectorized generation-rate ablation."""

    def test_icn2_utilization_and_throttling_match_scalar_exactly(self):
        system = build_scenario_system(CASE_1, 16, PAPER_PARAMETERS)
        pairs = [
            (
                system,
                ModelConfig(
                    architecture="non-blocking", message_bytes=1024.0,
                    generation_rate=rate,
                ),
            )
            for rate in (0.25, 1.0, 10.0, 100.0, 500.0, 1000.0)
        ]
        grid = evaluate_latency_grid(pairs)
        for i, (sys_, config) in enumerate(pairs):
            report = AnalyticalModel(sys_, config).evaluate()
            assert float(grid.icn2_utilization[i]) == report.utilizations["icn2"], i
            assert float(grid.throttling_factor[i]) == report.throttling_factor, i

    def test_fallback_points_carry_scalar_utilization(self):
        system = build_scenario_system(CASE_1, 4, PAPER_PARAMETERS)
        config = ModelConfig(
            architecture="non-blocking", message_bytes=1024.0, generation_rate=0.0
        )
        grid = evaluate_latency_grid([(system, config)])
        assert grid.scalar_fallback == ()
        report = AnalyticalModel(system, config).evaluate()
        assert float(grid.icn2_utilization[0]) == report.utilizations["icn2"]
        assert float(grid.throttling_factor[0]) == report.throttling_factor == 1.0
