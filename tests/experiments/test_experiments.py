"""Unit tests for scenarios (Tables 1-2), figure drivers, ratio study and ablations."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.ablations import (
    fixed_point_vs_exact_mva,
    sweep_generation_rate,
    sweep_message_size,
    sweep_switch_latency,
    sweep_switch_ports,
)
from repro.experiments.blocking_ratio import (
    BlockingRatioStudy,
    RatioPoint,
    run_blocking_ratio_study,
)
from repro.experiments.figures import FIGURE_SPECS, run_figure
from repro.experiments.scenarios import (
    CASE_1,
    CASE_2,
    PAPER_PARAMETERS,
    SCENARIOS,
    build_scenario_system,
)
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET


class TestScenarios:
    def test_table1_case1(self):
        """Table 1, Case 1: ICN1 = GE, ECN1/ICN2 = FE."""
        assert CASE_1.icn1_technology is GIGABIT_ETHERNET
        assert CASE_1.ecn_technology is FAST_ETHERNET
        assert CASE_1.icn2_technology is FAST_ETHERNET

    def test_table1_case2(self):
        """Table 1, Case 2: ICN1 = FE, ECN1/ICN2 = GE."""
        assert CASE_2.icn1_technology is FAST_ETHERNET
        assert CASE_2.ecn_technology is GIGABIT_ETHERNET

    def test_table2_parameters(self):
        """Table 2: Pr = 24, α_sw = 10 µs, λ = 0.25/s; platform N = 256."""
        assert PAPER_PARAMETERS.switch_ports == 24
        assert PAPER_PARAMETERS.switch_latency_s == pytest.approx(10e-6)
        assert PAPER_PARAMETERS.generation_rate == 0.25
        assert PAPER_PARAMETERS.total_processors == 256
        assert PAPER_PARAMETERS.simulation_messages == 10_000
        assert PAPER_PARAMETERS.cluster_counts == (1, 2, 4, 8, 16, 32, 64, 128, 256)
        assert PAPER_PARAMETERS.message_sizes == (512, 1024)

    def test_scenarios_registry(self):
        assert set(SCENARIOS) == {"case-1", "case-2"}
        assert "case-1" in CASE_1.describe()

    def test_build_scenario_system(self):
        system = build_scenario_system(CASE_1, 8)
        assert system.num_clusters == 8
        assert system.total_processors == 256
        assert system.clusters[0].icn_technology is GIGABIT_ETHERNET
        assert system.icn2_technology is FAST_ETHERNET

    def test_build_scenario_system_bad_count(self):
        with pytest.raises(ExperimentError):
            build_scenario_system(CASE_1, 7)


class TestFigureDriver:
    def test_figure_specs_cover_4_to_7(self):
        assert set(FIGURE_SPECS) == {4, 5, 6, 7}
        assert FIGURE_SPECS[4].architecture == "non-blocking"
        assert FIGURE_SPECS[6].architecture == "blocking"
        assert FIGURE_SPECS[5].scenario is CASE_2
        assert "Figure 6" in FIGURE_SPECS[6].title

    def test_unknown_figure_rejected(self):
        with pytest.raises(ExperimentError):
            run_figure(3)

    def test_analysis_only_figure4_reduced_grid(self):
        result = run_figure(
            4,
            include_simulation=False,
            cluster_counts=[1, 4, 16, 64, 256],
            message_sizes=[512, 1024],
        )
        assert len(result.points) == 10
        assert result.cluster_counts == [1, 4, 16, 64, 256]
        assert result.message_sizes == [512, 1024]
        # Larger messages give larger latency at every cluster count.
        for c in result.cluster_counts:
            p512 = next(p for p in result.points if p.num_clusters == c and p.message_bytes == 512)
            p1024 = next(p for p in result.points if p.num_clusters == c and p.message_bytes == 1024)
            assert p1024.analysis_latency_ms > p512.analysis_latency_ms

    def test_series_keys_match_paper_legend(self):
        result = run_figure(5, include_simulation=False,
                            cluster_counts=[1, 16], message_sizes=[1024])
        series = result.series()
        assert "Analysis,M=1024" in series
        assert "Simulation,M=1024" not in series

    def test_figure_with_simulation_small(self):
        result = run_figure(
            4,
            include_simulation=True,
            cluster_counts=[4],
            message_sizes=[1024],
            simulation_messages=1500,
            seed=5,
        )
        point = result.points[0]
        assert point.simulation_latency_ms is not None
        assert point.relative_error is not None
        assert point.relative_error < 0.15
        summary = result.accuracy_summary()
        assert summary is not None
        assert summary.n_points == 1

    @pytest.mark.parametrize("replications", [1, 2])
    def test_figure_rows_print_the_replication_interval(self, replications):
        result = run_figure(
            6, include_simulation=True, cluster_counts=[2], message_sizes=[512],
            simulation_messages=120, replications=replications, seed=3,
        )
        (point,) = result.points
        (row,) = result.to_rows()
        columns = ["clusters", "message_bytes", "analysis_ms", "simulation_ms", "rel_error"]
        if replications == 1:
            assert point.simulation_ci_half_width_ms is None
            assert list(row) == columns
        else:
            assert point.simulation_ci_half_width_ms > 0
            assert list(row) == columns + ["ci_half_width_ms"]
            assert row["ci_half_width_ms"] == point.simulation_ci_half_width_ms
            assert "ci_half_width_ms" in result.to_text_table()

    def test_rendering_helpers(self):
        result = run_figure(4, include_simulation=False,
                            cluster_counts=[1, 16, 256], message_sizes=[1024])
        assert "clusters" in result.to_markdown()
        assert "analysis_ms" in result.to_text_table()
        chart = result.to_chart(width=40, height=10)
        assert "Figure 4" in chart
        assert "legend" in chart
        assert result.accuracy_summary() is None

    def test_blocking_figures_slower_than_nonblocking(self):
        counts = [4, 16, 64]
        fig4 = run_figure(4, include_simulation=False, cluster_counts=counts,
                          message_sizes=[1024])
        fig6 = run_figure(6, include_simulation=False, cluster_counts=counts,
                          message_sizes=[1024])
        for p_nb, p_b in zip(fig4.points, fig6.points):
            assert p_b.analysis_latency_ms > p_nb.analysis_latency_ms


class TestBlockingRatioStudy:
    def test_blocking_always_slower(self):
        study = run_blocking_ratio_study(
            cluster_counts=[1, 4, 16, 64, 256], message_sizes=[512, 1024]
        )
        assert study.blocking_always_slower()
        assert study.min_ratio > 1.0
        assert study.max_ratio >= study.mean_ratio >= study.min_ratio
        assert study.paper_band == (1.4, 3.1)

    def test_mean_ratio_is_correctly_rounded(self):
        # Ten ratios of 0.1: a plain left-to-right sum reads
        # 0.9999999999999999 on Python 3.11 (3.12's sum() compensates), so
        # the mean would depend on the interpreter.
        study = BlockingRatioStudy([RatioPoint("case-1", 1, 512, 10.0, 1.0)] * 10)
        assert study.mean_ratio == 0.1

    def test_rows_and_markdown(self):
        study = run_blocking_ratio_study(cluster_counts=[4], message_sizes=[1024])
        rows = study.to_rows()
        assert len(rows) == 2  # two scenarios
        assert {"scenario", "clusters", "ratio"} <= set(rows[0])
        assert "Observed ratio band" in study.to_markdown()


class TestAblations:
    def test_switch_port_sweep_dip_moves(self):
        study = sweep_switch_ports(ports_values=(8, 24, 64), num_clusters=16)
        latencies = study.latencies()
        assert len(latencies) == 3
        # With only 8 ports the 16-node ICN1s need two stages: more latency
        # than with 24- or 64-port switches.
        assert latencies[0] > latencies[1]

    def test_switch_latency_sweep_monotone(self):
        study = sweep_switch_latency(latency_values_us=(0.0, 10.0, 100.0))
        latencies = study.latencies()
        assert latencies == sorted(latencies)

    def test_generation_rate_sweep_monotone_and_reports_utilization(self):
        study = sweep_generation_rate(rate_values=(0.25, 100.0, 1000.0))
        latencies = study.latencies()
        assert latencies == sorted(latencies)
        assert "icn2_utilization" in study.rows[0].extra

    def test_message_size_sweep_monotone(self):
        study = sweep_message_size(size_values=(64, 1024, 16384))
        assert study.latencies() == sorted(study.latencies())

    def test_fixed_point_vs_mva_close_at_light_load(self):
        study = fixed_point_vs_exact_mva()
        fixed_point_ms, mva_ms = study.latencies()
        # At the paper's nearly-idle operating point the two must agree well.
        assert fixed_point_ms == pytest.approx(mva_ms, rel=0.15)

    def test_markdown_rendering(self):
        study = sweep_message_size(size_values=(64, 1024))
        assert "message-size" in study.to_markdown()
        assert "mean_latency_ms" in study.to_markdown()
