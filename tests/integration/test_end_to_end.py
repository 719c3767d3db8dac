"""Integration tests: the full pipeline from system description to validated figures."""

from __future__ import annotations

import pytest

from repro import (
    ModelConfig,
    MultiClusterSimulator,
    SimulationConfig,
    paper_evaluation_system,
    run_figure,
    validate_against_analysis,
)
from repro.core.cluster_of_clusters import ClusterOfClustersModel, HeterogeneousModelConfig
from repro.experiments.scenarios import CASE_1, build_scenario_system
from repro.network import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.simulation.runner import run_replications


class TestAnalysisSimulationAgreement:
    """The paper's central validation claim, exercised across the design space."""

    @pytest.mark.parametrize("architecture", ["non-blocking", "blocking"])
    @pytest.mark.parametrize("num_clusters", [2, 8])
    def test_agreement_small_systems(self, architecture, num_clusters):
        system = paper_evaluation_system(
            num_clusters, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32
        )
        model_config = ModelConfig(architecture=architecture, message_bytes=1024)
        sim_config = SimulationConfig(
            architecture=architecture, message_bytes=1024, num_messages=2500, seed=17
        )
        point = validate_against_analysis(system, model_config, sim_config)
        assert point.relative_error < 0.05, (
            f"analysis {point.analysis_latency_ms:.4f} ms vs "
            f"simulation {point.simulation_latency_ms:.4f} ms"
        )

    def test_agreement_case2(self):
        system = paper_evaluation_system(
            4, FAST_ETHERNET, GIGABIT_ETHERNET, total_processors=32
        )
        point = validate_against_analysis(
            system,
            ModelConfig(architecture="non-blocking", message_bytes=512),
            SimulationConfig(architecture="non-blocking", message_bytes=512,
                             num_messages=2500, seed=23),
        )
        assert point.relative_error < 0.05

    def test_paper_scale_point_case1(self):
        """One full-scale (256-node) point with the paper's 10k messages would be slow;
        2 500 messages is enough for a tight check at this load."""
        system = build_scenario_system(CASE_1, 16)
        point = validate_against_analysis(
            system,
            ModelConfig(architecture="non-blocking", message_bytes=1024),
            SimulationConfig(architecture="non-blocking", message_bytes=1024,
                             num_messages=2500, seed=31),
        )
        assert point.relative_error < 0.05

    def test_replications_reduce_variance(self):
        system = paper_evaluation_system(
            4, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32
        )
        config = SimulationConfig(num_messages=1200, seed=41)
        replicated = run_replications(system, config, replications=3)
        assert replicated.latency_interval is not None
        assert replicated.latency_interval.half_width < replicated.mean_latency_s


class TestFigurePipelines:
    def test_figure_shapes_match_paper_qualitatively(self):
        """Check the qualitative claims of §6 on a reduced sweep:

        * latency grows from C=1 to C=256 for the non-blocking network,
        * the C=16 point dips below its neighbours (single-stage switches),
        * M=1024 curves lie above M=512 curves,
        * blocking figures lie above non-blocking figures.
        """
        counts = [1, 8, 16, 32, 256]
        fig4 = run_figure(4, include_simulation=False, cluster_counts=counts)
        fig6 = run_figure(6, include_simulation=False, cluster_counts=counts)

        for size in (512, 1024):
            series = [p.analysis_latency_ms for p in fig4.points_for_size(size)]
            assert series[-1] > series[0]                  # growth with C
            by_count = dict(zip(counts, series))
            assert by_count[16] < by_count[8]              # the C=16 dip
            assert by_count[16] < by_count[32]

        for c in counts:
            p512 = next(p for p in fig4.points if p.num_clusters == c and p.message_bytes == 512)
            p1024 = next(p for p in fig4.points if p.num_clusters == c and p.message_bytes == 1024)
            assert p1024.analysis_latency_ms > p512.analysis_latency_ms

        for p_nb, p_b in zip(fig4.points, fig6.points):
            assert p_b.analysis_latency_ms > p_nb.analysis_latency_ms

    def test_case1_vs_case2_crossover(self):
        """Case-1 (fast ICN1) wins at C=1; Case-2 (fast ECN/ICN2) wins at C=256."""
        fig4 = run_figure(4, include_simulation=False, cluster_counts=[1, 256],
                          message_sizes=[1024])
        fig5 = run_figure(5, include_simulation=False, cluster_counts=[1, 256],
                          message_sizes=[1024])
        case1 = {p.num_clusters: p.analysis_latency_ms for p in fig4.points}
        case2 = {p.num_clusters: p.analysis_latency_ms for p in fig5.points}
        assert case1[1] < case2[1]
        assert case1[256] > case2[256]

    def test_figure_with_simulation_consistency(self):
        result = run_figure(
            4,
            include_simulation=True,
            cluster_counts=[2, 16],
            message_sizes=[1024],
            simulation_messages=1500,
            seed=3,
        )
        summary = result.accuracy_summary()
        assert summary is not None
        assert summary.mape_percent < 5.0


class TestHeterogeneousExtensionAgainstSimulator:
    def test_cluster_of_clusters_model_tracks_simulation(self):
        """The future-work extension must agree with the (general) simulator."""
        from repro.cluster.system import MultiClusterSystem

        system = MultiClusterSystem.from_cluster_sizes(
            sizes=[8, 16, 24],
            icn_technologies=[GIGABIT_ETHERNET, GIGABIT_ETHERNET, FAST_ETHERNET],
            ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET, GIGABIT_ETHERNET],
            icn2_technology=FAST_ETHERNET,
        )
        analysis = ClusterOfClustersModel(
            system, HeterogeneousModelConfig(architecture="non-blocking", message_bytes=1024)
        ).evaluate()
        sim = MultiClusterSimulator(
            system,
            SimulationConfig(architecture="non-blocking", message_bytes=1024,
                             num_messages=3000, seed=13),
        ).run()
        relative_error = abs(analysis.mean_latency_s - sim.mean_latency_s) / sim.mean_latency_s
        assert relative_error < 0.05
