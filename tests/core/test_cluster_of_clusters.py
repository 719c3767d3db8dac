"""Unit tests for the Cluster-of-Clusters analytical extension."""

from __future__ import annotations

import pytest

from repro.cluster.presets import llnl_like_system, paper_evaluation_system
from repro.cluster.system import MultiClusterSystem
from repro.core.cluster_of_clusters import (
    ClusterOfClustersModel,
    HeterogeneousModelConfig,
)
from repro.core.model import AnalyticalModel, ModelConfig
from repro.errors import ConfigurationError, ConvergenceError, StabilityError
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET


class TestHeterogeneousModelConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousModelConfig(message_bytes=0)
        with pytest.raises(ConfigurationError):
            HeterogeneousModelConfig(generation_rate=-1)


class TestClusterOfClustersModel:
    def test_reduces_to_supercluster_model_when_homogeneous(self):
        """On a homogeneous system both models agree exactly, at any load.

        Case 1, C=2, blocking, 4 KiB is heavily loaded: counting L_E1 once
        instead of Eq. (6)'s ``2·L_E1`` gives 116.8 ms there, not 108.0 ms.
        """
        for num_clusters, architecture, message_bytes in (
            (8, "non-blocking", 1024.0),
            (2, "blocking", 4096.0),
        ):
            system = paper_evaluation_system(num_clusters, GIGABIT_ETHERNET, FAST_ETHERNET)
            config = ModelConfig(architecture=architecture, message_bytes=message_bytes)
            super_report = AnalyticalModel(system, config).evaluate()
            hetero_report = ClusterOfClustersModel(system, config).evaluate()
            assert hetero_report.mean_latency_s == super_report.mean_latency_s
            for cluster in system.clusters:
                name = cluster.name
                assert hetero_report.per_cluster_effective_rate[name] == (
                    super_report.effective_rate
                )
                assert hetero_report.per_cluster_local_latency_s[name] == (
                    super_report.local_latency_s
                )
                assert hetero_report.per_cluster_remote_latency_s[name] == (
                    super_report.remote_latency_s
                )

    def test_cluster_classes_equal_separate_clusters(self):
        """Grouping identical clusters into one class changes no result."""
        from dataclasses import replace

        from repro.cluster.processor import ProcessorType
        from repro.experiments.scenarios import get_scenario

        grouped = get_scenario("het-nics").system(4)  # two classes of two clusters
        separate = replace(grouped, clusters=tuple(
            replace(c, processor_type=ProcessorType(f"p{i}", 1.0))
            for i, c in enumerate(grouped.clusters)
        ))
        config = ModelConfig(architecture="blocking", message_bytes=512.0, generation_rate=2.0)
        a = ClusterOfClustersModel(grouped, config).evaluate()
        b = ClusterOfClustersModel(separate, config).evaluate()
        assert a.iterations == b.iterations
        assert a.mean_latency_s == pytest.approx(b.mean_latency_s, rel=1e-12)
        for name, rate in b.per_cluster_effective_rate.items():
            assert a.per_cluster_effective_rate[name] == pytest.approx(rate, rel=1e-12)
            assert a.per_cluster_remote_latency_s[name] == pytest.approx(
                b.per_cluster_remote_latency_s[name], rel=1e-12
            )

    def test_llnl_like_system_evaluates(self):
        report = ClusterOfClustersModel(llnl_like_system()).evaluate()
        assert report.mean_latency_s > 0
        assert report.num_clusters == 4
        assert report.total_processors == 304
        assert set(report.per_cluster_local_latency_s) == {"mcr", "alc", "thunder", "pvc"}
        assert report.mean_latency_ms == pytest.approx(report.mean_latency_s * 1e3)

    def test_outgoing_probability_depends_on_cluster_size(self):
        report = ClusterOfClustersModel(llnl_like_system()).evaluate()
        p = report.per_cluster_outgoing_probability
        # The smallest cluster (pvc, 16 nodes) has the highest remote probability.
        assert p["pvc"] > p["mcr"]
        assert all(0.0 < value < 1.0 for value in p.values())

    def test_faster_icn2_lowers_latency(self):
        slow = MultiClusterSystem.from_cluster_sizes(
            sizes=[16, 32],
            icn_technologies=[GIGABIT_ETHERNET, GIGABIT_ETHERNET],
            ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET],
            icn2_technology=FAST_ETHERNET,
        )
        fast = MultiClusterSystem.from_cluster_sizes(
            sizes=[16, 32],
            icn_technologies=[GIGABIT_ETHERNET, GIGABIT_ETHERNET],
            ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET],
            icn2_technology=GIGABIT_ETHERNET,
        )
        slow_latency = ClusterOfClustersModel(slow).evaluate().mean_latency_s
        fast_latency = ClusterOfClustersModel(fast).evaluate().mean_latency_s
        assert fast_latency < slow_latency

    def test_blocking_architecture_slower(self):
        system = llnl_like_system()
        nb = ClusterOfClustersModel(
            system, HeterogeneousModelConfig(architecture="non-blocking")
        ).evaluate()
        b = ClusterOfClustersModel(
            system, HeterogeneousModelConfig(architecture="blocking")
        ).evaluate()
        assert b.mean_latency_s > nb.mean_latency_s

    def test_utilizations_reported_per_cluster(self):
        report = ClusterOfClustersModel(llnl_like_system()).evaluate()
        assert "icn2" in report.utilizations
        assert any(key.startswith("icn1[") for key in report.utilizations)
        assert all(0.0 <= u < 1.0 for u in report.utilizations.values())

    def test_single_processor_total_rejected(self):
        tiny = MultiClusterSystem.from_cluster_sizes(
            sizes=[1],
            icn_technologies=[FAST_ETHERNET],
            ecn_technologies=[FAST_ETHERNET],
            icn2_technology=FAST_ETHERNET,
        )
        with pytest.raises(ConfigurationError):
            ClusterOfClustersModel(tiny)

    def test_saturated_configuration_raises(self):
        system = llnl_like_system()
        with pytest.raises(StabilityError):
            ClusterOfClustersModel(
                system,
                HeterogeneousModelConfig(
                    generation_rate=1e6, finite_source_correction=False
                ),
            ).evaluate()

    def test_finite_source_correction_reduces_rates_under_load(self):
        system = llnl_like_system()
        report = ClusterOfClustersModel(
            system, HeterogeneousModelConfig(generation_rate=20.0)
        ).evaluate()
        # Under heavy offered load the effective rates drop below nominal.
        for cluster in system.clusters:
            nominal = cluster.processor_type.scaled_rate(20.0)
            assert report.per_cluster_effective_rate[cluster.name] < nominal

    @pytest.mark.parametrize("rate", [50.0, 500.0])
    def test_unconverged_solution_is_refused(self, rate):
        """Past λ ≈ 45 the llnl-like iteration never settles; no iterate is returned."""
        with pytest.raises(ConvergenceError):
            ClusterOfClustersModel(
                llnl_like_system(), HeterogeneousModelConfig(generation_rate=rate)
            ).evaluate()

    def test_processor_speed_scales_generation(self):
        report = ClusterOfClustersModel(llnl_like_system()).evaluate()
        rates = report.per_cluster_effective_rate
        # Thunder's Itanium2 nodes have relative speed 1.4 vs PVC's 0.8.
        assert rates["thunder"] > rates["pvc"]
