"""Unit tests for the HMSCS system model (processors, clusters, systems, presets)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.cluster.presets import das2_like_system, llnl_like_system, paper_evaluation_system
from repro.cluster.processor import DEFAULT_PROCESSOR, ProcessorType
from repro.cluster.system import MultiClusterSystem
from repro.errors import ConfigurationError
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET, MYRINET


class TestProcessorType:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessorType("", 1.0)
        with pytest.raises(ConfigurationError):
            ProcessorType("x", 0.0)

    def test_scaled_rate(self):
        fast = ProcessorType("fast", relative_speed=2.0)
        assert fast.scaled_rate(0.25) == pytest.approx(0.5)
        with pytest.raises(ConfigurationError):
            fast.scaled_rate(-1.0)

    def test_default_processor(self):
        assert DEFAULT_PROCESSOR.relative_speed == 1.0
        assert "reference" in str(DEFAULT_PROCESSOR)


class TestClusterSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec("", 4, GIGABIT_ETHERNET, FAST_ETHERNET)
        with pytest.raises(ConfigurationError):
            ClusterSpec("c", 0, GIGABIT_ETHERNET, FAST_ETHERNET)

    def test_with_processors(self):
        spec = ClusterSpec("c", 4, GIGABIT_ETHERNET, FAST_ETHERNET)
        bigger = spec.with_processors(32)
        assert bigger.num_processors == 32
        assert bigger.name == "c"

    def test_with_technologies(self):
        spec = ClusterSpec("c", 4, GIGABIT_ETHERNET, FAST_ETHERNET)
        swapped = spec.with_technologies(FAST_ETHERNET, GIGABIT_ETHERNET)
        assert swapped.icn_technology is FAST_ETHERNET
        assert swapped.ecn_technology is GIGABIT_ETHERNET

    def test_str(self):
        spec = ClusterSpec("mcr", 8, GIGABIT_ETHERNET, FAST_ETHERNET)
        assert "mcr" in str(spec)
        assert "gigabit-ethernet" in str(spec)


class TestMultiClusterSystem:
    def test_super_cluster_builder(self):
        system = MultiClusterSystem.super_cluster(
            num_clusters=4,
            processors_per_cluster=16,
            icn_technology=GIGABIT_ETHERNET,
            ecn_technology=FAST_ETHERNET,
        )
        assert system.num_clusters == 4
        assert system.total_processors == 64
        assert system.processors_per_cluster == 16
        assert system.is_super_cluster
        assert not system.is_cluster_of_clusters
        assert system.icn2_technology is FAST_ETHERNET

    def test_builder_validation(self):
        with pytest.raises(ConfigurationError):
            MultiClusterSystem.super_cluster(0, 4, GIGABIT_ETHERNET, FAST_ETHERNET)
        with pytest.raises(ConfigurationError):
            MultiClusterSystem.super_cluster(4, 0, GIGABIT_ETHERNET, FAST_ETHERNET)

    def test_empty_system_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiClusterSystem(clusters=(), icn2_technology=FAST_ETHERNET)

    def test_duplicate_cluster_names_rejected(self):
        cluster = ClusterSpec("same", 4, GIGABIT_ETHERNET, FAST_ETHERNET)
        with pytest.raises(ConfigurationError):
            MultiClusterSystem(clusters=(cluster, cluster), icn2_technology=FAST_ETHERNET)

    def test_network_heterogeneity_detection(self):
        homo = MultiClusterSystem.super_cluster(2, 4, FAST_ETHERNET, FAST_ETHERNET)
        hetero = MultiClusterSystem.super_cluster(2, 4, GIGABIT_ETHERNET, FAST_ETHERNET)
        assert not homo.is_network_heterogeneous
        assert hetero.is_network_heterogeneous
        assert len(hetero.network_technologies) == 2

    def test_unequal_sizes_is_cluster_of_clusters(self):
        system = MultiClusterSystem.from_cluster_sizes(
            sizes=[8, 16],
            icn_technologies=[GIGABIT_ETHERNET, GIGABIT_ETHERNET],
            ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET],
            icn2_technology=FAST_ETHERNET,
        )
        assert system.is_cluster_of_clusters
        assert not system.has_equal_cluster_sizes
        with pytest.raises(ConfigurationError):
            _ = system.processors_per_cluster

    def test_from_cluster_sizes_validation(self):
        with pytest.raises(ConfigurationError):
            MultiClusterSystem.from_cluster_sizes(
                sizes=[],
                icn_technologies=[],
                ecn_technologies=[],
                icn2_technology=FAST_ETHERNET,
            )
        with pytest.raises(ConfigurationError):
            MultiClusterSystem.from_cluster_sizes(
                sizes=[4, 4],
                icn_technologies=[GIGABIT_ETHERNET],
                ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET],
                icn2_technology=FAST_ETHERNET,
            )

    def test_validate_super_cluster_assumptions(self):
        good = MultiClusterSystem.super_cluster(4, 8, GIGABIT_ETHERNET, FAST_ETHERNET)
        good.validate_super_cluster_assumptions()  # no exception

        uneven = MultiClusterSystem.from_cluster_sizes(
            sizes=[4, 8],
            icn_technologies=[GIGABIT_ETHERNET, GIGABIT_ETHERNET],
            ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET],
            icn2_technology=FAST_ETHERNET,
        )
        with pytest.raises(ConfigurationError):
            uneven.validate_super_cluster_assumptions()

        mixed_icn = MultiClusterSystem.from_cluster_sizes(
            sizes=[4, 4],
            icn_technologies=[GIGABIT_ETHERNET, MYRINET],
            ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET],
            icn2_technology=FAST_ETHERNET,
        )
        with pytest.raises(ConfigurationError):
            mixed_icn.validate_super_cluster_assumptions()

        mixed_proc = MultiClusterSystem.from_cluster_sizes(
            sizes=[4, 4],
            icn_technologies=[GIGABIT_ETHERNET, GIGABIT_ETHERNET],
            ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET],
            icn2_technology=FAST_ETHERNET,
            processor_types=[ProcessorType("a"), ProcessorType("b")],
        )
        with pytest.raises(ConfigurationError):
            mixed_proc.validate_super_cluster_assumptions()

    def test_super_cluster_assumptions_need_one_ecn_technology(self):
        mixed_ecn = MultiClusterSystem.from_cluster_sizes(
            sizes=[4, 4],
            icn_technologies=[GIGABIT_ETHERNET, GIGABIT_ETHERNET],
            ecn_technologies=[FAST_ETHERNET, GIGABIT_ETHERNET],
            icn2_technology=FAST_ETHERNET,
        )
        assert mixed_ecn.has_equal_cluster_sizes
        with pytest.raises(ConfigurationError, match="same ECN technology"):
            mixed_ecn.validate_super_cluster_assumptions()

    def test_rescaled_preserves_total(self):
        system = MultiClusterSystem.super_cluster(4, 64, GIGABIT_ETHERNET, FAST_ETHERNET)
        rescaled = system.rescaled(16)
        assert rescaled.num_clusters == 16
        assert rescaled.total_processors == 256
        assert rescaled.processors_per_cluster == 16
        assert rescaled.clusters[0].icn_technology is GIGABIT_ETHERNET

    def test_from_cluster_sizes_rejects_mismatched_processor_types(self):
        with pytest.raises(ConfigurationError, match="processor_types must match"):
            MultiClusterSystem.from_cluster_sizes(
                sizes=[4, 4],
                icn_technologies=[GIGABIT_ETHERNET, GIGABIT_ETHERNET],
                ecn_technologies=[FAST_ETHERNET, FAST_ETHERNET],
                icn2_technology=FAST_ETHERNET,
                processor_types=[ProcessorType("a")],
            )

    def test_rescaled_rejects_non_positive_cluster_count(self):
        system = MultiClusterSystem.super_cluster(4, 64, GIGABIT_ETHERNET, FAST_ETHERNET)
        with pytest.raises(ConfigurationError, match="num_clusters must be >= 1"):
            system.rescaled(0)

    def test_rescaled_requires_divisibility(self):
        system = MultiClusterSystem.super_cluster(4, 64, GIGABIT_ETHERNET, FAST_ETHERNET)
        with pytest.raises(ConfigurationError):
            system.rescaled(7)

    def test_describe_and_str(self):
        system = MultiClusterSystem.super_cluster(2, 4, GIGABIT_ETHERNET, FAST_ETHERNET)
        text = system.describe()
        assert "2 clusters" in text
        assert "cluster-0" in text
        assert "C=2" in str(system)


class TestPresets:
    def test_paper_evaluation_system(self):
        system = paper_evaluation_system(16, GIGABIT_ETHERNET, FAST_ETHERNET)
        assert system.total_processors == 256
        assert system.num_clusters == 16
        assert system.processors_per_cluster == 16
        assert system.is_super_cluster
        system.validate_super_cluster_assumptions()

    def test_paper_system_requires_divisibility(self):
        with pytest.raises(ValueError):
            paper_evaluation_system(3, GIGABIT_ETHERNET, FAST_ETHERNET)

    def test_all_paper_cluster_counts_valid(self):
        for c in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            system = paper_evaluation_system(c, GIGABIT_ETHERNET, FAST_ETHERNET)
            assert system.total_processors == 256

    def test_das2_like(self):
        system = das2_like_system()
        assert system.is_super_cluster
        assert system.num_clusters == 5
        assert system.total_processors == 320

    def test_llnl_like(self):
        system = llnl_like_system()
        assert system.is_cluster_of_clusters
        assert system.num_clusters == 4
        assert {c.name for c in system.clusters} == {"mcr", "alc", "thunder", "pvc"}
        assert system.total_processors == 128 + 96 + 64 + 16
