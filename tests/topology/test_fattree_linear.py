"""Unit tests for the paper's two topologies: fat-tree and linear switch array.

The key anchor is the paper's worked example (Figure 3): a fat-tree with
N = 16 nodes and Pr = 8 ports has d = 2 stages, k = 6 switches and a
bisection width of 8 = N/2 (full bisection bandwidth, Theorem 1).
"""

from __future__ import annotations

import math

import pytest

from repro.errors import TopologyError
from repro.topology.fattree import FatTreeTopology, fat_tree_stages, fat_tree_switch_count
from repro.topology.linear_array import (
    LinearArrayTopology,
    average_traversed_switches,
    linear_array_switch_count,
)


class TestFatTreePaperExample:
    """Figure 3 of the paper: N = 16, Pr = 8."""

    @pytest.fixture
    def figure3(self) -> FatTreeTopology:
        return FatTreeTopology(num_nodes=16, switch_ports=8)

    def test_two_stages(self, figure3):
        assert figure3.num_stages == 2

    def test_six_switches(self, figure3):
        assert figure3.num_switches == 6

    def test_full_bisection_bandwidth(self, figure3):
        assert figure3.bisection_width == 8
        assert figure3.full_bisection

    def test_switch_traversals(self, figure3):
        # Eq. (11): 2d − 1 = 3 switches on an end-to-end path.
        assert figure3.switch_traversals == 3
        assert figure3.diameter_switch_hops == 3

    def test_switches_per_stage(self, figure3):
        assert figure3.switches_per_stage == [4, 2]

    def test_up_and_down_links(self, figure3):
        assert figure3.up_links_per_switch == 4
        assert figure3.down_links_per_switch == 4


class TestFatTreeEvaluationPlatform:
    """The paper's evaluation platform: Pr = 24 and N from the C sweep."""

    def test_256_nodes_needs_two_stages(self):
        assert fat_tree_stages(256, 24) == 2

    def test_small_networks_single_stage(self):
        # The C = 16 point of the figures: both C = 16 and N0 = 16 are <= 24.
        assert fat_tree_stages(16, 24) == 1
        assert fat_tree_stages(24, 24) == 1

    def test_stage_boundary_above_port_count(self):
        assert fat_tree_stages(25, 24) == 2

    def test_three_stages_for_very_large_networks(self):
        # capacity(2) = 24 * 12 = 288, so 289 nodes need a third stage.
        assert fat_tree_stages(288, 24) == 2
        assert fat_tree_stages(289, 24) == 3

    def test_switch_count_equation_13(self):
        # k = (d−1)·ceil(N/(Pr/2)) + ceil(N/Pr) for N=256, Pr=24:
        # d=2 -> 1*ceil(256/12) + ceil(256/24) = 22 + 11 = 33.
        assert fat_tree_switch_count(256, 24) == 33

    def test_single_stage_switch_count(self):
        assert fat_tree_switch_count(16, 24) == 1
        assert fat_tree_switch_count(48, 48) == 1

    def test_stages_monotone_in_nodes(self):
        stages = [fat_tree_stages(n, 24) for n in (8, 24, 64, 256, 1024, 4096)]
        assert stages == sorted(stages)

    def test_validation(self):
        with pytest.raises(TopologyError):
            fat_tree_stages(0, 8)
        with pytest.raises(TopologyError):
            fat_tree_stages(8, 1)
        with pytest.raises(TopologyError):
            fat_tree_stages(10, 2)  # Pr/2 = 1 cannot grow


class TestFatTreeProperties:
    def test_full_bisection_for_many_sizes(self):
        for n in (2, 7, 16, 50, 256, 1000):
            topo = FatTreeTopology(n, 24)
            assert topo.full_bisection
            assert topo.bisection_width == math.ceil(n / 2)

    def test_average_equals_worst_case(self):
        topo = FatTreeTopology(64, 8)
        assert topo.average_switch_hops == float(topo.switch_traversals)

    def test_stats_dataclass(self):
        stats = FatTreeTopology(16, 8).stats()
        assert stats.name == "fat-tree"
        assert stats.num_nodes == 16
        assert stats.num_switches == 6
        assert stats.full_bisection
        assert stats.as_dict()["bisection_width"] == 8

    def test_repr(self):
        assert "d=2" in repr(FatTreeTopology(16, 8))


class TestLinearArray:
    def test_switch_count_equation_17(self):
        # k = ceil(N/Pr): the paper's Eq. 17.
        assert linear_array_switch_count(256, 24) == 11
        assert linear_array_switch_count(16, 24) == 1
        assert linear_array_switch_count(24, 24) == 1
        assert linear_array_switch_count(25, 24) == 2

    def test_average_traversed_switches_paper_formula(self):
        # Eq. (19): (k + 1)/3.
        assert average_traversed_switches(11) == pytest.approx(4.0)
        assert average_traversed_switches(1) == pytest.approx(2.0 / 3.0)

    def test_average_traversed_exact_close_to_paper_for_large_k(self):
        k = 90
        paper = average_traversed_switches(k, exact=False)
        exact = average_traversed_switches(k, exact=True)
        assert paper == pytest.approx(exact, rel=0.1)

    def test_validation(self):
        with pytest.raises(TopologyError):
            linear_array_switch_count(0, 8)
        with pytest.raises(TopologyError):
            average_traversed_switches(0)

    def test_bisection_width_is_one(self):
        topo = LinearArrayTopology(256, 24)
        assert topo.bisection_width == 1
        assert not topo.full_bisection

    def test_blocked_node_factor(self):
        # Eq. (21): the N/2 multiplier on the bandwidth term.
        assert LinearArrayTopology(256, 24).blocked_node_factor == 128.0
        assert LinearArrayTopology(10, 24).blocked_node_factor == 5.0

    def test_single_stage(self):
        topo = LinearArrayTopology(100, 24)
        assert topo.num_stages == 1
        assert topo.diameter_switch_hops == topo.num_switches

    def test_stats(self):
        stats = LinearArrayTopology(48, 24).stats()
        assert stats.name == "linear-array"
        assert stats.num_switches == 2
        assert not stats.full_bisection


    def test_exact_average_matches_brute_force(self):
        topo = LinearArrayTopology(96, 24)
        k = topo.num_switches
        assert k == 4
        brute = sum(abs(i - j) + 1 for i in range(k) for j in range(k)) / k**2
        assert topo.exact_average_switch_hops == pytest.approx(brute)
        assert "k=4" in repr(topo)


@pytest.mark.parametrize("topology", [FatTreeTopology, LinearArrayTopology])
@pytest.mark.parametrize(
    "num_nodes, switch_ports, match", [(0, 24, "num_nodes"), (16, 1, "switch_ports")]
)
def test_constructor_validation(topology, num_nodes, switch_ports, match):
    with pytest.raises(TopologyError, match=match):
        topology(num_nodes, switch_ports)
