"""Interconnect topologies: the paper's fat-tree and linear switch array."""

from .base import Topology, TopologyStats
from .fattree import FatTreeTopology, fat_tree_stages, fat_tree_switch_count
from .linear_array import (
    LinearArrayTopology,
    average_traversed_switches,
    linear_array_switch_count,
)

__all__ = [
    "Topology",
    "TopologyStats",
    "FatTreeTopology",
    "fat_tree_stages",
    "fat_tree_switch_count",
    "LinearArrayTopology",
    "linear_array_switch_count",
    "average_traversed_switches",
]
