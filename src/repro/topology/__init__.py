"""Interconnect topologies: the paper's fat-tree and linear switch array."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("Topology", "TopologyStats"),
    ".fattree": ("fat_tree_stages", "fat_tree_switch_count", "FatTreeTopology"),
    ".linear_array": (
        "average_traversed_switches", "linear_array_switch_count", "LinearArrayTopology",
    ),
})
