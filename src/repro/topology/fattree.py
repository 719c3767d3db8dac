"""Multi-stage fat-tree topology (the paper's non-blocking interconnect).

Section 5.2 of the paper builds the non-blocking network as a multi-stage
fat-tree of Pr-port switches: in every stage but the last, each switch uses
``Pr/2`` down-links and ``Pr/2`` up-links; last-stage (root) switches use
all ``Pr`` ports as down-links.  The key structural results reproduced here:

* Eq. (12): number of stages ``d`` needed to connect ``N`` nodes,
* Eq. (13) / Proposition 1: total switch count
  ``k = (d−1)·ceil(2N/Pr) + ceil(N/Pr)``,
* Theorem 1: the topology has *full bisection bandwidth*
  (bisection width = ceil(N/2)), hence zero blocking time,
* Eq. (11): a message traverses ``2d−1`` switches end-to-end.

The worked example of Figure 3 (N=16, Pr=8) gives d=2, k=6, bisection 8,
which the unit tests assert.
"""

from __future__ import annotations

import math
from typing import List

from ..errors import TopologyError
from .base import Topology

__all__ = ["FatTreeTopology", "fat_tree_stages", "fat_tree_switch_count"]


def fat_tree_stages(num_nodes: int, switch_ports: int) -> int:
    """Number of switch stages ``d`` of a fat-tree (paper Eq. 12).

    A single Pr-port switch connects up to Pr nodes (d = 1).  Every extra
    stage multiplies the supported node count by ``Pr/2`` because half the
    ports of the lower stage are used as up-links:

    ``capacity(d) = Pr · (Pr/2)^(d−1)``.

    The smallest ``d`` whose capacity reaches ``num_nodes`` matches the
    paper's ceiling expression on its examples (N=16, Pr=8 → d=2; and for
    the evaluation platform N=256, Pr=24 → d=2, while N0=16 or C=16 → d=1,
    which is exactly the C=16 "different behaviour" the paper discusses).
    """
    if num_nodes < 1:
        raise TopologyError(f"num_nodes must be >= 1, got {num_nodes!r}")
    if switch_ports < 2:
        raise TopologyError(f"switch_ports must be >= 2, got {switch_ports!r}")
    if num_nodes <= switch_ports:
        return 1
    half = switch_ports / 2.0
    if half <= 1.0:
        raise TopologyError(
            f"switch_ports={switch_ports} cannot build a multi-stage fat-tree (Pr/2 <= 1)"
        )
    # Solve Pr * (Pr/2)^(d-1) >= N for the smallest integer d.
    d = 1 + math.ceil(math.log(num_nodes / switch_ports) / math.log(half) - 1e-12)
    return max(1, int(d))


def fat_tree_switch_count(num_nodes: int, switch_ports: int) -> int:
    """Total number of switches ``k`` of a fat-tree (paper Eq. 13).

    ``k = (d−1)·ceil(N/(Pr/2)) + ceil(N/Pr)``: every stage except the last
    needs ``ceil(N/DL)`` switches with ``DL = Pr/2`` down-links, and the last
    stage needs ``ceil(N/Pr)`` switches using all ports as down-links.
    """
    d = fat_tree_stages(num_nodes, switch_ports)
    if d == 1:
        return math.ceil(num_nodes / switch_ports)
    # d > 1 only past fat_tree_stages' Pr/2 > 1 check, so this is >= 1.
    down_links = switch_ports // 2
    return (d - 1) * math.ceil(num_nodes / down_links) + math.ceil(num_nodes / switch_ports)


class FatTreeTopology(Topology):
    """A multi-stage fat-tree built from ``switch_ports``-port switches."""

    family = "fat-tree"

    def __init__(self, num_nodes: int, switch_ports: int) -> None:
        super().__init__(num_nodes, switch_ports)
        self._stages = fat_tree_stages(num_nodes, switch_ports)
        self._switches = fat_tree_switch_count(num_nodes, switch_ports)

    # -- structural metrics -------------------------------------------------------

    @property
    def num_stages(self) -> int:
        """Paper Eq. (12)."""
        return self._stages

    @property
    def num_switches(self) -> int:
        """Paper Eq. (13)."""
        return self._switches

    @property
    def bisection_width(self) -> int:
        """Theorem 1: ``ceil(N/2)`` — full bisection bandwidth."""
        return math.ceil(self._num_nodes / 2)

    @property
    def switches_per_stage(self) -> List[int]:
        """Number of switches in each stage, bottom (node-facing) first."""
        if self._stages == 1:
            return [math.ceil(self._num_nodes / self._switch_ports)]
        down_links = self._switch_ports // 2
        lower = [math.ceil(self._num_nodes / down_links)] * (self._stages - 1)
        return lower + [math.ceil(self._num_nodes / self._switch_ports)]

    @property
    def switch_traversals(self) -> int:
        """Switches on an end-to-end path that climbs to the top stage: ``2d − 1``.

        This is the multiplier of the switch latency in Eq. (11).
        """
        return 2 * self._stages - 1

    @property
    def average_switch_hops(self) -> float:
        """The model charges every message the worst-case ``2d−1`` traversals.

        The paper's Eq. (11) uses ``2d−1`` for all pairs (a conservative
        simplification since some pairs share a low-stage switch), so the
        average equals the worst case here.
        """
        return float(self.switch_traversals)

    @property
    def diameter_switch_hops(self) -> int:
        """Worst-case number of switches traversed (``2d − 1``)."""
        return self.switch_traversals

    @property
    def up_links_per_switch(self) -> int:
        """Up-link ports per non-root switch (``Pr/2``; 0 when single stage)."""
        return 0 if self._stages == 1 else self._switch_ports // 2

    @property
    def down_links_per_switch(self) -> int:
        """Down-link ports per non-root switch (``Pr/2``; Pr when single stage)."""
        return self._switch_ports if self._stages == 1 else self._switch_ports // 2

    def __repr__(self) -> str:
        return (
            f"<FatTreeTopology N={self.num_nodes} Pr={self.switch_ports} "
            f"d={self.num_stages} k={self.num_switches}>"
        )
