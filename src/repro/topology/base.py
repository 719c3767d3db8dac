"""Abstract interface for interconnect topologies.

A topology in this library answers the structural questions the paper's
network models need:

* how many switch stages a message traverses (→ switch latency term),
* how many switches the topology needs (→ cost, Eq. 13/17),
* its bisection width (→ whether it has full bisection bandwidth, §5.1),
* the average switch distance between two nodes (→ blocking model, Eq. 19).

Concrete subclasses: :class:`~repro.topology.fattree.FatTreeTopology` and
:class:`~repro.topology.linear_array.LinearArrayTopology`, the two the paper
uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TopologyError

__all__ = ["Topology", "TopologyStats"]


@dataclass(frozen=True)
class TopologyStats:
    """Summary of the structural metrics of a topology instance."""

    name: str
    num_nodes: int
    num_switches: int
    num_stages: int
    bisection_width: int
    full_bisection: bool
    average_switch_hops: float
    diameter_switch_hops: int

    def as_dict(self) -> dict:
        """Return the stats as a plain dictionary (for tables and CSV)."""
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_switches": self.num_switches,
            "num_stages": self.num_stages,
            "bisection_width": self.bisection_width,
            "full_bisection": self.full_bisection,
            "average_switch_hops": self.average_switch_hops,
            "diameter_switch_hops": self.diameter_switch_hops,
        }


class Topology:
    """Base class for switch-based interconnect topologies.

    Parameters
    ----------
    num_nodes:
        Number of end nodes (processors) attached to the network.
    switch_ports:
        Port count ``Pr`` of the switch building block.
    """

    #: Human-readable topology family name, overridden by subclasses.
    family: str = "abstract"

    def __init__(self, num_nodes: int, switch_ports: int) -> None:
        if num_nodes < 1:
            raise TopologyError(f"num_nodes must be >= 1, got {num_nodes!r}")
        if switch_ports < 2:
            raise TopologyError(f"switch_ports must be >= 2, got {switch_ports!r}")
        self._num_nodes = int(num_nodes)
        self._switch_ports = int(switch_ports)

    # -- basic attributes ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of attached end nodes."""
        return self._num_nodes

    @property
    def switch_ports(self) -> int:
        """Ports per switch (Pr)."""
        return self._switch_ports

    # -- structural metrics (abstract) ----------------------------------------------

    @property
    def num_stages(self) -> int:
        """Number of switch stages a worst-case path climbs (paper's ``d``)."""
        raise NotImplementedError

    @property
    def num_switches(self) -> int:
        """Total number of switches (paper's ``k``)."""
        raise NotImplementedError

    @property
    def bisection_width(self) -> int:
        """Minimum number of links cut to split the network in half (§5.1)."""
        raise NotImplementedError

    @property
    def full_bisection(self) -> bool:
        """Definition 1 of the paper: bisection width >= N/2."""
        return self.bisection_width >= (self._num_nodes + 1) // 2

    @property
    def average_switch_hops(self) -> float:
        """Average number of switches traversed by a uniformly random message."""
        raise NotImplementedError

    @property
    def diameter_switch_hops(self) -> int:
        """Largest number of switches traversed by any node pair."""
        raise NotImplementedError

    # -- derived helpers -------------------------------------------------------------

    def stats(self) -> TopologyStats:
        """Collect all structural metrics into a :class:`TopologyStats`."""
        return TopologyStats(
            name=self.family,
            num_nodes=self.num_nodes,
            num_switches=self.num_switches,
            num_stages=self.num_stages,
            bisection_width=self.bisection_width,
            full_bisection=self.full_bisection,
            average_switch_hops=self.average_switch_hops,
            diameter_switch_hops=self.diameter_switch_hops,
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} nodes={self.num_nodes} ports={self.switch_ports} "
            f"switches={self.num_switches}>"
        )
