"""Linear array of cascaded switches (the paper's blocking interconnect).

Section 5.3 models the blocking network as a chain of ``k = ceil(N/Pr)``
switches (Eq. 17).  A message from node ``i`` to node ``j`` traverses a
number of switches ``φ`` between 1 and ``k``; the paper replaces ``φ`` with
the average traversed distance ``(k+1)/3`` (Eq. 19).  Because the bisection
width of a chain is 1, the topology does *not* have full bisection bandwidth
and the blocking time of Eq. (20), ``T_B = (N/2 − 1)·M·β``, is added to the
transmission time (Eq. 21).
"""

from __future__ import annotations

import math

from ..errors import TopologyError
from .base import Topology

__all__ = ["LinearArrayTopology", "linear_array_switch_count", "average_traversed_switches"]


def linear_array_switch_count(num_nodes: int, switch_ports: int) -> int:
    """Number of cascaded switches ``k = ceil(N/Pr)`` (paper Eq. 17)."""
    if num_nodes < 1:
        raise TopologyError(f"num_nodes must be >= 1, got {num_nodes!r}")
    if switch_ports < 2:
        raise TopologyError(f"switch_ports must be >= 2, got {switch_ports!r}")
    return math.ceil(num_nodes / switch_ports)


def average_traversed_switches(num_switches: int, exact: bool = False) -> float:
    """Average number of switches a random message traverses.

    The paper's approximation (Eq. 19) is ``(k + 1)/3``.  With ``exact=True``
    the function instead returns the exact expectation of ``|i − j| + 1`` for
    source/destination switches drawn uniformly (allowing the same switch),
    which is ``(k² − 1)/(3k) + 1``; for large ``k`` both are ≈ ``k/3``.
    """
    if num_switches < 1:
        raise TopologyError(f"num_switches must be >= 1, got {num_switches!r}")
    k = num_switches
    if exact:
        return (k * k - 1.0) / (3.0 * k) + 1.0
    return (k + 1.0) / 3.0


class LinearArrayTopology(Topology):
    """A chain of ``ceil(N/Pr)`` switches with nodes distributed across them."""

    family = "linear-array"

    def __init__(self, num_nodes: int, switch_ports: int) -> None:
        super().__init__(num_nodes, switch_ports)
        self._switches = linear_array_switch_count(num_nodes, switch_ports)

    # -- structural metrics -------------------------------------------------------

    @property
    def num_stages(self) -> int:
        """A linear array is a single-level topology (d = 1)."""
        return 1

    @property
    def num_switches(self) -> int:
        """Paper Eq. (17): ``ceil(N/Pr)``."""
        return self._switches

    @property
    def bisection_width(self) -> int:
        """A chain is split by cutting a single inter-switch link.

        With only one switch there is no inter-switch link and the bisection
        happens inside the switch backplane; we still report 1 so that the
        full-bisection predicate is False exactly when the paper treats the
        network as blocking (N > 2).
        """
        return 1

    @property
    def average_switch_hops(self) -> float:
        """The paper's average traversed distance ``(k + 1)/3`` (Eq. 19)."""
        return average_traversed_switches(self._switches, exact=False)

    @property
    def exact_average_switch_hops(self) -> float:
        """Exact expectation of the traversed switch count under uniform traffic."""
        return average_traversed_switches(self._switches, exact=True)

    @property
    def diameter_switch_hops(self) -> int:
        """Worst case: a message crosses the whole chain (``k`` switches)."""
        return self._switches

    @property
    def blocked_node_factor(self) -> float:
        """The paper's contention multiplier ``N/2`` (Eqs. 20–21).

        ``(N/2 − 1)`` nodes are blocked while one transmits across the
        bisection, so the effective per-message transmission term becomes
        ``(N/2)·M·β``.
        """
        return self._num_nodes / 2.0

    def __repr__(self) -> str:
        return (
            f"<LinearArrayTopology N={self.num_nodes} Pr={self.switch_ports} "
            f"k={self.num_switches}>"
        )
