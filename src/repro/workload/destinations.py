"""Destination-selection policies for generated messages.

Assumption 3 of the paper is uniform selection over all other nodes;
localized and hotspot policies are provided because §5.3 explicitly notes
that the linear-array (blocking) network "is not suited for random traffic
patterns, but for localized traffic patterns" — the localized policy lets
that remark be tested quantitatively (ablation ``traffic_locality``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Sequence, Tuple

from ..batching import DEFAULT_BLOCK_SIZE
from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..rng import VariateGenerator

__all__ = [
    "NodeAddress",
    "DestinationPolicy",
    "UniformDestinations",
    "LocalizedDestinations",
    "HotspotDestinations",
]

#: A node address is (cluster index, processor index within the cluster).
NodeAddress = Tuple[int, int]
#: Flat node index -> address.
AddressTable = Tuple[NodeAddress, ...]


class DestinationPolicy:
    """Base class for destination selection policies.

    A policy numbers the nodes ``0 .. total_nodes - 1`` in (cluster,
    processor) order.  Subclasses implement :meth:`_pick`, which gets the
    source's flat index and the flat index -> address table along with the
    source's address, both resolved once per chooser.

    Each cluster's first flat index and the address table are derived from
    ``cluster_sizes`` once per policy, so resolving a source costs O(1).
    They stay out of the pickled state: policies travel as task arguments,
    which journal fingerprints hash, and unpickling derives them again.
    """

    #: Attributes derived from ``cluster_sizes`` (see :meth:`_derive`).
    _DERIVED = ("_starts", "_table")

    def __init__(self, cluster_sizes: Sequence[int]) -> None:
        if not cluster_sizes or any(s < 1 for s in cluster_sizes):
            raise ConfigurationError(f"invalid cluster sizes {cluster_sizes!r}")
        self.cluster_sizes = tuple(int(s) for s in cluster_sizes)
        self.total_nodes = sum(self.cluster_sizes)
        if self.total_nodes < 2:
            raise ConfigurationError("destination selection needs at least two nodes")
        self._derive()

    def _derive(self) -> None:
        starts = []
        table = []
        for cluster, size in enumerate(self.cluster_sizes):
            starts.append(len(table))
            table.extend((cluster, proc) for proc in range(size))
        self._starts: Tuple[int, ...] = tuple(starts)
        self._table: AddressTable = tuple(table)

    def __getstate__(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k not in self._DERIVED}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._derive()

    def choose(self, source: NodeAddress, rng: VariateGenerator) -> NodeAddress:
        """Pick a destination different from ``source``."""
        return self._pick(source, self._flatten(source), self._table, rng)

    def chooser(
        self, source: NodeAddress, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], NodeAddress]:
        """Return a zero-argument callable drawing successive destinations.

        The base implementation makes the draws of one :meth:`choose` call
        per invocation, with the source's flat index computed once;
        policies whose draw pattern allows it (a single fixed draw family
        per stream) override this with a batched variant that reproduces
        the scalar sequence bit-for-bit.  A batched chooser reads ahead on
        ``rng``, so it must be the stream's only consumer.
        """
        src_flat = self._flatten(source)
        table = self._table
        pick = self._pick
        return lambda: pick(source, src_flat, table, rng)

    def _pick(
        self, source: NodeAddress, src_flat: int, table: AddressTable, rng: VariateGenerator
    ) -> NodeAddress:
        """A destination for ``source``, whose flat index is ``src_flat``."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------------

    def _uniform_other_node(
        self, src_flat: int, table: AddressTable, rng: VariateGenerator
    ) -> NodeAddress:
        """Uniform choice over all nodes except flat index ``src_flat``."""
        pick = rng.integer(0, self.total_nodes - 2)
        if pick >= src_flat:
            pick += 1
        return table[pick]

    def _uniform_in_cluster(
        self, source: NodeAddress, src_flat: int, table: AddressTable, rng: VariateGenerator
    ) -> NodeAddress:
        cluster, proc = source
        size = self.cluster_sizes[cluster]
        if size < 2:
            # No other local node exists; fall back to any other node.
            return self._uniform_other_node(src_flat, table, rng)
        pick = rng.integer(0, size - 2)
        if pick >= proc:
            pick += 1
        return (cluster, pick)

    def _uniform_remote(
        self, source: NodeAddress, src_flat: int, table: AddressTable, rng: VariateGenerator
    ) -> NodeAddress:
        cluster, proc = source
        size = self.cluster_sizes[cluster]
        if size == self.total_nodes:
            return self._uniform_in_cluster(source, src_flat, table, rng)
        # The remote nodes are the flat indices outside the source cluster's
        # block, which starts at src_flat - proc.
        pick = rng.integer(0, self.total_nodes - size - 1)
        if pick >= src_flat - proc:
            pick += size
        return table[pick]

    def _flatten(self, address: NodeAddress) -> int:
        cluster, proc = address
        if not 0 <= cluster < len(self.cluster_sizes):
            raise ConfigurationError(f"cluster index {cluster} out of range")
        if not 0 <= proc < self.cluster_sizes[cluster]:
            raise ConfigurationError(f"processor index {proc} out of range for cluster {cluster}")
        return self._starts[cluster] + proc


class UniformDestinations(DestinationPolicy):
    """Assumption 3: uniform over all other nodes of the system."""

    def _pick(
        self, source: NodeAddress, src_flat: int, table: AddressTable, rng: VariateGenerator
    ) -> NodeAddress:
        return self._uniform_other_node(src_flat, table, rng)

    def chooser(
        self, source: NodeAddress, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], NodeAddress]:
        """Batched uniform chooser: one fixed-bounds integer draw per call.

        Draws the same ``integer(0, total_nodes - 2)`` sequence as
        :meth:`choose` (bit-identical) but in blocks, and resolves flat
        indices through the address table.
        """
        src_flat = self._flatten(source)
        pick_stream = rng.integer_stream(0, self.total_nodes - 2, block_size)
        table = self._table

        def choose() -> NodeAddress:
            pick = pick_stream()
            if pick >= src_flat:
                pick += 1
            return table[pick]

        return choose


class LocalizedDestinations(DestinationPolicy):
    """With probability ``locality`` choose inside the source's cluster.

    ``locality = 1 − P`` of the paper recovers the uniform policy; larger
    values model applications with mostly nearest-neighbour communication.
    """

    def __init__(self, cluster_sizes: Sequence[int], locality: float) -> None:
        super().__init__(cluster_sizes)
        if not 0.0 <= locality <= 1.0:
            raise ConfigurationError(f"locality must lie in [0, 1], got {locality!r}")
        self.locality = float(locality)

    def _pick(
        self, source: NodeAddress, src_flat: int, table: AddressTable, rng: VariateGenerator
    ) -> NodeAddress:
        if rng.bernoulli(self.locality):
            return self._uniform_in_cluster(source, src_flat, table, rng)
        return self._uniform_remote(source, src_flat, table, rng)


class HotspotDestinations(DestinationPolicy):
    """A fraction of messages target one hotspot node; the rest are uniform."""

    def __init__(
        self,
        cluster_sizes: Sequence[int],
        hotspot: NodeAddress,
        hotspot_fraction: float = 0.1,
    ) -> None:
        super().__init__(cluster_sizes)
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ConfigurationError(
                f"hotspot fraction must lie in [0, 1], got {hotspot_fraction!r}"
            )
        self._flatten(hotspot)  # validates the address
        self.hotspot = hotspot
        self.hotspot_fraction = float(hotspot_fraction)

    def _pick(
        self, source: NodeAddress, src_flat: int, table: AddressTable, rng: VariateGenerator
    ) -> NodeAddress:
        if source != self.hotspot and rng.bernoulli(self.hotspot_fraction):
            return self.hotspot
        return self._uniform_other_node(src_flat, table, rng)
