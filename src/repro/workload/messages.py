"""Message-size models and synthetic trace generation.

Assumption 6 fixes the message length at M bytes; the other size models and
the trace generator support sensitivity studies and replayable workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..batching import DEFAULT_BLOCK_SIZE
from ..des.rng import RandomStreams, VariateGenerator
from ..errors import ConfigurationError
from .arrivals import ArrivalProcess, PoissonArrivals
from .destinations import DestinationPolicy, NodeAddress, UniformDestinations

__all__ = [
    "MessageSizeModel",
    "FixedMessageSize",
    "BimodalMessageSize",
    "UniformMessageSize",
    "TraceEntry",
    "WorkloadTrace",
    "generate_trace",
]


class MessageSizeModel:
    """Base class: draws the size in bytes of each generated message."""

    #: Whether :meth:`sample` consumes random numbers (``False`` for the
    #: paper's fixed-size assumption).  Workload batching uses this to
    #: identify the consumers of a shared stream.
    consumes_rng: bool = True

    def sample(self, rng: VariateGenerator) -> float:
        """Draw one message size (bytes)."""
        raise NotImplementedError

    def sampler(
        self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], float]:
        """Return a zero-argument callable drawing successive sizes.

        The base implementation falls back to one :meth:`sample` call per
        invocation; single-draw models override it with a batched
        :class:`~repro.des.rng.VariateStream` that reproduces the scalar
        sequence bit-for-bit.  A batched sampler reads ahead on ``rng``
        and must be its only consumer.
        """
        return lambda: self.sample(rng)

    @property
    def mean(self) -> float:
        """Mean message size (bytes)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedMessageSize(MessageSizeModel):
    """Assumption 6: every message is exactly ``size_bytes`` long."""

    size_bytes: float
    consumes_rng = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"message size must be positive, got {self.size_bytes!r}")

    def sample(self, rng: VariateGenerator) -> float:
        return self.size_bytes

    def sampler(
        self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], float]:
        size = self.size_bytes
        return lambda: size

    @property
    def mean(self) -> float:
        return self.size_bytes


@dataclass(frozen=True)
class BimodalMessageSize(MessageSizeModel):
    """Short control messages mixed with long data messages."""

    short_bytes: float = 64.0
    long_bytes: float = 4096.0
    long_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.short_bytes <= 0 or self.long_bytes <= 0:
            raise ConfigurationError("message sizes must be positive")
        if not 0.0 <= self.long_fraction <= 1.0:
            raise ConfigurationError(
                f"long fraction must lie in [0, 1], got {self.long_fraction!r}"
            )

    def sample(self, rng: VariateGenerator) -> float:
        return self.long_bytes if rng.bernoulli(self.long_fraction) else self.short_bytes

    @property
    def mean(self) -> float:
        return self.long_fraction * self.long_bytes + (1 - self.long_fraction) * self.short_bytes


@dataclass(frozen=True)
class UniformMessageSize(MessageSizeModel):
    """Uniformly distributed message sizes on ``[low_bytes, high_bytes]``."""

    low_bytes: float
    high_bytes: float

    def __post_init__(self) -> None:
        if self.low_bytes <= 0 or self.high_bytes < self.low_bytes:
            raise ConfigurationError(
                f"need 0 < low <= high, got [{self.low_bytes!r}, {self.high_bytes!r}]"
            )

    def sample(self, rng: VariateGenerator) -> float:
        return rng.uniform(self.low_bytes, self.high_bytes)

    def sampler(
        self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], float]:
        """Batched equivalent of repeated :meth:`sample` calls (bit-identical)."""
        return rng.uniform_stream(self.low_bytes, self.high_bytes, block_size)

    @property
    def mean(self) -> float:
        return (self.low_bytes + self.high_bytes) / 2.0


@dataclass(frozen=True)
class TraceEntry:
    """One pre-generated message of a workload trace."""

    time: float
    source: NodeAddress
    destination: NodeAddress
    size_bytes: float


@dataclass
class WorkloadTrace:
    """A replayable, pre-generated sequence of messages (sorted by time)."""

    entries: List[TraceEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    @property
    def duration(self) -> float:
        """Time of the last entry (0 for an empty trace)."""
        return self.entries[-1].time if self.entries else 0.0

    @property
    def mean_size(self) -> float:
        """Average message size of the trace."""
        if not self.entries:
            return 0.0
        return sum(e.size_bytes for e in self.entries) / len(self.entries)

    def messages_per_source(self) -> dict:
        """Histogram of how many messages each source generated."""
        counts: dict = {}
        for entry in self.entries:
            counts[entry.source] = counts.get(entry.source, 0) + 1
        return counts


def _node_draw_callables(
    node: NodeAddress,
    arrival: ArrivalProcess,
    dest: DestinationPolicy,
    sizes: MessageSizeModel,
    rng: VariateGenerator,
) -> Tuple[Callable[[], float], Callable[[], NodeAddress], Callable[[], float]]:
    """Per-entry draw callables for one node's shared stream.

    When at most one of the three families actually consumes random numbers,
    that family is the stream's *sole* consumer and its batched
    :class:`~repro.des.rng.VariateStream` sampler reads the exact bit-stream
    positions the scalar calls would — so batching is bit-identical.  With
    two or more consumers the draws interleave on the shared stream and any
    lookahead would shift what the other family observes, so the scalar
    per-call path is kept (this is why the paper-default Poisson + uniform
    trace cannot be batched without changing its values; use
    ``stream_layout="per-family"`` for a fully batched — but differently
    seeded — trace).
    """
    consumers = sum(
        1 for family in (arrival, dest, sizes) if family.consumes_rng
    )
    if consumers <= 1:
        return arrival.sampler(rng), dest.chooser(node, rng), sizes.sampler(rng)
    return (
        lambda: arrival.interarrival(rng),
        lambda: dest.choose(node, rng),
        lambda: sizes.sample(rng),
    )


def generate_trace(
    cluster_sizes: Sequence[int],
    num_messages: int,
    arrival_process: Optional[ArrivalProcess] = None,
    destination_policy: Optional[DestinationPolicy] = None,
    size_model: Optional[MessageSizeModel] = None,
    seed: int = 0,
    stream_layout: str = "shared",
) -> WorkloadTrace:
    """Pre-generate an open-loop workload trace.

    Each node runs its own arrival process; the merged trace is sorted by
    generation time.  Note that the validation simulator normally generates
    traffic *closed-loop* (a processor blocks while its request is pending,
    assumption 4); traces are for open-loop extension studies and for
    feeding external simulators.

    ``stream_layout`` selects how random streams are assigned:

    * ``"shared"`` (default) — one stream per node, consumed by all three
      draw families in interleaved order.  This is the historical layout:
      traces are bit-identical to every earlier release for the same seed.
      Whenever at most one family consumes random numbers the draws are
      served from a batched :class:`~repro.des.rng.VariateStream`
      (still bit-identical — the batch reads the same stream positions).
    * ``"per-family"`` — three independent named streams per node
      (arrivals / destinations / sizes), every family batched.  Much
      faster for large traces and equally deterministic, but a *different*
      trace than ``"shared"`` because the streams are seeded differently.
    """
    if num_messages < 0:
        raise ConfigurationError(f"num_messages must be non-negative, got {num_messages!r}")
    if stream_layout not in ("shared", "per-family"):
        raise ConfigurationError(
            f"stream_layout must be 'shared' or 'per-family', got {stream_layout!r}"
        )
    streams = RandomStreams(seed)
    arrival = arrival_process if arrival_process is not None else PoissonArrivals(rate=0.25)
    dest = (
        destination_policy
        if destination_policy is not None
        else UniformDestinations(cluster_sizes)
    )
    sizes = size_model if size_model is not None else FixedMessageSize(1024.0)

    total_nodes = sum(cluster_sizes)
    if total_nodes < 2:
        raise ConfigurationError("trace generation needs at least two nodes")
    per_node = max(1, num_messages // total_nodes + 1)
    # Every node's streams in one derivation batch.
    suffixes = ("-arrivals", "-destinations", "-sizes") if stream_layout == "per-family" else ("",)
    streams.streams(
        f"trace-{cluster}-{proc}{suffix}"
        for cluster, size in enumerate(cluster_sizes)
        for proc in range(size)
        for suffix in suffixes
    )

    entries: List[TraceEntry] = []
    for cluster, size in enumerate(cluster_sizes):
        for proc in range(size):
            node = (cluster, proc)
            if stream_layout == "per-family":
                next_interarrival = arrival.sampler(
                    streams.stream(f"trace-{cluster}-{proc}-arrivals")
                )
                choose = dest.chooser(node, streams.stream(f"trace-{cluster}-{proc}-destinations"))
                draw_size = sizes.sampler(streams.stream(f"trace-{cluster}-{proc}-sizes"))
            else:
                rng = streams.stream(f"trace-{cluster}-{proc}")
                next_interarrival, choose, draw_size = _node_draw_callables(
                    node, arrival, dest, sizes, rng
                )
            t = 0.0
            for _ in range(per_node):
                t += next_interarrival()
                entries.append(
                    TraceEntry(
                        time=t,
                        source=node,
                        destination=choose(),
                        size_bytes=draw_size(),
                    )
                )
    entries.sort(key=lambda e: e.time)
    return WorkloadTrace(entries=entries[:num_messages])
