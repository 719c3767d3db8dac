"""The multi-cluster validation simulator (paper §6).

The simulator reproduces the paper's validation methodology:

* every processor independently generates requests with exponentially
  distributed inter-arrival times (mean 1/λ),
* destinations are chosen uniformly over all other nodes,
* a *local* request is served by the source cluster's ICN1; a *remote*
  request crosses the source ECN1, the ICN2 and the destination ECN1,
* every network is a FIFO store-and-forward server with exponentially
  distributed service time whose mean comes from the §5 network models,
* a processor is blocked while its request is outstanding (assumption 4),
* each message is time-stamped at generation and its latency recorded at a
  sink; a run ends after a configured number of completed messages
  (10 000 in the paper).

Unlike the closed-form analysis, the simulator accepts *any*
:class:`~repro.cluster.system.MultiClusterSystem`, including unequal
Cluster-of-Clusters configurations, which is how the heterogeneous model
extension is validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop
from numbers import Integral
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.system import MultiClusterSystem
from ..des.core import Environment
from ..des.events import Timeout
from ..des.rng import RandomStreams
from ..errors import ConfigurationError, SimulationError
from ..network.models import build_network_model
from ..queueing.distributions import Deterministic, Distribution, Exponential
from ..stats.intervals import ConfidenceInterval
from ..stats.sinks import STATS_MODES, validate_histogram_range
from ..workload.arrivals import ArrivalProcess
from ..workload.destinations import DestinationPolicy, UniformDestinations
from .components import LatencySink, ServiceCenterSim
from .faults import FaultInjector, FaultSchedule, FaultSpec, FaultyServiceCenterSim
from .message import Message

#: Signature of the optional per-processor arrival-process factory: it maps
#: the processor's (speed-scaled) request rate to an :class:`ArrivalProcess`.
ArrivalFactory = Callable[[float], ArrivalProcess]

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "MultiClusterSimulator",
]

# Kinds of the closed loop's events; each event's value is
# ``(kind, processor index, message or None)``.
_THINK = 0  # a think time ended: the source sends its next request
_SEND = 1  # a churned source was repaired: it sends without re-checking
_HOP1 = 2  # source-ECN1 departure of a remote message
_HOP2 = 3  # ICN2 departure of a remote message
_DONE = 4  # last departure (ICN1 or destination ECN1): the message completes


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulation run.

    Parameters
    ----------
    architecture:
        ``"non-blocking"`` or ``"blocking"`` (applied to all networks).
    message_bytes:
        Fixed message length M in bytes.
    generation_rate:
        Per-processor request rate λ (messages/second) while active.
    num_messages:
        Number of completed messages after which the run stops (the paper
        gathers 10 000).
    warmup_fraction:
        Fraction of ``num_messages`` discarded as warm-up before statistics
        are collected.
    seed:
        Master seed for all random streams.
    exponential_service:
        ``True`` reproduces the paper's exponential service assumption;
        ``False`` uses deterministic service times equal to the mean (an
        ablation of the M/M/1 assumption).
    batch_count:
        Number of batches for the batch-means confidence interval.
    stats_mode:
        Observation-sink strategy (:data:`repro.stats.sinks.STATS_MODES`):
        ``"array"`` retains every sample and message (bit-identical legacy
        behaviour, exact percentiles, per-message traces); ``"online"``
        streams everything through bounded-memory accumulators so run
        length is bounded by CPU rather than RAM.
    histogram_range:
        Optional explicit ``(low, high)`` range (seconds) of the online
        sink's quantile histogram.  Fixing the range up front skips
        auto-calibration and makes online-mode histograms *mergeable*
        across backend shards (auto-calibrated ranges are data-dependent,
        so two shards would bin differently).  Only meaningful with
        ``stats_mode="online"`` — the array sink keeps every sample and
        needs no histogram, so combining it with ``stats_mode="array"``
        raises a :class:`~repro.errors.ConfigurationError`.
    failures:
        Optional :class:`~repro.simulation.faults.FaultSpec` (or its JSON
        mapping) attaching seeded failure/repair schedules to links and/or
        nodes.  ``None`` (the default) keeps the always-up model and draws
        from exactly the same streams as every earlier release.
    """

    architecture: str = "non-blocking"
    message_bytes: float = 1024.0
    generation_rate: float = 0.25
    num_messages: int = 10_000
    warmup_fraction: float = 0.1
    seed: int = 0
    exponential_service: bool = True
    batch_count: int = 20
    stats_mode: str = "array"
    histogram_range: Optional[Tuple[float, float]] = None
    failures: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        # NaN fails every comparison, so these also reject NaN; a NaN rate
        # or size would otherwise never let the run finish.
        if not 0 < self.message_bytes < math.inf:
            raise ConfigurationError(
                f"message size must be positive and finite, got {self.message_bytes!r}"
            )
        if not 0 < self.generation_rate < math.inf:
            raise ConfigurationError(
                f"generation rate must be positive and finite, got {self.generation_rate!r}"
            )
        if self.num_messages < 1:
            raise ConfigurationError(f"num_messages must be >= 1, got {self.num_messages!r}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction!r}"
            )
        if self.batch_count < 2:
            raise ConfigurationError(f"batch_count must be >= 2, got {self.batch_count!r}")
        # A float, bool or str seed would run as int(seed) while the result
        # reports the original value; a negative one fails deep in NumPy.
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed!r}")
        if self.stats_mode not in STATS_MODES:
            raise ConfigurationError(
                f"stats_mode must be one of {STATS_MODES}, got {self.stats_mode!r}"
            )
        if self.histogram_range is not None:
            try:
                object.__setattr__(
                    self, "histogram_range", validate_histogram_range(self.histogram_range)
                )
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
            if self.stats_mode != "online":
                raise ConfigurationError(
                    "histogram_range only applies to the online sink's quantile "
                    "histogram; it cannot be combined with stats_mode="
                    f"{self.stats_mode!r} (use stats_mode='online')"
                )
        if self.failures is not None and not isinstance(self.failures, FaultSpec):
            object.__setattr__(self, "failures", FaultSpec.from_json(self.failures))


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulation run.

    ``latency_summary`` carries count/mean/std/min/max/p50/p95/p99 of the
    post-warm-up latency stream (seconds).  Count, min and max are exact in
    both stats modes; in ``online`` mode the percentiles are histogram
    estimates at the sink's documented resolution.
    """

    mean_latency_s: float
    confidence_interval: Optional[ConfidenceInterval]
    mean_local_latency_s: float
    mean_remote_latency_s: float
    measured_messages: int
    completed_messages: int
    remote_fraction: float
    simulated_time_s: float
    utilizations: Dict[str, float]
    mean_occupancies: Dict[str, float]
    seed: int
    stats_mode: str = "array"
    latency_summary: Optional[Dict[str, float]] = None
    #: Per-target availability over the run (``None`` unless faults were on).
    availability: Optional[Dict[str, float]] = None
    #: Messages lost to the ``"drop"`` fault policy.
    dropped_messages: int = 0

    @property
    def mean_latency_ms(self) -> float:
        """Mean message latency in milliseconds (the figures' unit)."""
        return self.mean_latency_s * 1e3

    @property
    def mean_availability(self) -> Optional[float]:
        """Unweighted mean availability across fault targets (``None`` without faults)."""
        if not self.availability:
            return None
        return sum(self.availability.values()) / len(self.availability)

    @property
    def throughput_msg_s(self) -> float:
        """Completed messages per simulated second (degraded under faults)."""
        if self.simulated_time_s <= 0:
            return 0.0
        return self.completed_messages / self.simulated_time_s

    def as_dict(self) -> Dict[str, float]:
        """Headline metrics as a flat dictionary.

        The fault columns (availability, throughput, drops) only appear on
        fault-enabled runs so fixtures of the always-up model keep their
        historical byte-exact shape.
        """
        out = {
            "mean_latency_ms": self.mean_latency_ms,
            "mean_local_latency_ms": self.mean_local_latency_s * 1e3,
            "mean_remote_latency_ms": self.mean_remote_latency_s * 1e3,
            "measured_messages": float(self.measured_messages),
            "remote_fraction": self.remote_fraction,
            "simulated_time_s": self.simulated_time_s,
        }
        if self.confidence_interval is not None:
            out["ci_half_width_ms"] = self.confidence_interval.half_width * 1e3
        if self.availability is not None:
            out["availability"] = self.mean_availability or 0.0
            out["throughput_msg_s"] = self.throughput_msg_s
            out["dropped_messages"] = float(self.dropped_messages)
        return out


class MultiClusterSimulator:
    """Discrete-event simulator of an HMSCS system."""

    def __init__(
        self,
        system: MultiClusterSystem,
        config: Optional[SimulationConfig] = None,
        destination_policy: Optional[DestinationPolicy] = None,
        arrival_factory: Optional[ArrivalFactory] = None,
    ) -> None:
        self.system = system
        self.config = config if config is not None else SimulationConfig()
        self.cluster_sizes = [c.num_processors for c in system.clusters]
        if sum(self.cluster_sizes) < 2:
            raise ConfigurationError("simulation needs at least two processors")
        self.destination_policy = (
            destination_policy
            if destination_policy is not None
            else UniformDestinations(self.cluster_sizes)
        )
        # None keeps the paper's Poisson arrivals on the historical batched
        # exponential stream (bit-identical to every earlier release); a
        # factory is called once per processor with its scaled rate so
        # stateful processes (e.g. MMPP) never share state across sources.
        self.arrival_factory = arrival_factory
        self._streams = RandomStreams(self.config.seed)
        # Fault schedules draw from their own "fault-*" named streams, so a
        # run with failures=None is bit-identical to every earlier release.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self.config.failures, self._streams)
            if self.config.failures is not None
            else None
        )

        self.env = Environment()
        self._build_service_centers()
        warmup = int(self.config.num_messages * self.config.warmup_fraction)
        self.sink = LatencySink(
            self.env,
            self.config.num_messages,
            warmup,
            stats_mode=self.config.stats_mode,
            batch_count=self.config.batch_count,
            histogram_range=self.config.histogram_range,
        )

    # -- construction -----------------------------------------------------------------

    def _service_distribution(self, mean: float) -> Distribution:
        if self.config.exponential_service:
            return Exponential(mean)
        return Deterministic(mean)

    def _make_center(self, name: str, mean_service: float, stream_name: str) -> ServiceCenterSim:
        """One service centre, fault-wrapped when link faults are enabled."""
        distribution = self._service_distribution(mean_service)
        rng = self._streams.stream(stream_name)
        if self.faults is not None and self.faults.spec.on_links:
            return FaultyServiceCenterSim(
                self.env,
                name,
                distribution,
                rng,
                schedule=self.faults.link_schedule(name),
                policy=self.faults.spec.policy,
            )
        return ServiceCenterSim(self.env, name, distribution, rng)

    def _build_service_centers(self) -> None:
        cfg = self.config
        switch = self.system.switch
        m = cfg.message_bytes

        self.icn1: List[ServiceCenterSim] = []
        self.ecn1: List[ServiceCenterSim] = []
        for idx, cluster in enumerate(self.system.clusters):
            icn_model = build_network_model(
                cfg.architecture, cluster.icn_technology, switch, cluster.num_processors
            )
            ecn_model = build_network_model(
                cfg.architecture, cluster.ecn_technology, switch, cluster.num_processors
            )
            self.icn1.append(
                self._make_center(
                    f"icn1[{idx}]", icn_model.service_time(m), f"service-icn1-{idx}"
                )
            )
            self.ecn1.append(
                self._make_center(
                    f"ecn1[{idx}]", ecn_model.service_time(m), f"service-ecn1-{idx}"
                )
            )
        icn2_model = build_network_model(
            cfg.architecture,
            self.system.icn2_technology,
            switch,
            max(self.system.num_clusters, 1),
        )
        self.icn2 = self._make_center("icn2", icn2_model.service_time(m), "service-icn2")

    # -- running -----------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run until the configured number of messages has completed.

        Every processor is a closed-loop source: it thinks (draws an
        inter-arrival time), sends one request — through its cluster's
        ICN1, or source ECN1 -> ICN2 -> destination ECN1 — and blocks until
        the request completes (assumption 4).  One flat loop pops the
        environment's event queue and plays every source's part.  Each
        event is created with its ``(kind, processor, message)`` hop state
        as its value, so no per-source coroutine is needed.

        Same-instant ordering contract:

        * events at one instant run in the order they were created (the
          kernel's ``(time, priority, event id)`` heap key; every event here
          has NORMAL priority);
        * a departure's centre bookkeeping runs before the message is
          admitted to its next hop;
        * a completion is recorded, and may trigger the stop event, before
          the source draws its next think time — so the run stops ahead of
          any event created after the completion at that instant.

        Before the loop, each source consumes the one event id a kernel
        process's start event takes, so event ids, and with them every tie,
        match the golden fixtures bit for bit.

        With faults on, a source whose node is down waits for its repair
        before sending, and under the ``"drop"`` policy a message addressed
        to a down node, or arriving at a down centre, is lost and counted;
        its source then starts its next think time.
        """
        env = self.env
        config = self.config
        queue = env._queue
        # Read at run time: run_message_trace_task swaps the sink in after
        # construction.
        sink = self.sink
        done = sink.done
        record = sink.record
        icn1 = self.icn1
        ecn1 = self.ecn1
        icn2 = self.icn2
        message_bytes = config.message_bytes
        faults = self.faults
        on_nodes = faults is not None and faults.spec.on_nodes
        drop_on_nodes = on_nodes and faults.spec.policy == "drop"

        sources: List[Tuple[int, int]] = []
        think: List[Callable[[], float]] = []
        choosers: List[Callable[[], Tuple[int, int]]] = []
        churn: List[Optional[FaultSchedule]] = []
        next_eid = env._eid.__next__
        for cluster_idx, cluster in enumerate(self.system.clusters):
            rate = cluster.processor_type.scaled_rate(config.generation_rate)
            for proc_idx in range(cluster.num_processors):
                next_eid()  # the source's process start event
                source = (cluster_idx, proc_idx)
                arrival_rng = self._streams.stream(f"arrivals-{cluster_idx}-{proc_idx}")
                dest_rng = self._streams.stream(f"destination-{cluster_idx}-{proc_idx}")
                if self.arrival_factory is None:
                    think.append(arrival_rng.exponential_rate_stream(rate))
                else:
                    # The stream's sole consumer is this sampler, so batched
                    # processes stay bit-identical to their scalar draws.
                    think.append(self.arrival_factory(rate).sampler(arrival_rng))
                choosers.append(self.destination_policy.chooser(source, dest_rng))
                churn.append(faults.node_schedule(*source) if on_nodes else None)
                sources.append(source)
        for proc, draw in enumerate(think):
            Timeout(env, draw(), (_THINK, proc, None))

        ident = 0
        while True:
            at, _, _, event = heappop(queue)
            env._now = at
            if event is done:
                done.callbacks = None  # processed, as the kernel marks it
                break
            kind, proc, message = event._value
            if kind == _DONE:
                event.callbacks[0](event)  # the centre's departure bookkeeping
                message.completed_at = at
                record(message)
                Timeout(env, think[proc](), (_THINK, proc, None))
                continue
            if kind == _HOP1:
                event.callbacks[0](event)
                hop = icn2.begin(message, (_HOP2, proc, message))
            elif kind == _HOP2:
                event.callbacks[0](event)
                hop = ecn1[message.destination[0]].begin(message, (_DONE, proc, message))
            else:
                if on_nodes and kind == _THINK:
                    up = churn[proc].next_up(at)
                    if up > at:
                        # Churn: a down node generates nothing until repaired.
                        Timeout(env, up - at, (_SEND, proc, None))
                        continue
                source = sources[proc]
                destination = choosers[proc]()
                if (
                    drop_on_nodes
                    and destination != source
                    and faults.node_schedule(*destination).is_down(at)
                ):
                    faults.node_dropped += 1
                    Timeout(env, think[proc](), (_THINK, proc, None))
                    continue
                message = Message(
                    ident=ident,
                    source=source,
                    destination=destination,
                    size_bytes=message_bytes,
                    created_at=at,
                )
                ident += 1
                if destination[0] == source[0]:
                    hop = icn1[source[0]].begin(message, (_DONE, proc, message))
                else:
                    hop = ecn1[source[0]].begin(message, (_HOP1, proc, message))
            if hop is None:  # the drop policy lost the message at a down centre
                Timeout(env, think[proc](), (_THINK, proc, None))

        return self._collect_result()

    def _collect_result(self) -> SimulationResult:
        """Fold the finished run's sink and service centres into a result."""
        sink = self.sink
        config = self.config
        now = self.env.now
        if sink.measured == 0:
            raise SimulationError("simulation finished without measuring any messages")

        # Both sink implementations expose the StatsSink protocol; in array
        # mode batch_means_interval delegates to the historical batch_means
        # call on the full value array, keeping the result bit-identical.
        ci: Optional[ConfidenceInterval] = None
        if sink.latencies.count >= config.batch_count:
            ci = sink.latencies.batch_means_interval(config.batch_count)

        remote_count = sink.remote_latencies.count
        measured = sink.measured

        # Dict insertion order ([*icn1, *ecn1, icn2]) is part of the golden
        # fixtures.
        centers = [*self.icn1, *self.ecn1, self.icn2]
        utilizations: Dict[str, float] = {}
        occupancies: Dict[str, float] = {}
        for center in centers:
            utilizations[center.name] = center.utilization(now)
            occupancies[center.name] = center.mean_occupancy(now)

        availability: Optional[Dict[str, float]] = None
        dropped = 0
        if self.faults is not None:
            availability = self.faults.availability(now)
            dropped = self.faults.node_dropped
            for center in centers:
                if isinstance(center, FaultyServiceCenterSim):
                    dropped += center.dropped

        return SimulationResult(
            mean_latency_s=sink.latencies.mean(),
            confidence_interval=ci,
            mean_local_latency_s=(
                sink.local_latencies.mean() if sink.local_latencies.count else 0.0
            ),
            mean_remote_latency_s=(
                sink.remote_latencies.mean() if sink.remote_latencies.count else 0.0
            ),
            measured_messages=measured,
            completed_messages=sink.completed,
            remote_fraction=remote_count / measured if measured else 0.0,
            simulated_time_s=now,
            utilizations=utilizations,
            mean_occupancies=occupancies,
            seed=config.seed,
            stats_mode=config.stats_mode,
            latency_summary=sink.latencies.summary(),
            availability=availability,
            dropped_messages=dropped,
        )
