"""Building blocks of the validation simulator.

The simulator mirrors the paper's description of its own validation setup
(§6): each processor generates requests with exponentially distributed
inter-arrival times, destinations are uniform over the other nodes, each
message is time-stamped at generation, and the latency is recorded by a
*sink* when the request completes.  Communication networks are
store-and-forward service centres: a FIFO single server whose service time
is exponentially distributed with the mean given by the §5 network models
(this is exactly the M/M/1 assumption of the analytical model).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from ..errors import SimulationError
from ..queueing.distributions import Distribution
from ..rng import VariateGenerator
from ..stats.modes import validate_stats_mode
from ..stats.sinks import Monitor, OnlineMonitor
from .message import Message

__all__ = ["ServiceCenterSim", "LatencySink"]


class ServiceCenterSim:
    """A store-and-forward network as a FIFO single-server queue.

    Parameters
    ----------
    name:
        Service-centre name used in reports (e.g. ``"icn1[3]"``,
        ``"ecn1[0]"``, ``"icn2"``).
    service_distribution:
        Distribution of the per-message service time; the paper uses an
        exponential whose mean is the §5 transmission time.
    rng:
        Independent random stream for this centre's service times.

    Notes
    -----
    The centre is a *virtual* FIFO queue: because a single-server FIFO
    station serves messages in arrival order, each message's departure time
    is fully determined at arrival — ``depart = max(now, previous depart) +
    service_time`` — so :meth:`begin` returns it and the caller schedules
    one departure per visit, then calls :meth:`depart` when it is reached.
    Service times are drawn in arrival order, which for a FIFO queue is
    exactly the grant order of an explicit-resource formulation, so every
    seed reproduces the original per-message latencies bit-for-bit (the
    golden-trace tests assert this).

    Mean occupancy follows from Little's law, which holds exactly on every
    sample path: over ``[0, T]`` the time-average number of messages
    present equals their summed time in the centre divided by ``T``.  A
    departure adds its sojourn to a running sum, and the messages still
    present contribute ``T - arrival`` from the FIFO record of admitted
    messages.
    """

    __slots__ = (
        "name",
        "service_distribution",
        "rng",
        "_sample",
        "_next_free",
        "_in_service",
        "_busy_time",
        "_sojourn",
        "_served",
    )

    def __init__(
        self,
        name: str,
        service_distribution: Distribution,
        rng: VariateGenerator,
    ) -> None:
        self.name = name
        self.service_distribution = service_distribution
        self.rng = rng
        #: Batched per-centre service-time sampler (bit-identical to
        #: per-call ``service_distribution.sample(rng)``).
        self._sample = service_distribution.sampler(rng)
        #: Departure time of the last admitted message (the virtual queue).
        self._next_free = 0.0
        #: (arrival, start, service_time) of admitted-but-not-departed
        #: messages, in FIFO order; keeps ``utilization`` and
        #: ``mean_occupancy`` exact mid-run.
        self._in_service: deque = deque()
        self._busy_time = 0.0
        #: Summed time in the centre of every departed message.
        self._sojourn = 0.0
        self._served = 0

    # -- behaviour ------------------------------------------------------------------

    def begin(self, message: Message, now: float) -> Optional[float]:
        """Admit ``message`` at time ``now`` and return its departure time.

        This is the hot path: it draws the service time and computes the
        departure from the virtual queue.  Per-visit bookkeeping (sojourn,
        served/busy counters) waits for :meth:`depart`.  The always-up
        centre admits every message; a fault-prone centre under the drop
        policy returns ``None`` for a lost message.
        """
        start = self._next_free
        if start < now:
            start = now
        service_time = self._sample()
        depart = start + service_time
        self._next_free = depart
        self._in_service.append((now, start, service_time))
        return depart

    def depart(self, now: float) -> None:
        """Commit the oldest admitted message's departure at time ``now``."""
        arrival, _, service_time = self._in_service.popleft()
        self._busy_time += service_time
        self._sojourn += now - arrival
        self._served += 1

    # -- statistics -----------------------------------------------------------------

    @property
    def served(self) -> int:
        """Number of messages fully served so far."""
        return self._served

    @property
    def busy_time(self) -> float:
        """Cumulative service time of all *departed* messages (seconds)."""
        return self._busy_time

    def utilization(self, now: float) -> float:
        """Fraction of time the server has been busy up to ``now``.

        Counts the full service time of every message whose service has
        *started* by ``now`` (matching the explicit-resource formulation,
        which committed the service time at grant), capped at 1.
        """
        if now <= 0:
            return 0.0
        busy = self._busy_time
        for _, start, service_time in self._in_service:
            if start > now:
                break
            busy += service_time
        return min(busy / now, 1.0)

    def mean_occupancy(self, now: float) -> float:
        """Time-average number of messages at the centre (queue + service).

        Little's law over ``[0, now]``: the summed sojourn of the departed
        messages plus the time each message still present has spent so
        far, divided by ``now``.  Like :meth:`utilization`, 0.0 before
        time advances.
        """
        if now <= 0:
            return 0.0
        # A loop, not sum(): Python 3.12's sum() compensates float rounding,
        # which would make the result depend on the interpreter version.
        present = 0.0
        for arrival, _, _ in self._in_service:
            present += now - arrival
        return (self._sojourn + present) / now

    def __repr__(self) -> str:
        return f"<ServiceCenterSim {self.name!r} served={self._served}>"


class LatencySink:
    """Collects completed messages and counts them against the run's target.

    The latency monitors are pluggable :class:`repro.stats.sinks.StatsSink`
    implementations selected by ``stats_mode``:

    * ``"array"`` (default) — array-backed :class:`~repro.stats.sinks.Monitor`
      objects plus retention of every completed :class:`Message` (needed for
      per-message traces and exact percentiles); O(n) memory, bit-identical
      to all earlier releases.
    * ``"online"`` — bounded-memory :class:`~repro.stats.sinks.OnlineMonitor`
      accumulators; completed messages are **not** retained.
    """

    __slots__ = (
        "target_messages",
        "warmup_messages",
        "stats_mode",
        "keep_messages",
        "latencies",
        "local_latencies",
        "remote_latencies",
        "completed",
        "messages",
    )

    def __init__(
        self,
        target_messages: int,
        warmup_messages: int = 0,
        stats_mode: str = "array",
        histogram_range=None,
    ) -> None:
        if target_messages < 1:
            raise SimulationError(f"target_messages must be >= 1, got {target_messages!r}")
        if warmup_messages < 0 or warmup_messages >= target_messages:
            raise SimulationError(
                "warmup_messages must be non-negative and smaller than target_messages"
            )
        validate_stats_mode(stats_mode)
        if histogram_range is not None and stats_mode != "online":
            raise SimulationError(
                "histogram_range only applies to the online sink, "
                f"got stats_mode={stats_mode!r}"
            )
        self.target_messages = target_messages
        self.warmup_messages = warmup_messages
        self.stats_mode = stats_mode
        if stats_mode == "array":
            self.keep_messages = True
            self.latencies = Monitor("latency")
            self.local_latencies = Monitor("latency.local")
            self.remote_latencies = Monitor("latency.remote")
        else:
            self.keep_messages = False
            self.latencies = OnlineMonitor("latency", histogram_range=histogram_range)
            # The split sinks only ever report means; skip the histograms.
            self.local_latencies = OnlineMonitor("latency.local", track_quantiles=False)
            self.remote_latencies = OnlineMonitor("latency.remote", track_quantiles=False)
        self.completed: int = 0
        self.messages: List[Message] = []

    def record(self, message: Message) -> None:
        """Register a completed message (called by the simulator's loop)."""
        completed_at = message.completed_at
        if completed_at is None:
            raise SimulationError(f"message {message.ident} recorded before completion")
        self.completed += 1
        if self.completed > self.warmup_messages:
            latency = completed_at - message.created_at
            self.latencies.record(completed_at, latency)
            if message.source[0] != message.destination[0]:
                self.remote_latencies.record(completed_at, latency)
            else:
                self.local_latencies.record(completed_at, latency)
            if self.keep_messages:
                self.messages.append(message)

    @property
    def measured(self) -> int:
        """Number of messages recorded after the warm-up cut."""
        return self.latencies.count

    def __repr__(self) -> str:
        return f"<LatencySink completed={self.completed}/{self.target_messages}>"
