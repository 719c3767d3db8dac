"""Deterministic failure/repair processes for the validation simulator.

The paper's model assumes always-up nodes and links; real multicluster
systems (DAS-2, LLNL) lose nodes to churn and links to outages.  This
module adds a *seeded* fault layer in the machine-repairman tradition:
every fault target alternates between up intervals (time-to-failure drawn
from an exponential or Weibull distribution) and down intervals (repair
time drawn from its own distribution).  Each target's schedule is derived
lazily from a dedicated named stream of the run's
:class:`~repro.rng.RandomStreams`, so

* the schedule is a pure function of the master seed (bit-identical across
  serial/pool/socket backends and across reruns), and
* a run *without* faults draws from exactly the same streams as before the
  fault layer existed — golden fixtures stay byte-identical.

Two policies govern what a failure does to traffic:

* ``"stall"`` — preemptive-resume: a failed service centre pauses work and
  resumes it on repair, so messages queue up and failure-induced latency
  shows up in the latency monitors (the classic machine-repairman view);
* ``"drop"`` — a message arriving at a down centre (or addressed to a down
  node) is lost and counted; the closed-loop source simply starts its next
  think time.

Availability per target, total dropped messages and degraded throughput
become monitored outputs of :class:`~repro.simulation.results.SimulationResult`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..rng import RandomStreams, VariateGenerator
from .components import ServiceCenterSim
from .fault_spec import FAULT_POLICIES, FaultSpec
from .message import Message

__all__ = [
    "FaultSchedule",
    "FaultInjector",
    "FaultyServiceCenterSim",
]


def _make_sampler(
    distribution: str, shape: float, mean: float, rng: VariateGenerator
) -> Callable[[], float]:
    if distribution == "exponential":
        return lambda: rng.exponential(mean)
    if distribution == "weibull":
        return lambda: rng.weibull(shape, mean)
    return lambda: mean  # deterministic


class FaultSchedule:
    """Lazily generated alternating up/down timeline of one fault target.

    The target starts *up* at t=0; down intervals ``[fail, repair_end)``
    are appended on demand by alternating time-to-failure and repair draws
    from the target's dedicated stream.  Because generation is demand-driven
    and strictly append-only, any query sequence produces the same timeline
    for a given seed, and post-run queries never perturb results.
    """

    __slots__ = ("_ttf", "_repair", "_starts", "_ends", "_clock")

    def __init__(self, ttf: Callable[[], float], repair: Callable[[], float]) -> None:
        self._ttf = ttf
        self._repair = repair
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._clock = 0.0  # end of the generated timeline (last repair end)

    def _ensure(self, horizon: float) -> None:
        """Generate down intervals until the timeline covers ``horizon``."""
        while self._clock <= horizon:
            fail = self._clock + self._ttf()
            end = fail + self._repair()
            self._starts.append(fail)
            self._ends.append(end)
            self._clock = end

    def is_down(self, t: float) -> bool:
        """Whether the target is failed at time ``t``."""
        self._ensure(t)
        idx = bisect_right(self._starts, t) - 1
        return idx >= 0 and t < self._ends[idx]

    def next_up(self, t: float) -> float:
        """Earliest time >= ``t`` at which the target is up."""
        self._ensure(t)
        idx = bisect_right(self._starts, t) - 1
        if idx >= 0 and t < self._ends[idx]:
            return self._ends[idx]
        return t

    def finish(self, start: float, work: float) -> float:
        """Completion time of ``work`` seconds started at ``start``.

        Preemptive-resume semantics: work pauses during down intervals and
        resumes on repair, so the answer is ``start + work`` plus every
        outage overlapping the (stretched) busy period.
        """
        if work < 0:
            raise ValueError(f"work must be non-negative, got {work!r}")
        t = start
        remaining = work
        while True:
            self._ensure(t + remaining)
            idx = bisect_right(self._starts, t) - 1
            if idx >= 0 and t < self._ends[idx]:
                t = self._ends[idx]  # started inside an outage: wait it out
                continue
            nxt = idx + 1  # first down interval strictly after t
            if nxt >= len(self._starts) or t + remaining <= self._starts[nxt]:
                return t + remaining
            remaining -= self._starts[nxt] - t
            t = self._ends[nxt]

    def downtime(self, horizon: float) -> float:
        """Total failed time within ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        self._ensure(horizon)
        total = 0.0
        for start, end in zip(self._starts, self._ends):
            if start >= horizon:
                break
            total += min(end, horizon) - start
        return total

    def availability(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` the target was up (1.0 for horizon<=0)."""
        if horizon <= 0:
            return 1.0
        return 1.0 - self.downtime(horizon) / horizon

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultSchedule intervals={len(self._starts)} clock={self._clock:.3f}>"


class FaultyServiceCenterSim(ServiceCenterSim):
    """A service centre subject to a failure/repair schedule.

    With the ``"stall"`` policy the virtual-FIFO recurrence stretches
    deterministically around outages: a message's departure is
    ``finish(max(now, next_free), service_time)``, so queued work resumes
    on repair in arrival order and the per-visit bookkeeping charges the
    full occupied span (service + overlapped downtime).  With ``"drop"``
    admission is gated instead: :meth:`begin` loses messages that arrive
    while the centre is down (returning ``None``) and service itself is
    undisturbed.
    """

    __slots__ = ("schedule", "policy", "dropped")

    def __init__(self, *args, schedule: FaultSchedule, policy: str, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if policy not in FAULT_POLICIES:
            raise ConfigurationError(f"policy must be one of {FAULT_POLICIES}, got {policy!r}")
        self.schedule = schedule
        self.policy = policy
        self.dropped = 0

    def begin(self, message: Message, now: float) -> Optional[float]:
        """Admit ``message``, or return ``None`` if the drop policy loses it."""
        if self.policy != "stall":
            if self.schedule.is_down(now):
                self.dropped += 1
                return None
            return super().begin(message, now)
        start = self._next_free
        if start < now:
            start = now
        service_time = self._sample()
        depart = self.schedule.finish(start, service_time)
        self._next_free = depart
        # Charge the occupied span (service + overlapped downtime) so
        # utilization reflects the degraded server.
        self._in_service.append((now, start, depart - start))
        return depart


class FaultInjector:
    """Owns every fault schedule of one simulation run.

    Schedules are created eagerly (one per target) but *drawn* lazily; each
    target uses its own ``fault-<target>`` named stream so the fault layer
    never touches the arrival/service/destination streams.
    """

    __slots__ = ("spec", "node_schedules", "node_dropped", "_link_schedules", "_streams")

    def __init__(self, spec: FaultSpec, streams: RandomStreams) -> None:
        self.spec = spec
        self._streams = streams
        self._link_schedules: Dict[str, FaultSchedule] = {}
        self.node_schedules: Dict[Tuple[int, int], FaultSchedule] = {}
        self.node_dropped = 0

    def stream_names(
        self, center_names: Iterable[str], nodes: Iterable[Tuple[int, int]]
    ) -> List[str]:
        """The streams this run's schedules draw from, for one derivation batch."""
        names = [f"fault-{name}" for name in center_names] if self.spec.on_links else []
        if self.spec.on_nodes:
            names += (f"fault-node-{cluster_idx}-{proc_idx}" for cluster_idx, proc_idx in nodes)
        return names

    def _schedule(self, stream_name: str) -> FaultSchedule:
        spec = self.spec
        rng = self._streams.stream(stream_name)
        # ttf and repair alternate draws on the one per-target stream, which
        # is exactly the order the schedule consumes them in.
        ttf = _make_sampler(spec.failure_distribution, spec.failure_shape, spec.mtbf_s, rng)
        repair = _make_sampler(spec.repair_distribution, spec.repair_shape, spec.mttr_s, rng)
        return FaultSchedule(ttf, repair)

    def link_schedule(self, center_name: str) -> FaultSchedule:
        """The (memoised) schedule of the service centre ``center_name``."""
        schedule = self._link_schedules.get(center_name)
        if schedule is None:
            schedule = self._schedule(f"fault-{center_name}")
            self._link_schedules[center_name] = schedule
        return schedule

    def node_schedule(self, cluster_idx: int, proc_idx: int) -> FaultSchedule:
        """The (memoised) churn schedule of processor ``(cluster, proc)``."""
        key = (cluster_idx, proc_idx)
        schedule = self.node_schedules.get(key)
        if schedule is None:
            schedule = self._schedule(f"fault-node-{cluster_idx}-{proc_idx}")
            self.node_schedules[key] = schedule
        return schedule

    def monitored(self) -> Iterator[Tuple[str, FaultSchedule]]:
        """Every (name, schedule) pair instantiated for this run."""
        yield from self._link_schedules.items()
        for (cluster_idx, proc_idx), schedule in self.node_schedules.items():
            yield f"node[{cluster_idx}][{proc_idx}]", schedule

    def availability(self, horizon: float) -> Dict[str, float]:
        """Per-target availability over ``[0, horizon]``."""
        return {name: schedule.availability(horizon) for name, schedule in self.monitored()}
