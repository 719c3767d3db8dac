"""Event-loop-free evaluation of fixed open-loop traces.

The virtual-FIFO insight behind :class:`~repro.simulation.components.ServiceCenterSim`
(``depart = max(arrival, previous depart) + service``) means that once a
centre's arrival sequence is known, its departures are a Lindley recurrence
over a plain array — no event loop required.  :func:`replay_trace` exploits
that to evaluate a fixed :class:`~repro.workload.messages.WorkloadTrace`
without the DES kernel.  Every local (single-hop) message's departure is
computed by a vectorized whole-array recurrence (:func:`_fifo_departures`);
the remote three-hop pipeline, whose per-centre arrival order is coupled
through the shared ECN1 centres, runs through a *lean* heap of plain tuples
that reproduces the kernel's ``(time, priority, event-id)`` pop order
exactly.  Service times come from whole-run NumPy pool draws that consume
the identical generator bit streams as the DES's per-message draws, so the
result — per-message latencies included — is ``float.hex()``-exact against
:class:`~repro.simulation.trace_simulator.TraceDrivenSimulator`.

Closed-loop runs have one engine, the flat event loop of
:class:`~repro.simulation.simulator.MultiClusterSimulator`;
:func:`run_vectorized_simulation_task` survives only as a deprecated
delegate to :func:`~repro.simulation.runner.run_simulation_task`.
"""

from __future__ import annotations

import warnings
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.system import MultiClusterSystem
from ..errors import SimulationError
from ..queueing.distributions import Deterministic, Distribution, Exponential
from ..stats.intervals import ConfidenceInterval, batch_means
from ..workload.destinations import DestinationPolicy
from ..workload.messages import WorkloadTrace
from .runner import run_simulation_task
from .simulator import SimulationConfig, SimulationResult
from .trace_simulator import (
    TraceDrivenSimulator,
    TraceSimulationConfig,
    TraceSimulationResult,
)

__all__ = ["replay_trace", "run_vectorized_simulation_task"]


# ---------------------------------------------------------------------------
# The vectorized FIFO recurrence
# ---------------------------------------------------------------------------


def _fifo_departures_scalar(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Reference scalar Lindley recurrence (exact DES arithmetic)."""
    departures = np.empty(len(arrivals))
    next_free = 0.0
    out = departures.tolist()
    for i, (arrival, service) in enumerate(zip(arrivals.tolist(), services.tolist())):
        start = next_free
        if start < arrival:
            start = arrival
        next_free = start + service
        out[i] = next_free
    return np.asarray(out)


def _fifo_departures(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Whole-array FIFO departure times, bit-exact to the scalar recurrence.

    The busy-period *segmentation* is found with a vectorized cummax over
    the arrival-minus-cumulative-service slack; each segment's departures
    are then an ``np.cumsum`` seeded with the segment's opening arrival.
    ``cumsum`` on a 1-D float64 array accumulates sequentially, so within a
    segment the additions associate exactly as the DES's
    ``depart = prev_depart + service`` chain.  Because the cummax slack
    comparison itself regroups additions (and is therefore only *almost*
    always the true segmentation), the boundaries are verified afterwards
    against the computed departures: a restart at ``i`` is valid iff
    ``arrivals[i] >= departures[i-1]`` and a continuation iff
    ``arrivals[i] <= departures[i-1]`` (a tie yields the same float either
    way).  On the rare verification failure the exact scalar recurrence is
    used instead — the fast path is never silently wrong.
    """
    n = arrivals.shape[0]
    if n == 0:
        return np.empty(0)
    prefix = np.empty(n)
    prefix[0] = 0.0
    np.cumsum(services[:-1], out=prefix[1:])
    slack = arrivals - prefix
    peaks = np.maximum.accumulate(slack)
    restart = np.empty(n, dtype=bool)
    restart[0] = True
    # A new busy period starts where the arrival overtakes every earlier
    # departure, i.e. where the slack reaches a new running maximum.
    restart[1:] = slack[1:] >= peaks[:-1]

    departures = np.empty(n)
    starts = np.flatnonzero(restart)
    bounds = np.append(starts, n)
    seg_len = np.diff(bounds)
    single = starts[seg_len == 1]
    departures[single] = arrivals[single] + services[single]
    for seg_start, seg_end in zip(starts[seg_len > 1], bounds[1:][seg_len > 1]):
        chain = np.empty(seg_end - seg_start + 1)
        chain[0] = arrivals[seg_start]
        chain[1:] = services[seg_start:seg_end]
        departures[seg_start:seg_end] = np.cumsum(chain)[1:]

    if n > 1:
        prev = departures[:-1]
        valid = np.where(restart[1:], arrivals[1:] >= prev, arrivals[1:] <= prev)
        if not valid.all():
            return _fifo_departures_scalar(arrivals, services)
    return departures


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------

# Lean-heap event kinds.  Entries are plain ``(time, eid, kind, index)``
# tuples; ``eid`` replicates the DES kernel's event-id counter, so ties in
# time resolve exactly as they do in the event queue.  (Every scheduled
# event of a trace replay is NORMAL priority — the URGENT Initialize events
# pop back-to-back and are folded into their creating pop — so the
# priority column of the kernel's ``(time, priority, eid)`` key is constant
# and can be dropped from the heap tuples.)
_LOCAL_DONE = 1  # precomputed ICN1 departure: local message completes
_HOP1 = 2  # source-ECN1 departure of a remote message
_HOP2 = 3  # ICN2 departure of a remote message
_HOP3 = 4  # destination-ECN1 departure: remote message completes


def _service_pool(
    distribution: Distribution, rng, count: int
) -> Tuple[np.ndarray, List[float]]:
    """Pre-draw a centre's entire service-time sequence in one NumPy call.

    A block draw of ``n`` exponentials consumes the identical generator bit
    stream as ``n`` successive scalar draws (the invariant
    :class:`~repro.des.rng.VariateStream` is built on), so the pool equals
    the sequence the DES would have served.  Returns the array (for the
    vectorized recurrence / busy-time cumsum) and its ``tolist()`` (for the
    scalar hop loop).
    """
    if isinstance(distribution, Exponential):
        pool = rng.rng.exponential(distribution.mean_value, count)
    elif isinstance(distribution, Deterministic):
        pool = np.full(count, float(distribution.value))
    else:  # pragma: no cover - trace configs only build the two above
        pool = np.asarray([distribution.sample(rng) for _ in range(count)])
    return pool, pool.tolist()


def _sequential_sum(pool: np.ndarray) -> float:
    """Left-to-right float sum, matching repeated ``+=`` accumulation."""
    if pool.shape[0] == 0:
        return 0.0
    return float(np.cumsum(pool)[-1])


def replay_trace(
    system: MultiClusterSystem,
    trace: WorkloadTrace,
    config: Optional[TraceSimulationConfig] = None,
) -> TraceSimulationResult:
    """Evaluate a trace replay without running the event loop.

    Takes exactly the inputs of
    :class:`~repro.simulation.trace_simulator.TraceDrivenSimulator` and
    returns a ``float.hex()``-identical
    :class:`~repro.simulation.trace_simulator.TraceSimulationResult` —
    same per-message latencies in the same completion order, same
    batch-means interval, same utilizations and makespan — for every seed,
    architecture and stats mode (the golden-trace suite pins this).
    """
    # Constructing the simulator reuses its validation and centre/stream
    # setup; VariateStreams are lazy, so no random bits are consumed.
    sim = TraceDrivenSimulator(system, trace, config)
    cfg = sim.config
    entries = trace.entries  # read-only view; the trace is never mutated
    n = len(entries)
    num_clusters = len(sim.icn1)

    times = np.asarray([entry.time for entry in entries])
    delays = np.empty(n)
    delays[0] = times[0]
    delays[1:] = np.diff(times)
    if np.any(delays < 0):
        raise SimulationError("trace entries must be sorted by time")
    # Message creation times accumulate exactly as the injector's clock
    # does: the DES advances by ``delay`` per wave, so created_at is the
    # sequential cumsum of deltas, not the raw entry time.
    created = np.cumsum(delays)

    src = np.asarray([entry.source[0] for entry in entries])
    dst = np.asarray([entry.destination[0] for entry in entries])
    is_local = src == dst

    # Per-centre whole-run service pools, in begin (= draw) order.
    icn1_pools: List[np.ndarray] = []
    # Per-message ICN1 departure time (meaningful for local messages only):
    # flattened so the hot loop does one list lookup per local completion.
    ldone_time = np.zeros(n)
    ecn1_pools: List[np.ndarray] = []
    ecn1_serve: List[List[float]] = []
    for c in range(num_clusters):
        local_mask = is_local & (src == c)
        pool, _ = _service_pool(
            sim.icn1[c].service_distribution, sim.icn1[c].rng, int(local_mask.sum())
        )
        icn1_pools.append(pool)
        # Local messages hit their cluster's ICN1 in trace order at their
        # creation times — a fully static arrival sequence, evaluated with
        # the whole-array recurrence.
        ldone_time[local_mask] = _fifo_departures(created[local_mask], pool)
        remote_count = int(((~is_local) & ((src == c) | (dst == c))).sum())
        pool, serve = _service_pool(
            sim.ecn1[c].service_distribution, sim.ecn1[c].rng, remote_count
        )
        ecn1_pools.append(pool)
        ecn1_serve.append(serve)
    remote_total = int((~is_local).sum())
    icn2_pool, icn2_serve = _service_pool(
        sim.icn2.service_distribution, sim.icn2.rng, remote_total
    )

    # Injector waves: a wave is a maximal run of entries at one clock value.
    wave_starts = np.flatnonzero(delays > 0)
    if delays[0] <= 0:
        wave_starts = np.concatenate(([0], wave_starts))
    wave_bounds = np.append(wave_starts, n).tolist()
    num_waves = len(wave_starts)

    created_list = created.tolist()
    src_list = src.tolist()
    dst_list = dst.tolist()
    local_list = is_local.tolist()
    ldone_list = ldone_time.tolist()

    # Mutable per-centre virtual-queue state for the remote pipeline.
    ecn1_next_free = [0.0] * num_clusters
    ecn1_cursor = [0] * num_clusters
    icn2_next_free = 0.0
    icn2_cursor = 0

    heap: List[Tuple[float, int, int, int]] = []
    push = heappush
    pop = heappop

    latencies: List[float] = []
    lat_append = latencies.append
    monitor = sim._monitor  # OnlineMonitor in online mode, else None
    record = None if monitor is None else monitor.record
    now = 0.0

    # Injector wave cursor.  Each wave's timeout heap key is fully known one
    # wave ahead (its event id is assigned while the previous wave is
    # processed) and the timeouts are totally ordered, so instead of flowing
    # through the heap they are merged against its top — the comparison is
    # the kernel's ``(time, priority, eid)`` order with the constant
    # priority dropped.
    eid = 1  # eid 0: the injector process's Initialize event
    next_wave = 0
    next_wave_time = created_list[0]
    if delays[0] > 0:
        next_wave_eid = eid
        eid = 2
    else:
        # No timeout precedes wave 0: the injector begins it directly at its
        # own Initialize pop.  The sentinel id only ever orders against an
        # empty heap, so no real event id is consumed.
        next_wave_eid = 0

    while heap or next_wave >= 0:
        if next_wave >= 0 and (
            not heap
            or next_wave_time < heap[0][0]
            or (next_wave_time == heap[0][0] and next_wave_eid < heap[0][1])
        ):
            at = now = next_wave_time
            start_idx = wave_bounds[next_wave]
            end_idx = wave_bounds[next_wave + 1]
            # The injector first creates one Initialize per same-time entry,
            # then either the next wave's timeout or its own finish event;
            # only the counter order matters for the unscheduled ids, so
            # they are plain increments.
            eid += end_idx - start_idx
            next_wave += 1
            if next_wave < num_waves:
                next_wave_time = created_list[end_idx]
                next_wave_eid = eid
            else:
                next_wave = -1
            eid += 1  # next-wave timeout, or the injector's process-finish
            # The Initializes (URGENT) then pop back-to-back, each consuming
            # one first-hop event id and beginning its message.
            for index in range(start_idx, end_idx):
                hop_eid = eid
                eid += 1
                if local_list[index]:
                    push(heap, (ldone_list[index], hop_eid, _LOCAL_DONE, index))
                else:
                    cluster = src_list[index]
                    start = ecn1_next_free[cluster]
                    if start < at:
                        start = at
                    cursor = ecn1_cursor[cluster]
                    ecn1_cursor[cluster] = cursor + 1
                    depart = start + ecn1_serve[cluster][cursor]
                    ecn1_next_free[cluster] = depart
                    push(heap, (depart, hop_eid, _HOP1, index))
            continue

        at, _, kind, index = pop(heap)
        now = at
        if kind == _HOP1:
            hop_eid = eid
            eid += 1
            start = icn2_next_free
            if start < at:
                start = at
            depart = start + icn2_serve[icn2_cursor]
            icn2_cursor += 1
            icn2_next_free = depart
            push(heap, (depart, hop_eid, _HOP2, index))
        elif kind == _HOP2:
            hop_eid = eid
            eid += 1
            cluster = dst_list[index]
            start = ecn1_next_free[cluster]
            if start < at:
                start = at
            cursor = ecn1_cursor[cluster]
            ecn1_cursor[cluster] = cursor + 1
            depart = start + ecn1_serve[cluster][cursor]
            ecn1_next_free[cluster] = depart
            push(heap, (depart, hop_eid, _HOP3, index))
        else:  # _HOP3 / _LOCAL_DONE: the message completes (as _deliver does)
            if record is None:
                lat_append(at - created_list[index])
            else:
                record(at, at - created_list[index])
            eid += 1  # the delivery process's finish event

    # Result assembly mirrors TraceDrivenSimulator.run() term for term.
    ci: Optional[ConfidenceInterval] = None
    if monitor is None:
        if len(latencies) >= cfg.batch_count:
            ci = batch_means(latencies, num_batches=cfg.batch_count)
        mean_latency = sum(latencies) / len(latencies)
    else:
        if monitor.count >= cfg.batch_count:
            ci = monitor.batch_means_interval(cfg.batch_count)
        mean_latency = monitor.mean()

    now = float(now)
    utilizations: Dict[str, float] = {}
    # Busy time accumulates one += per departure in begin order; the
    # sequential cumsum reproduces that association exactly.  At the end of
    # a replay every admitted message has departed, so the pools are the
    # full busy ledger.
    for c in range(num_clusters):
        busy = _sequential_sum(icn1_pools[c])
        utilizations[f"icn1[{c}]"] = 0.0 if now <= 0 else min(busy / now, 1.0)
    for c in range(num_clusters):
        busy = _sequential_sum(ecn1_pools[c])
        utilizations[f"ecn1[{c}]"] = 0.0 if now <= 0 else min(busy / now, 1.0)
    busy = _sequential_sum(icn2_pool)
    utilizations["icn2"] = 0.0 if now <= 0 else min(busy / now, 1.0)

    # Open-loop replays drain completely: every injected message completes,
    # so the counters are the trace's own totals.
    return TraceSimulationResult(
        mean_latency_s=float(mean_latency),
        confidence_interval=ci,
        completed_messages=n,
        injected_messages=n,
        remote_fraction=remote_total / n,
        makespan_s=now,
        utilizations=utilizations,
    )


def run_vectorized_simulation_task(
    system: MultiClusterSystem,
    config: SimulationConfig,
    destination_policy: Optional[DestinationPolicy] = None,
    arrival_factory=None,
) -> SimulationResult:
    """Deprecated: call :func:`~repro.simulation.runner.run_simulation_task`.

    Every closed-loop workload now runs on the one flat event loop of
    :class:`~repro.simulation.simulator.MultiClusterSimulator`, so this
    delegates with the same arguments and returns the same result.
    """
    warnings.warn(
        "run_vectorized_simulation_task is deprecated; use "
        "repro.simulation.runner.run_simulation_task",
        DeprecationWarning,
        stacklevel=2,
    )
    return run_simulation_task(system, config, destination_policy, arrival_factory)
