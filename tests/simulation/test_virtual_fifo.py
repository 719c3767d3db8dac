"""Property tests of the service centres' virtual-FIFO contract.

A centre computes each departure when the message arrives, from the
previous departure alone.  These properties offer one centre messages at
random instants (ties included), commit its departures in time order from
a heap, then check every departure against the recursion evaluated on
service draws from a twin stream:

* an always-up centre follows Lindley's recursion
  ``d_i = max(d_{i-1}, a_i) + s_i``;
* the stall policy stretches it around outages,
  ``d_i = finish(max(d_{i-1}, a_i), s_i)``;
* the drop policy admits exactly the arrivals while the centre is up, and
  the admitted messages follow Lindley;
* every centre's Little's-law occupancy equals the time average of its
  level, integrated step by step, both mid-run and once it has drained.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import accumulate, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.distributions import Deterministic, Exponential
from repro.rng import RandomStreams
from repro.simulation.components import ServiceCenterSim
from repro.simulation.faults import FaultSchedule, FaultyServiceCenterSim
from repro.simulation.message import Message

SERVICE = {"exponential": Exponential(0.7), "deterministic": Deterministic(0.7)}

arrival_times = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)), min_size=1, max_size=30
).map(lambda gaps: list(accumulate(gaps)))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
services = st.sampled_from(sorted(SERVICE))


def service_draws(seed, service):
    """A twin of the centre's service-time sampler."""
    return SERVICE[service].sampler(RandomStreams(seed).stream("svc"))


def fault_schedule(seed):
    """Outages of mean 0.5 after up times of mean 2.0, from the seed's fault stream."""
    rng = RandomStreams(seed).stream("fault")
    return FaultSchedule(lambda: rng.exponential(2.0), lambda: rng.exponential(0.5))


def make_center(kind, seed, service):
    """An always-up (``"plain"``), ``"stall"`` or ``"drop"`` centre."""
    rng = RandomStreams(seed).stream("svc")
    if kind == "plain":
        return ServiceCenterSim("icn1[0]", SERVICE[service], rng)
    return FaultyServiceCenterSim(
        "icn1[0]", SERVICE[service], rng, schedule=fault_schedule(seed), policy=kind
    )


def drive(center, arrivals, until=math.inf):
    """Offer one message per arrival time; return admissions and departures.

    Arrivals and departures share one heap keyed ``(time, id)``, as in the
    simulator's loop, so an arrival runs before a departure at the same
    instant.  Entries after ``until`` are left unrun.  ``departures`` lists
    ``(ident, time)`` in the order the departures were committed.
    """
    ids = count()
    # Sorted by (time, id), so already a heap.
    heap = [(at, next(ids), ident, True) for ident, at in enumerate(arrivals)]
    admitted = []
    departures = []
    while heap and heap[0][0] <= until:
        now, _, ident, arriving = heappop(heap)
        if not arriving:
            center.depart(now)
            departures.append((ident, now))
            continue
        depart = center.begin(Message(ident, (0, 0), (0, 1), 1024.0, now), now)
        admitted.append(depart is not None)
        if depart is not None:
            heappush(heap, (depart, next(ids), ident, False))
    return admitted, departures


def lindley(arrivals, draw, finish=lambda start, work: start + work):
    """Departure times of a FIFO single server, and the service times drawn."""
    departures, work = [], []
    previous = 0.0
    for at in arrivals:
        service_time = draw()
        previous = finish(max(previous, at), service_time)
        departures.append(previous)
        work.append(service_time)
    return departures, work


@given(arrivals=arrival_times, seed=seeds, service=services)
@settings(max_examples=80, deadline=None)
def test_service_center_follows_lindley(arrivals, seed, service):
    center = make_center("plain", seed, service)
    _, departures = drive(center, arrivals)

    expected, work = lindley(arrivals, service_draws(seed, service))
    assert departures == list(enumerate(expected))
    busy = 0.0
    for service_time in work:
        busy += service_time
    horizon = expected[-1]
    assert center.served == len(arrivals)
    assert center.busy_time == busy
    assert center.utilization(horizon) == min(busy / horizon, 1.0)
    # Little's law: the time-average occupancy is the summed sojourn per unit time.
    sojourn = sum(d - a for d, a in zip(expected, arrivals))
    assert center.mean_occupancy(horizon) == pytest.approx(sojourn / horizon, rel=1e-9)


@given(arrivals=arrival_times, seed=seeds, service=services)
@settings(max_examples=80, deadline=None)
def test_stall_policy_follows_stretched_recursion(arrivals, seed, service):
    center = make_center("stall", seed, service)
    admitted, departures = drive(center, arrivals)

    expected, _ = lindley(arrivals, service_draws(seed, service), fault_schedule(seed).finish)
    assert all(admitted)
    assert center.dropped == 0
    assert departures == list(enumerate(expected))


@given(arrivals=arrival_times, seed=seeds, service=services)
@settings(max_examples=80, deadline=None)
def test_drop_policy_admits_exactly_the_arrivals_while_up(arrivals, seed, service):
    center = make_center("drop", seed, service)
    admitted, departures = drive(center, arrivals)

    twin = fault_schedule(seed)
    up = [not twin.is_down(at) for at in arrivals]
    assert admitted == up
    assert center.dropped == up.count(False)
    kept = [ident for ident, is_up in enumerate(up) if is_up]
    expected, _ = lindley([arrivals[i] for i in kept], service_draws(seed, service))
    assert departures == list(zip(kept, expected))


def level_average(arrivals, admitted, departures, until):
    """Time average over ``[0, until]`` of the number of messages present.

    The level steps up at each admitted arrival and down at each committed
    departure; its area is summed interval by interval, independently of
    any sojourn.
    """
    steps = [(at, 1) for at, kept in zip(arrivals, admitted) if kept]
    steps += [(at, -1) for _, at in departures]
    area, level, last = 0.0, 0, 0.0
    for at, step in sorted(steps):
        area += level * (at - last)
        level += step
        last = at
    area += level * (until - last)
    return area / until if until > 0 else 0.0


@pytest.mark.parametrize("kind", ["plain", "stall", "drop"])
@given(arrivals=arrival_times, seed=seeds, service=services, cut=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_occupancy_is_the_time_average_of_the_level(kind, arrivals, seed, service, cut):
    drained = make_center(kind, seed, service)
    admitted, departures = drive(drained, arrivals)
    stop = max([arrivals[-1]] + [at for _, at in departures])
    expected = level_average(arrivals, admitted, departures, stop)
    assert drained.mean_occupancy(stop) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    # A cut anywhere in the run, usually with messages still present.
    until = cut * stop
    cut_short = make_center(kind, seed, service)
    admitted, departures = drive(cut_short, arrivals, until)
    expected = level_average(arrivals, admitted, departures, until)
    assert cut_short.mean_occupancy(until) == pytest.approx(expected, rel=1e-9, abs=1e-12)
