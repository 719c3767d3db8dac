"""Unit and integration tests for the validation simulator."""

from __future__ import annotations

import importlib
import math
import statistics
from pathlib import Path

import pytest

from repro.cluster.presets import llnl_like_system, paper_evaluation_system
from repro.cluster.system import MultiClusterSystem
from repro.core.model import ModelConfig
from repro.errors import ConfigurationError, SimulationError
from repro.network.switch import SwitchFabric
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET, NetworkTechnology
from repro.queueing.distributions import Deterministic, Exponential
from repro.rng import RandomStreams
from repro.simulation.components import LatencySink, ServiceCenterSim
from repro.simulation.fault_spec import FaultSpec
from repro.simulation.faults import FaultSchedule, FaultyServiceCenterSim
from repro.simulation.message import Message
from repro.parallel import spawn_seeds
from repro.simulation.runner import (
    aggregate_replications,
    replication_configs,
    run_replications,
    run_simulation_task,
    validate_against_analysis,
)
from repro.stats.intervals import mean_confidence_interval, t_quantile
from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig
from repro.workload.arrivals import DeterministicArrivals
from repro.workload.destinations import LocalizedDestinations


def lockstep_simulator(num_messages, arrival_factory=DeterministicArrivals, failures=None):
    """A simulator of two clusters of two nodes whose every instant is exact.

    Locality 1 gives each source one destination, its neighbour, so every
    message is one ICN1 visit.  Think time T = 1/0.25 = 4 s (unless
    ``arrival_factory`` draws others) and service S = 512 B / 512 B/s = 1 s
    are exact in binary floating point, and the two clusters run in
    lockstep, so instants tie.
    """
    link = NetworkTechnology("unit", latency_s=0.0, bandwidth_bytes_per_s=512.0)
    system = MultiClusterSystem.from_cluster_sizes(
        [2, 2], [link, link], [link, link], link,
        switch=SwitchFabric(ports=4, latency_s=0.0),
    )
    config = SimulationConfig(
        message_bytes=512.0, generation_rate=0.25, num_messages=num_messages,
        warmup_fraction=0.0, exponential_service=False, failures=failures,
    )
    return MultiClusterSimulator(
        system, config, LocalizedDestinations([2, 2], locality=1.0),
        arrival_factory=arrival_factory,
    )


def scripted_arrivals(*draws):
    """An arrival factory whose every source draws ``draws``, then the last one forever."""

    class Scripted:
        def __init__(self, rate):
            self.rate = rate

        def sampler(self, rng):
            values = iter(draws)
            return lambda: next(values, draws[-1])

    return Scripted


class TestMessage:
    def test_is_remote(self):
        local = Message(0, (1, 2), (1, 3), 1024, 0.0)
        remote = Message(1, (1, 2), (2, 0), 1024, 0.0)
        assert not local.is_remote
        assert remote.is_remote

    def test_latency_requires_completion(self):
        message = Message(0, (0, 0), (0, 1), 1024, created_at=1.0)
        with pytest.raises(ValueError):
            _ = message.latency
        message.completed_at = 3.5
        assert message.latency == pytest.approx(2.5)

    def test_repr(self):
        message = Message(7, (0, 0), (1, 1), 512, 0.0)
        assert "#7" in repr(message)
        assert "pending" in repr(message)

    def test_message_has_no_dict(self):
        assert not hasattr(Message(0, (0, 0), (0, 1), 1024.0, 0.0), "__dict__")

    def test_local_path_is_the_source_clusters_icn1(self):
        assert Message(0, (2, 0), (2, 5), 1024, 0.0).path == ["icn1[2]"]

    def test_remote_path_crosses_both_ecn1s_and_the_icn2(self):
        message = Message(0, (2, 0), (0, 5), 1024, 0.0)
        assert message.path == ["ecn1[2]", "icn2", "ecn1[0]"]


class TestServiceCenterSim:
    def test_serves_messages_fifo_and_tracks_stats(self):
        rng = RandomStreams(1).stream("svc")
        center = ServiceCenterSim("icn1[0]", Deterministic(2.0), rng)
        departs = [center.begin(Message(i, (0, 0), (0, 1), 100, 0.0), 0.0) for i in range(3)]
        assert departs == [2.0, 4.0, 6.0]
        for at in departs:
            center.depart(at)
        assert center.served == 3
        assert center.busy_time == pytest.approx(6.0)
        assert center.utilization(6.0) == pytest.approx(1.0)
        assert center.mean_occupancy(6.0) == pytest.approx(2.0)

    def test_begin_returns_the_departure_time(self):
        center = ServiceCenterSim("x", Deterministic(2.0), RandomStreams(1).stream("x"))
        assert center.begin(Message(0, (0, 0), (0, 1), 100, 0.0), 0.0) == 2.0
        # An idle server starts at the arrival, a busy one at its next free time.
        assert center.begin(Message(1, (0, 0), (0, 1), 100, 1.0), 1.0) == 4.0
        assert center.begin(Message(2, (0, 0), (0, 1), 100, 9.0), 9.0) == 11.0

    def test_repr_names_the_centre_and_its_departures(self):
        center = ServiceCenterSim("icn2", Deterministic(1.0), RandomStreams(1).stream("x"))
        center.depart(center.begin(Message(0, (0, 0), (1, 0), 100, 0.0), 0.0))
        assert repr(center) == "<ServiceCenterSim 'icn2' served=1>"

    def test_utilization_before_time_advances(self):
        center = ServiceCenterSim("x", Exponential(1.0), RandomStreams(1).stream("x"))
        assert center.utilization(0.0) == 0.0

    def test_depart_commits_departures_in_fifo_order(self):
        center = ServiceCenterSim("x", Exponential(1.0), RandomStreams(3).stream("x"))
        twin = Exponential(1.0).sampler(RandomStreams(3).stream("x"))
        draws = [twin() for _ in range(3)]
        departs = [center.begin(Message(i, (0, 0), (0, 1), 100, 0.0), 0.0) for i in range(3)]
        busy = []
        for at in departs:
            center.depart(at)
            busy.append(center.busy_time)
        assert busy == [draws[0], draws[0] + draws[1], draws[0] + draws[1] + draws[2]]
        assert center.served == 3

    def test_utilization_counts_every_started_service_in_full(self):
        center = ServiceCenterSim("x", Deterministic(2.0), RandomStreams(1).stream("x"))
        center.depart(center.begin(Message(0, (0, 0), (0, 1), 100, 0.0), 0.0))
        assert center.begin(Message(1, (0, 0), (0, 1), 100, 5.0), 5.0) == 7.0
        assert center.utilization(4.0) == 0.5  # the second service has not started
        assert center.utilization(6.0) == 4.0 / 6.0  # it has, and counts in full

    def test_begin_and_depart_move_the_occupancy_level(self):
        center = ServiceCenterSim("x", Deterministic(2.0), RandomStreams(1).stream("x"))
        first = center.begin(Message(0, (0, 0), (0, 1), 100, 0.0), 0.0)
        assert center.mean_occupancy(1.0) == 1.0  # one message over [0, 1)
        center.begin(Message(1, (0, 0), (0, 1), 100, 1.0), 1.0)
        assert center.mean_occupancy(2.0) == 1.5  # then two over [1, 2)
        center.depart(first)
        # Then one over [2, 3): a departure counts its whole sojourn.
        assert center.mean_occupancy(3.0) == 4.0 / 3.0

    def test_mean_occupancy_before_time_advances(self):
        center = ServiceCenterSim("x", Deterministic(2.0), RandomStreams(1).stream("x"))
        center.begin(Message(0, (0, 0), (0, 1), 100, 0.0), 0.0)
        assert center.mean_occupancy(0.0) == center.utilization(0.0) == 0.0

    def test_stall_occupancy_counts_the_outage(self):
        # Down over [1, 3): a 2 s service begun at 0 pauses there and
        # departs at 4, present throughout.
        ttf = iter([1.0, 100.0])
        center = FaultyServiceCenterSim(
            "x", Deterministic(2.0), RandomStreams(1).stream("x"),
            schedule=FaultSchedule(lambda: next(ttf), lambda: 2.0), policy="stall",
        )
        depart = center.begin(Message(0, (0, 0), (0, 1), 100, 0.0), 0.0)
        assert depart == 4.0
        assert center.mean_occupancy(2.0) == 1.0
        center.depart(depart)
        assert center.mean_occupancy(8.0) == 0.5

    def test_dropped_message_adds_no_occupancy(self):
        # Down over [1, 3), [4, 6), ...: a message at 1.5 is lost, one at
        # 3.5 stays 2 s.
        center = FaultyServiceCenterSim(
            "x", Deterministic(2.0), RandomStreams(1).stream("x"),
            schedule=FaultSchedule(lambda: 1.0, lambda: 2.0), policy="drop",
        )
        assert center.begin(Message(0, (0, 0), (0, 1), 100, 1.5), 1.5) is None
        center.depart(center.begin(Message(1, (0, 0), (0, 1), 100, 3.5), 3.5))
        assert center.dropped == 1
        assert center.mean_occupancy(8.0) == 0.25


class TestLatencySink:
    def test_completed_reaches_the_target(self):
        sink = LatencySink(target_messages=2)
        for i in range(2):
            message = Message(i, (0, 0), (0, 1), 10, created_at=0.0)
            message.completed_at = float(i + 1)
            sink.record(message)
        assert sink.completed == sink.target_messages == 2
        assert sink.measured == 2

    def test_warmup_messages_excluded(self):
        sink = LatencySink(target_messages=10, warmup_messages=4)
        for i in range(10):
            message = Message(i, (0, 0), (1, 0), 10, created_at=0.0)
            message.completed_at = 1.0
            sink.record(message)
        assert sink.completed == 10
        assert sink.measured == 6

    def test_recording_incomplete_message_rejected(self):
        sink = LatencySink(target_messages=5)
        with pytest.raises(SimulationError):
            sink.record(Message(0, (0, 0), (0, 1), 10, 0.0))

    def test_validation(self):
        with pytest.raises(SimulationError):
            LatencySink(target_messages=0)
        with pytest.raises(SimulationError):
            LatencySink(target_messages=5, warmup_messages=5)

    def test_repr_shows_completions_against_the_target(self):
        sink = LatencySink(target_messages=5, warmup_messages=1)
        for i in range(2):
            message = Message(i, (0, 0), (0, 1), 10, created_at=0.0)
            message.completed_at = 1.0
            sink.record(message)
        assert repr(sink) == "<LatencySink completed=2/5>"

    def test_histogram_range_requires_online_mode(self):
        with pytest.raises(SimulationError, match="only applies to the online sink"):
            LatencySink(target_messages=5, histogram_range=(0.0, 1.0))

    def test_run_stops_at_the_completing_instant(self, small_case1_system):
        # The loop stops at the instant the target-th completion is recorded;
        # only completions already scheduled for that instant follow it.
        config = SimulationConfig(num_messages=300, warmup_fraction=0.0, seed=4)
        simulator = MultiClusterSimulator(small_case1_system, config)
        result = simulator.run()
        completions = [m.completed_at for m in simulator.sink.messages]
        assert simulator.sink.completed == len(completions) >= 300
        assert completions[299] == result.simulated_time_s
        assert set(completions[299:]) == {result.simulated_time_s}


class TestClosedLoopHeap:
    """The loop's own heap: its stop entry, its count and its two refusals."""

    def test_completion_tied_with_the_target_is_recorded(self):
        # At t=5 message 0 reaches the target of 1 and pushes the stop entry;
        # message 2's departure at t=5 was pushed at t=4, so it runs first.
        sim = lockstep_simulator(num_messages=1)
        result = sim.run()
        assert [(m.ident, m.completed_at) for m in sim.sink.messages] == [(0, 5.0), (2, 5.0)]
        assert result.completed_messages == sim.sink.completed == 2
        assert result.simulated_time_s == 5.0

    def test_entries_pushed_after_the_stop_do_not_run(self):
        # Zero think times: all four sources send at t=0, and each ICN1
        # completes one message at t=1.  The first completion's stop entry
        # precedes its source's next think entry at t=1, so that source
        # sends nothing more, while the tied completion in cluster 1 still
        # runs.  Entries: 4 thinks, 4 departures, the stop, 2 thinks.
        sim = lockstep_simulator(num_messages=1, arrival_factory=scripted_arrivals(0.0))
        result = sim.run()
        assert result.simulated_time_s == 1.0
        assert sim.sink.completed == 2
        # Each ICN1 admitted two messages at t=0, served one and still
        # holds the other: two present throughout [0, 1].
        assert [c.served for c in sim.icn1] == [1, 1]
        assert [result.mean_occupancies[c.name] for c in sim.icn1] == [2.0, 2.0]
        assert sim.events_scheduled == 11

    def test_events_scheduled_counts_every_entry_pushed(self):
        # 4 first thinks, then per message one departure and one think, and
        # the stop entry: 4 + 12 + 12 + 1.
        sim = lockstep_simulator(num_messages=11)
        assert sim.events_scheduled == 0
        assert sim.run().completed_messages == 12
        assert sim.events_scheduled == 29

    def test_bench_reads_the_loops_count(self, monkeypatch, small_case1_system):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2] / "benchmarks"))
        bench = importlib.import_module("bench_simulator")
        sim = MultiClusterSimulator(small_case1_system, SimulationConfig(num_messages=50, seed=1))
        measured = sim.run().measured_messages
        assert bench._closed_loop(small_case1_system, 50) == (measured, sim.events_scheduled)

    @pytest.mark.parametrize("draws", [(-1.0,), (4.0, -0.5)], ids=["first", "after-completion"])
    def test_negative_think_time_is_refused(self, draws):
        sim = lockstep_simulator(num_messages=8, arrival_factory=scripted_arrivals(*draws))
        with pytest.raises(ValueError, match="Negative delay"):
            sim.run()

    def test_departure_before_now_is_refused(self, small_case1_system):
        class Backwards(ServiceCenterSim):
            __slots__ = ()

            def begin(self, message, now):
                super().begin(message, now)
                return now - 1.0

        sim = MultiClusterSimulator(small_case1_system, SimulationConfig(num_messages=10))
        backwards = [Backwards(c.name, Deterministic(1.0), c.rng) for c in sim.icn1]
        sim.icn1 = sim.ecn1 = backwards
        with pytest.raises(ValueError, match="before current time"):
            sim.run()


def outage(start, length):
    """A schedule down over ``[start, start + length)`` and up at every other time."""
    failures = iter([start, math.inf])
    return FaultSchedule(lambda: next(failures), lambda: length)


def never_down():
    return outage(math.inf, 0.0)


class TestClosedLoopFaults:
    """Hand-derived fault paths of the loop on the lockstep system.

    Each test replaces the drawn schedules with fixed outages before the
    run; without faults the sources of cluster 0 send at t=4, 9, 10, 14 and
    15 (see ``test_same_instant_ordering_contract``).
    """

    def test_churned_source_sends_at_its_repair(self):
        # (0,1) and (1,1) are down over [10, 12): their think times end at
        # t=10, so they send at 12 instead, after 4 and 5 complete at 10.
        sim = lockstep_simulator(8, failures=FaultSpec(mtbf_s=1.0, mttr_s=1.0, targets="nodes"))
        for cluster in (0, 1):
            sim.faults.node_schedules[cluster, 0] = never_down()
            sim.faults.node_schedules[cluster, 1] = outage(10.0, 2.0)
        sim.run()
        got = [(m.ident, m.source, m.created_at, m.completed_at) for m in sim.sink.messages]
        assert got[4:] == [
            (4, (0, 0), 9.0, 10.0), (5, (1, 0), 9.0, 10.0),
            (6, (0, 1), 12.0, 13.0), (7, (1, 1), 12.0, 13.0),
        ]

    def test_message_to_a_down_node_is_dropped_and_its_source_thinks_again(self):
        # (0,1) and (1,1) are down over [8.5, 9.5): the sends of (0,0) and
        # (1,0) at t=9 are lost, and they send again at 13.
        spec = FaultSpec(mtbf_s=1.0, mttr_s=1.0, targets="nodes", policy="drop")
        sim = lockstep_simulator(6, failures=spec)
        for cluster in (0, 1):
            sim.faults.node_schedules[cluster, 0] = never_down()
            sim.faults.node_schedules[cluster, 1] = outage(8.5, 1.0)
        result = sim.run()
        got = [(m.ident, m.source, m.created_at, m.completed_at) for m in sim.sink.messages]
        assert got[4:] == [(4, (0, 1), 10.0, 11.0), (5, (1, 1), 10.0, 11.0)]
        assert result.dropped_messages == sim.faults.node_dropped == 2

    def test_message_at_a_down_centre_is_dropped_and_its_source_thinks_again(self):
        # icn1[0] is down over [9.5, 10.5): (0,1)'s message 6, sent at t=10,
        # is lost there, and (0,1) thinks again and sends message 8 at 14;
        # (1,1)'s message 7 is served.
        spec = FaultSpec(mtbf_s=1.0, mttr_s=1.0, targets="links", policy="drop")
        sim = lockstep_simulator(8, failures=spec)
        for center in [*sim.icn1, *sim.ecn1, sim.icn2]:
            center.schedule = never_down()
        sim.icn1[0].schedule = outage(9.5, 1.0)
        result = sim.run()
        got = [(m.ident, m.source, m.created_at, m.completed_at) for m in sim.sink.messages]
        assert got[4:] == [
            (4, (0, 0), 9.0, 10.0), (5, (1, 0), 9.0, 10.0), (7, (1, 1), 10.0, 11.0),
            (8, (0, 1), 14.0, 15.0), (10, (1, 0), 14.0, 15.0),
        ]
        assert result.dropped_messages == sim.icn1[0].dropped == 1

    def test_stalled_centre_resumes_service_after_its_repair(self):
        # icn1[0] is down over [9.5, 10.5): message 4 starts at t=9, pauses
        # half served and completes at 11 instead of 10, tied with message 7.
        sim = lockstep_simulator(6, failures=FaultSpec(mtbf_s=1.0, mttr_s=1.0))
        for center in [*sim.icn1, *sim.ecn1, sim.icn2]:
            center.schedule = never_down()
        sim.icn1[0].schedule = outage(9.5, 1.0)
        sim.run()
        got = [(m.ident, m.source, m.created_at, m.completed_at) for m in sim.sink.messages]
        assert got[4:] == [
            (5, (1, 0), 9.0, 10.0), (4, (0, 0), 9.0, 11.0), (7, (1, 1), 10.0, 11.0),
        ]


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(message_bytes=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(generation_rate=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_messages=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup_fraction=1.0)
        # A NaN size or rate would keep the event loop from ever finishing.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="message size"):
                SimulationConfig(message_bytes=value)
            with pytest.raises(ConfigurationError, match="generation rate"):
                SimulationConfig(generation_rate=value)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"message_bytes": float("-inf")}, "message size"),
            ({"message_bytes": -512}, "message size"),
            ({"generation_rate": float("-inf")}, "generation rate"),
            ({"generation_rate": -0.25}, "generation rate"),
            ({"warmup_fraction": float("nan")}, "warmup_fraction"),
            ({"warmup_fraction": -0.1}, "warmup_fraction"),
        ],
    )
    def test_rejection_names_the_field(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be"):
            SimulationConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64])
    def test_accepts_large_and_zero_seeds(self, small_case1_system, seed):
        config = SimulationConfig(num_messages=50, seed=seed)
        assert MultiClusterSimulator(small_case1_system, config).run().seed == seed


class TestMultiClusterSimulator:
    @pytest.fixture
    def small_config(self) -> SimulationConfig:
        return SimulationConfig(
            architecture="non-blocking",
            message_bytes=1024,
            generation_rate=0.25,
            num_messages=600,
            seed=11,
        )

    def test_runs_and_reports(self, small_case1_system, small_config):
        result = MultiClusterSimulator(small_case1_system, small_config).run()
        assert result.measured_messages > 0
        assert result.completed_messages >= small_config.num_messages
        assert result.mean_latency_s > 0
        assert result.mean_latency_ms == pytest.approx(result.mean_latency_s * 1e3)
        assert result.simulated_time_s > 0
        assert 0.0 <= result.remote_fraction <= 1.0
        assert "mean_latency_ms" in result.as_dict()

    def test_throughput_is_zero_at_zero_simulated_time(self, small_case1_system, small_config):
        from dataclasses import replace

        result = MultiClusterSimulator(small_case1_system, small_config).run()
        assert result.throughput_msg_s == result.completed_messages / result.simulated_time_s
        assert replace(result, simulated_time_s=0.0).throughput_msg_s == 0.0

    def test_reproducible_with_same_seed(self, small_case1_system, small_config):
        a = MultiClusterSimulator(small_case1_system, small_config).run()
        b = MultiClusterSimulator(small_case1_system, small_config).run()
        assert a.mean_latency_s == pytest.approx(b.mean_latency_s, rel=1e-12)

    def test_different_seed_differs(self, small_case1_system, small_config):
        from dataclasses import replace

        a = MultiClusterSimulator(small_case1_system, small_config).run()
        b = MultiClusterSimulator(small_case1_system, replace(small_config, seed=99)).run()
        assert a.mean_latency_s != b.mean_latency_s

    def test_remote_fraction_matches_equation_8(self, small_case1_system, small_config):
        result = MultiClusterSimulator(small_case1_system, small_config).run()
        # C = 4, N0 = 8: P = 24/31.
        assert result.remote_fraction == pytest.approx(24.0 / 31.0, abs=0.06)

    def test_per_center_utilizations_present(self, small_case1_system, small_config):
        result = MultiClusterSimulator(small_case1_system, small_config).run()
        assert "icn2" in result.utilizations
        assert sum(1 for name in result.utilizations if name.startswith("icn1")) == 4
        assert sum(1 for name in result.utilizations if name.startswith("ecn1")) == 4
        assert all(0.0 <= u <= 1.0 for u in result.utilizations.values())

    def test_message_paths_follow_routing(self, small_case1_system, small_config):
        simulator = MultiClusterSimulator(small_case1_system, small_config)
        simulator.run()
        for message in simulator.sink.messages:
            if message.is_remote:
                assert len(message.path) == 3
                assert message.path[0] == f"ecn1[{message.source[0]}]"
                assert message.path[1] == "icn2"
                assert message.path[2] == f"ecn1[{message.destination[0]}]"
            else:
                assert message.path == [f"icn1[{message.source[0]}]"]

    def test_same_instant_ordering_contract(self):
        """Hand-derived completions of an all-deterministic workload with ties.

        Two clusters of two nodes; locality 1 gives each source exactly one
        destination, its neighbour, so every message is one ICN1 visit.
        Think time T = 1/0.25 = 4 s and service S = 0 + 512 B / 512 B/s = 1 s
        are exact in binary floating point, and the two clusters run in
        lockstep, so instants tie:

        * t=4: all four think times end; sources pop in creation (start)
          order (0,0), (0,1), (1,0), (1,1) and send messages 0-3.  Each ICN1
          serves its first message over [4,5) and its second over [5,6).
        * t=5: messages 0 and 2 complete (their departures were created in
          that order); t=6: messages 1 and 3.  Each source thinks 4 s more.
        * t=9: (0,0) and (1,0) send 4 and 5, departing at 10.
        * t=10: the think times of (0,1) and (1,1), created at t=6, pop
          before the departures of 4 and 5, created at t=9: messages 6 and 7
          are sent (ICN1 free at 10 -> depart 11), then 4 and 5 complete.
        * t=11: 6 and 7 complete; t=14: 8 and 9 are sent; t=15: 10 and 11
          are sent, then 8 and 9 complete; t=16: 10 and 11 complete.

        With ``num_messages=11`` the completion of message 10 pushes the
        stop entry, but the departure of message 11 was pushed at t=15,
        before the stop entry, so it still runs: 12 completions, stop at 16.
        """
        sim = lockstep_simulator(num_messages=11)
        assert [c.service_distribution.value for c in sim.icn1] == [1.0, 1.0]
        result = sim.run()

        expected = [  # (ident, source, created, completed), in completion order
            (0, (0, 0), 4.0, 5.0), (2, (1, 0), 4.0, 5.0),
            (1, (0, 1), 4.0, 6.0), (3, (1, 1), 4.0, 6.0),
            (4, (0, 0), 9.0, 10.0), (5, (1, 0), 9.0, 10.0),
            (6, (0, 1), 10.0, 11.0), (7, (1, 1), 10.0, 11.0),
            (8, (0, 0), 14.0, 15.0), (9, (1, 0), 14.0, 15.0),
            (10, (0, 1), 15.0, 16.0), (11, (1, 1), 15.0, 16.0),
        ]
        got = [(m.ident, m.source, m.created_at, m.completed_at) for m in sim.sink.messages]
        assert got == expected
        completions = [m.completed_at for m in sim.sink.messages]
        assert len(set(completions)) < len(completions)  # completions tie
        assert {m.created_at for m in sim.sink.messages} & set(completions)  # and sends tie
        assert result.completed_messages == 12
        assert result.simulated_time_s == 16.0

    def test_run_reads_the_sink_at_start(self, small_case1_system, small_config):
        """A sink swapped in after construction receives every completion."""
        simulator = MultiClusterSimulator(small_case1_system, small_config)
        reference = MultiClusterSimulator(small_case1_system, small_config).run()
        original = simulator.sink
        simulator.sink = LatencySink(
            small_config.num_messages,
            int(small_config.num_messages * small_config.warmup_fraction),
        )
        assert simulator.run() == reference
        assert original.completed == 0
        assert simulator.sink.completed == reference.completed_messages

    def test_blocking_architecture_slower(self, small_case1_system):
        nb_config = SimulationConfig(architecture="non-blocking", message_bytes=1024,
                                     num_messages=500, seed=3)
        b_config = SimulationConfig(architecture="blocking", message_bytes=1024,
                                    num_messages=500, seed=3)
        nb = MultiClusterSimulator(small_case1_system, nb_config).run()
        b = MultiClusterSimulator(small_case1_system, b_config).run()
        assert b.mean_latency_s > nb.mean_latency_s

    def test_localized_destination_policy(self, small_case1_system):
        config = SimulationConfig(num_messages=400, seed=5)
        policy = LocalizedDestinations([8, 8, 8, 8], locality=1.0)
        result = MultiClusterSimulator(small_case1_system, config, policy).run()
        assert result.remote_fraction == 0.0

    def test_cluster_of_clusters_system_supported(self):
        config = SimulationConfig(num_messages=400, seed=9)
        result = MultiClusterSimulator(llnl_like_system(), config).run()
        assert result.mean_latency_s > 0

    def test_single_node_system_rejected(self):
        system = paper_evaluation_system(1, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=1)
        with pytest.raises(ConfigurationError):
            MultiClusterSimulator(system, SimulationConfig(num_messages=10))


class TestRunnerAndValidation:
    def test_run_replications_aggregates(self, small_case1_system):
        config = SimulationConfig(num_messages=400, seed=21)
        result = run_replications(small_case1_system, config, replications=3)
        assert result.replications == 3
        assert len(result.per_replication) == 3
        assert result.latency_interval is not None
        # Seeds are spawned from the master seed via SeedSequence (not the
        # correlated ``seed + i`` scheme): distinct, deterministic, and
        # decorrelated from adjacent master seeds.
        seeds = [r.seed for r in result.per_replication]
        assert seeds == spawn_seeds(21, 3)
        assert len(set(seeds)) == 3
        assert not set(seeds) & set(spawn_seeds(22, 3))

    def test_one_replication_has_no_interval(self, small_case1_system):
        config = SimulationConfig(num_messages=200, seed=4)
        (run,) = [run_simulation_task(small_case1_system, c) for c in replication_configs(config, 1)]
        aggregate = aggregate_replications([run])
        assert aggregate.latency_interval is None
        assert aggregate.mean_latency_s == run.mean_latency_s

    @pytest.mark.parametrize("replications", [2, 3, 5])
    def test_interval_is_the_t_interval_of_the_replication_means(
        self, small_case1_system, replications
    ):
        config = SimulationConfig(num_messages=200, seed=4)
        runs = [
            run_simulation_task(small_case1_system, c)
            for c in replication_configs(config, replications)
        ]
        means = [run.mean_latency_s for run in runs]
        expected = mean_confidence_interval(means)
        aggregate = aggregate_replications(runs)
        assert aggregate.latency_interval == expected
        assert aggregate.latency_interval.half_width.hex() == expected.half_width.hex()
        assert aggregate.latency_interval.sample_size == replications
        assert aggregate.mean_latency_s.hex() == expected.mean.hex()
        # The 95% Student-t half-width, from the stdlib.
        half_width = t_quantile(0.95, replications - 1) * statistics.stdev(means)
        assert expected.half_width == pytest.approx(half_width / math.sqrt(replications), rel=1e-12)

    def test_run_replications_validation(self, small_case1_system):
        with pytest.raises(ConfigurationError):
            run_replications(small_case1_system, SimulationConfig(), replications=0)

    def test_validate_against_analysis_agreement(self, small_case1_system):
        """The paper's core validation claim: analysis tracks simulation."""
        model_config = ModelConfig(architecture="non-blocking", message_bytes=1024)
        sim_config = SimulationConfig(
            architecture="non-blocking", message_bytes=1024, num_messages=3000, seed=2
        )
        point = validate_against_analysis(small_case1_system, model_config, sim_config)
        assert point.relative_error < 0.10
        row = point.as_dict()
        assert row["num_clusters"] == 4

    def test_validate_rejects_mismatched_configs(self, small_case1_system):
        model_config = ModelConfig(architecture="non-blocking", message_bytes=1024)
        sim_config = SimulationConfig(architecture="blocking", message_bytes=1024)
        with pytest.raises(ConfigurationError):
            validate_against_analysis(small_case1_system, model_config, sim_config)

    @pytest.mark.parametrize(
        "sim_kwargs, field",
        [({"message_bytes": 512}, "message_bytes"), ({"generation_rate": 0.5}, "generation_rate")],
    )
    def test_validate_names_the_mismatched_field(self, small_case1_system, sim_kwargs, field):
        model_config = ModelConfig(architecture="non-blocking", message_bytes=1024)
        sim_config = SimulationConfig(
            **{"architecture": "non-blocking", "message_bytes": 1024, **sim_kwargs}
        )
        with pytest.raises(ConfigurationError, match=field):
            validate_against_analysis(small_case1_system, model_config, sim_config)

    def test_validate_derives_the_simulation_from_the_model(self, small_case1_system):
        model_config = ModelConfig(
            architecture="blocking", message_bytes=512, generation_rate=0.5
        )
        derived = validate_against_analysis(small_case1_system, model_config)
        explicit = validate_against_analysis(
            small_case1_system,
            model_config,
            SimulationConfig(architecture="blocking", message_bytes=512, generation_rate=0.5),
        )
        assert derived.simulation_latency_ms == explicit.simulation_latency_ms

    def test_validate_default_sim_config(self, small_case1_system):
        model_config = ModelConfig(architecture="non-blocking", message_bytes=512)
        point = validate_against_analysis(
            small_case1_system,
            model_config,
            SimulationConfig(architecture="non-blocking", message_bytes=512,
                             num_messages=1500, seed=8),
        )
        assert point.analysis_latency_ms > 0
        assert point.simulation_latency_ms > 0
