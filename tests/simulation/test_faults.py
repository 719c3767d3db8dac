"""Tests for the deterministic fault-injection layer (`repro.simulation.faults`)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.des.core import Environment
from repro.des.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.queueing.distributions import Deterministic
from repro.simulation.faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FaultyServiceCenterSim,
)
from repro.simulation.message import Message
from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig


def constant_schedule(ttf: float = 10.0, repair: float = 2.0) -> FaultSchedule:
    """Schedule with constant draws: down intervals [10,12), [22,24), ..."""
    return FaultSchedule(lambda: ttf, lambda: repair)


# ---------------------------------------------------------------- FaultSpec


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec(mtbf_s=100.0, mttr_s=5.0)
        assert spec.failure_distribution == "exponential"
        assert spec.repair_distribution == "exponential"
        assert spec.targets == "links"
        assert spec.policy == "stall"
        assert spec.on_links and not spec.on_nodes

    def test_target_flags(self):
        both = FaultSpec(mtbf_s=1.0, mttr_s=1.0, targets="both")
        assert both.on_links and both.on_nodes
        nodes = FaultSpec(mtbf_s=1.0, mttr_s=1.0, targets="nodes")
        assert nodes.on_nodes and not nodes.on_links

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mtbf_s": 0.0, "mttr_s": 1.0},
            {"mtbf_s": 1.0, "mttr_s": -2.0},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "failure_distribution": "pareto"},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "repair_distribution": "uniform"},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "failure_shape": 0.0},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "repair_shape": -1.0},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "targets": "switches"},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "policy": "retry"},
            {"mtbf_s": float("nan"), "mttr_s": 1.0},
            {"mtbf_s": 1.0, "mttr_s": float("nan")},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "failure_shape": float("inf")},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "repair_shape": float("nan")},
            {"mtbf_s": float("inf"), "mttr_s": 1.0},
            {"mtbf_s": 1.0, "mttr_s": float("inf")},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "failure_shape": float("-inf")},
            {"mtbf_s": "10", "mttr_s": 1.0},
            {"mtbf_s": 1.0, "mttr_s": None},
            {"mtbf_s": True, "mttr_s": 1.0},
            {"mtbf_s": 1.0, "mttr_s": 1.0, "repair_shape": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)

    def test_json_round_trip(self):
        spec = FaultSpec(
            mtbf_s=30.0,
            mttr_s=3.0,
            failure_distribution="weibull",
            failure_shape=1.5,
            repair_distribution="deterministic",
            targets="both",
            policy="drop",
        )
        assert FaultSpec.from_json(spec.to_json()) == spec

    def test_from_json_passes_instances_through(self):
        spec = FaultSpec(mtbf_s=1.0, mttr_s=1.0)
        assert FaultSpec.from_json(spec) is spec

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown failures field"):
            FaultSpec.from_json({"mtbf_s": 1.0, "mttr_s": 1.0, "mtbf": 2.0})

    def test_from_json_requires_means(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            FaultSpec.from_json({"mtbf_s": 1.0})

    def test_from_json_rejects_non_mapping(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            FaultSpec.from_json([1.0, 2.0])


# ------------------------------------------------------------ FaultSchedule


class TestFaultSchedule:
    """Deterministic vectors: down intervals [10,12), [22,24), ..."""

    def test_is_down(self):
        schedule = constant_schedule()
        assert not schedule.is_down(5.0)
        assert schedule.is_down(11.0)
        assert not schedule.is_down(12.0)  # repair instant is up
        assert schedule.is_down(23.0)

    def test_next_up(self):
        schedule = constant_schedule()
        assert schedule.next_up(5.0) == 5.0
        assert schedule.next_up(11.0) == 12.0
        assert schedule.next_up(22.0) == 24.0

    def test_finish_outside_outage(self):
        schedule = constant_schedule()
        assert schedule.finish(0.0, 5.0) == 5.0
        # Work ending exactly at the failure instant is unaffected.
        assert schedule.finish(0.0, 10.0) == 10.0

    def test_finish_stretches_over_outage(self):
        schedule = constant_schedule()
        assert schedule.finish(0.0, 11.0) == 13.0

    def test_finish_started_inside_outage(self):
        schedule = constant_schedule()
        assert schedule.finish(11.0, 1.0) == 13.0

    def test_finish_spanning_two_outages(self):
        schedule = constant_schedule()
        # 22s of work: +2 at [10,12), +2 at [22,24) -> done at 26.
        assert schedule.finish(0.0, 22.0) == 26.0

    def test_finish_rejects_negative_work(self):
        with pytest.raises(ValueError, match="non-negative"):
            constant_schedule().finish(0.0, -1.0)

    def test_downtime_and_availability(self):
        schedule = constant_schedule()
        assert schedule.downtime(24.0) == pytest.approx(4.0)
        assert schedule.downtime(11.0) == pytest.approx(1.0)  # partial outage
        assert schedule.availability(24.0) == pytest.approx(1.0 - 4.0 / 24.0)
        assert schedule.availability(0.0) == 1.0
        assert schedule.downtime(-5.0) == 0.0

    def test_queries_are_append_only(self):
        """Query order never changes the timeline (post-run queries are safe)."""
        a = constant_schedule()
        b = constant_schedule()
        a.is_down(50.0)  # force far generation first
        assert [a.is_down(t) for t in (5.0, 11.0, 23.0)] == [
            b.is_down(t) for t in (5.0, 11.0, 23.0)
        ]
        assert a.downtime(50.0) == b.downtime(50.0)


# ----------------------------------------------------- FaultyServiceCenterSim


def make_center(env, streams, policy, schedule, service=1.0):
    return FaultyServiceCenterSim(
        env,
        "icn1",
        Deterministic(service),
        streams.stream("svc"),
        schedule=schedule,
        policy=policy,
    )


class TestFaultyServiceCenter:
    def test_rejects_unknown_policy(self, streams):
        env = Environment()
        with pytest.raises(ConfigurationError, match="policy"):
            make_center(env, streams, "reroute", constant_schedule())

    def test_stall_stretches_service_over_outage(self, streams):
        env = Environment()
        center = make_center(env, streams, "stall", constant_schedule(), service=11.0)
        event = center.begin(Message(0, (0, 0), (1, 0), 1024, 0.0))
        # 11s of work hits the [10,12) outage: departs at 13, not 11.
        assert event.at == 13.0
        assert center._next_free == 13.0
        assert center.dropped == 0

    def test_stall_queues_in_arrival_order(self, streams):
        env = Environment()
        center = make_center(env, streams, "stall", constant_schedule(), service=6.0)
        first = center.begin(Message(0, (0, 0), (1, 0), 1024, 0.0))
        second = center.begin(Message(1, (0, 0), (1, 0), 1024, 0.0))
        assert first.at == 6.0
        # Second message serves [6,12)+outage -> finish(6, 6) == 14.
        assert second.at == 14.0

    def test_drop_loses_messages_during_outage(self, streams):
        env = Environment(initial_time=11.0)
        center = make_center(env, streams, "drop", constant_schedule())
        assert center.begin(Message(0, (0, 0), (1, 0), 1024, 11.0)) is None
        assert center.dropped == 1

    def test_drop_admits_while_up(self, streams):
        env = Environment(initial_time=5.0)
        center = make_center(env, streams, "drop", constant_schedule())
        event = center.begin(Message(0, (0, 0), (1, 0), 1024, 5.0), "hop")
        assert event is not None and event.at == 6.0
        assert event.value == "hop"
        assert center.dropped == 0

    def test_stall_carries_the_value(self, streams):
        env = Environment()
        center = make_center(env, streams, "stall", constant_schedule(), service=11.0)
        assert center.begin(Message(0, (0, 0), (1, 0), 1024, 0.0), "hop").value == "hop"


# ------------------------------------------------------------- FaultInjector


class TestFaultInjector:
    def test_schedules_are_memoised(self, streams):
        injector = FaultInjector(FaultSpec(mtbf_s=10.0, mttr_s=1.0), streams)
        assert injector.link_schedule("icn1") is injector.link_schedule("icn1")
        assert injector.node_schedule(0, 3) is injector.node_schedule(0, 3)
        assert injector.link_schedule("icn1") is not injector.link_schedule("icn2")

    def test_monitored_names(self, streams):
        injector = FaultInjector(FaultSpec(mtbf_s=10.0, mttr_s=1.0), streams)
        injector.link_schedule("icn1")
        injector.node_schedule(0, 3)
        names = {name for name, _ in injector.monitored()}
        assert names == {"icn1", "node[0][3]"}

    def test_availability_report(self, streams):
        injector = FaultInjector(FaultSpec(mtbf_s=10.0, mttr_s=1.0), streams)
        injector.link_schedule("icn1")
        report = injector.availability(100.0)
        assert set(report) == {"icn1"}
        assert 0.0 <= report["icn1"] <= 1.0

    def test_schedules_are_seed_deterministic(self):
        spec = FaultSpec(mtbf_s=10.0, mttr_s=1.0)
        a = FaultInjector(spec, RandomStreams(seed=7)).link_schedule("icn1")
        b = FaultInjector(spec, RandomStreams(seed=7)).link_schedule("icn1")
        assert [a.is_down(t) for t in range(0, 200, 3)] == [
            b.is_down(t) for t in range(0, 200, 3)
        ]

    def test_weibull_sampler_preserves_mean(self, streams):
        spec = FaultSpec(
            mtbf_s=10.0, mttr_s=1.0, failure_distribution="weibull", failure_shape=1.5
        )
        injector = FaultInjector(spec, streams)
        schedule = injector.link_schedule("icn1")
        schedule._ensure(20000.0)
        ups = [
            start - (schedule._ends[i - 1] if i else 0.0)
            for i, start in enumerate(schedule._starts)
        ]
        mean = sum(ups) / len(ups)
        assert mean == pytest.approx(10.0, rel=0.15)


# ------------------------------------------------------- simulator integration


FAULTY_LINKS = FaultSpec(mtbf_s=5.0, mttr_s=1.0, targets="links", policy="stall")


class TestSimulatorFaults:
    @pytest.fixture
    def faulty_config(self):
        return SimulationConfig(
            architecture="non-blocking",
            message_bytes=1024,
            generation_rate=0.25,
            num_messages=600,
            seed=11,
            failures=FAULTY_LINKS,
        )

    def test_failures_block_coerced_from_json(self):
        config = SimulationConfig(
            architecture="non-blocking",
            message_bytes=1024,
            generation_rate=0.25,
            num_messages=10,
            seed=1,
            failures={"mtbf_s": 5.0, "mttr_s": 1.0},
        )
        assert isinstance(config.failures, FaultSpec)

    def test_faulty_run_reports_availability(self, small_case1_system, faulty_config):
        result = MultiClusterSimulator(small_case1_system, faulty_config).run()
        assert result.availability  # non-empty dict
        assert all(0.0 <= value <= 1.0 for value in result.availability.values())
        assert 0.0 < result.mean_availability < 1.0
        out = result.as_dict()
        assert {"availability", "throughput_msg_s", "dropped_messages"} <= set(out)

    def test_fault_free_run_omits_fault_columns(self, small_case1_system, faulty_config):
        clean = replace(faulty_config, failures=None)
        result = MultiClusterSimulator(small_case1_system, clean).run()
        assert result.availability is None
        assert result.mean_availability is None
        assert result.dropped_messages == 0
        out = result.as_dict()
        assert "availability" not in out and "dropped_messages" not in out

    def test_faulty_run_is_seed_deterministic(self, small_case1_system, faulty_config):
        a = MultiClusterSimulator(small_case1_system, faulty_config).run()
        b = MultiClusterSimulator(small_case1_system, faulty_config).run()
        assert a.as_dict() == b.as_dict()
        assert a.availability == b.availability

    def test_drop_policy_counts_losses(self, small_case1_system, faulty_config):
        lossy = replace(
            faulty_config,
            failures=FaultSpec(mtbf_s=5.0, mttr_s=1.0, targets="links", policy="drop"),
        )
        result = MultiClusterSimulator(small_case1_system, lossy).run()
        assert result.dropped_messages > 0
        assert result.as_dict()["dropped_messages"] == float(result.dropped_messages)

    def test_node_churn_runs(self, small_case1_system, faulty_config):
        churn = replace(
            faulty_config,
            failures=FaultSpec(mtbf_s=10.0, mttr_s=1.0, targets="nodes", policy="stall"),
        )
        result = MultiClusterSimulator(small_case1_system, churn).run()
        assert result.availability
        assert any(name.startswith("node[") for name in result.availability)

    def test_stall_increases_mean_latency(self, small_case1_system, faulty_config):
        clean = replace(faulty_config, failures=None)
        faulty = MultiClusterSimulator(small_case1_system, faulty_config).run()
        baseline = MultiClusterSimulator(small_case1_system, clean).run()
        assert faulty.mean_latency_s > baseline.mean_latency_s
