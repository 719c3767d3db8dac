"""Tests for the `failures` experiment block and the failure-prone scenarios."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.pipeline import (
    ExperimentOutcome,
    ExperimentRunner,
    ExperimentSpec,
    TableCollector,
    build_plan,
    smoke_spec,
)
from repro.experiments.scenarios import get_scenario, scenario_names
from repro.simulation.fault_spec import FaultSpec
from repro.simulation.results import ReplicatedResult, SimulationResult

FAILURE_SCENARIOS = ("das2-churn", "llnl-failures", "case-1-lossy")


class TestFailuresSpecField:
    def test_json_round_trip(self):
        spec = ExperimentSpec(
            scenario="case-1",
            mode="simulate",
            cluster_counts=(2,),
            message_sizes=(512,),
            failures=FaultSpec(mtbf_s=20.0, mttr_s=2.0, targets="both", policy="drop"),
        )
        data = spec.to_json()
        assert data["failures"]["mtbf_s"] == 20.0
        assert ExperimentSpec.from_json(data) == spec

    def test_omitted_when_none(self):
        spec = ExperimentSpec(scenario="case-1", mode="simulate")
        assert "failures" not in spec.to_json()

    def test_coerced_from_mapping(self):
        spec = ExperimentSpec(
            scenario="case-1", mode="simulate", failures={"mtbf_s": 5.0, "mttr_s": 1.0}
        )
        assert isinstance(spec.failures, FaultSpec)
        assert spec.failures.mtbf_s == 5.0

    def test_bad_block_is_a_clean_error(self):
        with pytest.raises(ConfigurationError, match="unknown failures field"):
            ExperimentSpec(
                scenario="case-1", mode="simulate", failures={"mtbf": 5.0, "mttr_s": 1.0}
            )


class TestFailureScenarios:
    def test_registered(self):
        assert set(FAILURE_SCENARIOS) <= set(scenario_names())

    @pytest.mark.parametrize("name", FAILURE_SCENARIOS)
    def test_simulate_only_with_default_failures(self, name):
        scenario = get_scenario(name)
        assert not scenario.supports_analysis
        assert isinstance(scenario.default_failures, FaultSpec)

    def test_scenario_default_reaches_task_configs(self):
        plan = build_plan(smoke_spec("das2-churn", messages=60))
        default = get_scenario("das2-churn").default_failures
        for task in plan.simulation.tasks:
            assert task.args[1].failures == default

    def test_spec_failures_override_scenario_default(self):
        override = FaultSpec(mtbf_s=99.0, mttr_s=9.0, targets="links", policy="drop")
        spec = ExperimentSpec(
            scenario="das2-churn",
            mode="simulate",
            cluster_counts=(2,),
            message_sizes=(512,),
            replications=1,
            simulation_messages=60,
            failures=override,
        )
        for task in build_plan(spec).simulation.tasks:
            assert task.args[1].failures == override

    def test_fault_free_scenarios_stay_fault_free(self):
        plan = build_plan(smoke_spec("case-1", messages=60))
        for task in plan.simulation.tasks:
            assert task.args[1].failures is None


class TestFailureRuns:
    def test_rows_carry_fault_columns(self):
        result = ExperimentRunner().run(build_plan(smoke_spec("case-1-lossy", messages=120)))
        assert result.points
        for point in result.points:
            assert 0.0 < point.availability <= 1.0
            assert point.throughput_msg_s > 0.0
            assert point.dropped_messages >= 0
            row = point.as_dict()
            assert {"availability", "throughput_msg_s", "dropped"} <= set(row)

    def test_fault_free_rows_keep_legacy_shape(self):
        result = ExperimentRunner().run(build_plan(smoke_spec("bursty-hyper", messages=60)))
        for point in result.points:
            assert point.availability is None
            assert "availability" not in point.as_dict()

    def test_serial_and_pool_are_bit_identical(self):
        spec = smoke_spec("das2-churn", messages=120)
        serial = ExperimentRunner().run(build_plan(spec))
        pooled = ExperimentRunner(jobs=2).run(build_plan(spec))
        assert [p.as_dict() for p in serial.points] == [p.as_dict() for p in pooled.points]


class TestFaultColumnsAcrossReplications:
    def test_replication_averages_are_correctly_rounded(self):
        # Ten replications at availability 0.1 and throughput 0.1 msg/s: a
        # plain left-to-right sum reads 0.9999999999999999 on Python 3.11
        # (3.12's sum() compensates), so the columns would depend on the
        # interpreter.
        spec = ExperimentSpec(
            scenario="case-1", mode="simulate", cluster_counts=(2,),
            message_sizes=(512,), replications=10,
            failures=FaultSpec(mtbf_s=20.0, mttr_s=2.0),
        )
        plan = build_plan(spec)
        run = SimulationResult(
            mean_latency_s=1e-3, mean_local_latency_s=1e-3, mean_remote_latency_s=1e-3,
            measured_messages=1, completed_messages=1, remote_fraction=0.5,
            simulated_time_s=10.0, utilizations={}, mean_occupancies={}, seed=0,
            availability={"icn2": 0.1}, dropped_messages=2,
        )
        replicated = ReplicatedResult(10, 1e-3, None, [run] * 10)
        outcome = ExperimentOutcome(plan=plan, analysis=None, replicated=[replicated])
        (point,) = TableCollector().collect(outcome).points
        assert point.availability == 0.1
        assert point.throughput_msg_s == 0.1
        assert point.dropped_messages == 20
