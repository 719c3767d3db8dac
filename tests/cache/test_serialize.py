"""Unit tests for the hex-exact cache payload (de)hydration."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.cache import CachePayloadError, outcome_from_payload, outcome_to_payload
from repro.cache.serialize import _hex, _unhex
from repro.experiments.pipeline import ExperimentRunner, ExperimentSpec, build_plan


def small_plan(**overrides):
    fields = dict(
        scenario="case-1",
        mode="both",
        cluster_counts=[2],
        message_sizes=[512.0],
        replications=2,
        simulation_messages=100,
        seed=0,
    )
    fields.update(overrides)
    return build_plan(ExperimentSpec(**fields))


class TestFloatHex:
    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.5, -2.75e-300, 1.2345678901234567e17, math.inf, -math.inf],
    )
    def test_round_trip_is_exact(self, value):
        restored = _unhex(_hex(value))
        assert restored == value
        assert math.copysign(1.0, restored) == math.copysign(1.0, value)

    def test_nan_round_trips(self):
        assert math.isnan(_unhex(_hex(math.nan)))

    def test_unhex_rejects_garbage(self):
        with pytest.raises(CachePayloadError):
            _unhex("not a hex float")
        with pytest.raises(CachePayloadError):
            _unhex(1.5)


class TestOutcomeRoundTrip:
    def test_round_trip_is_bit_exact(self):
        plan = small_plan()
        outcome = ExperimentRunner().run_outcome(plan)
        payload = outcome_to_payload(outcome)
        restored = outcome_from_payload(payload, plan)

        grid, grid2 = outcome.analysis, restored.analysis
        for name in ("mean_latency_s", "remote_latency_s", "iterations", "throttling_factor"):
            a, b = getattr(grid, name), getattr(grid2, name)
            assert np.array_equal(a, b, equal_nan=True)
            assert a.dtype == b.dtype
        assert len(restored.replicated) == len(outcome.replicated)
        for mine, theirs in zip(outcome.replicated, restored.replicated):
            assert theirs == mine

    def test_round_trip_survives_json(self):
        import json

        plan = small_plan(replications=1)
        outcome = ExperimentRunner().run_outcome(plan)
        payload = json.loads(json.dumps(outcome_to_payload(outcome)))
        restored = outcome_from_payload(payload, plan)
        assert restored.replicated == outcome.replicated

    def test_fault_columns_round_trip(self):
        """availability and dropped_messages survive a cache round trip."""
        import json

        plan = small_plan(
            scenario="case-1-lossy", mode="simulate", replications=1,
            simulation_messages=300, cluster_counts=[4],
        )
        outcome = ExperimentRunner().run_outcome(plan)
        result = outcome.replicated[0].per_replication[0]
        assert result.availability and result.dropped_messages > 0
        payload = json.loads(json.dumps(outcome_to_payload(outcome)))
        assert outcome_from_payload(payload, plan).replicated == outcome.replicated

    def test_fault_free_payload_has_no_fault_fields(self):
        """Always-up results keep their historical payload bytes."""
        plan = small_plan(mode="simulate", replications=1)
        payload = outcome_to_payload(ExperimentRunner().run_outcome(plan))
        (result,) = payload["replicated"][0]["per_replication"]
        assert "availability" not in result and "dropped_messages" not in result

    def test_version_mismatch_rejected(self):
        plan = small_plan(mode="analysis")
        payload = outcome_to_payload(ExperimentRunner().run_outcome(plan))
        payload["payload_version"] = 999
        with pytest.raises(CachePayloadError):
            outcome_from_payload(payload, plan)

    def test_point_count_mismatch_rejected(self):
        plan = small_plan(mode="analysis")
        payload = outcome_to_payload(ExperimentRunner().run_outcome(plan))
        other = small_plan(mode="analysis", cluster_counts=[2, 4])
        with pytest.raises(CachePayloadError):
            outcome_from_payload(payload, other)

    def test_mode_mismatch_rejected(self):
        plan = small_plan(mode="analysis")
        payload = outcome_to_payload(ExperimentRunner().run_outcome(plan))
        simulate_plan = small_plan(mode="both")
        with pytest.raises(CachePayloadError):
            outcome_from_payload(payload, simulate_plan)

    def test_non_dict_payload_rejected(self):
        plan = small_plan(mode="analysis")
        for garbage in (None, [], "text", 7):
            with pytest.raises(CachePayloadError):
                outcome_from_payload(garbage, plan)


@pytest.fixture(scope="module")
def both_payload():
    """A good payload of a one-point ``both`` campaign, and its plan."""
    plan = small_plan(mode="both")
    return outcome_to_payload(ExperimentRunner().run_outcome(plan)), plan


def _drop(key):
    def corrupt(section):
        del section[key]
    return corrupt


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda p: p.update(analysis=None), "analysis pass does not match"),
        (lambda p: p.update(replicated=None), "simulation pass does not match"),
        (lambda p: p.update(analysis=[1.0]), "analysis payload must be an object"),
        (lambda p: _drop("local_latency_s")(p["analysis"]), "'local_latency_s' missing"),
        (lambda p: _drop("iterations")(p["analysis"]), "'iterations' missing"),
        (lambda p: p.update(replicated={"0": {}}), "'replicated' field is not a list"),
        (lambda p: p.update(replicated=p["replicated"] * 2), "simulation pass has 2 points"),
        (lambda p: p.update(replicated=["x"]), "replicated result must be an object"),
        (lambda p: _drop("per_replication")(p["replicated"][0]), "'per_replication' missing"),
    ],
)
def test_corrupt_sections_are_payload_errors(both_payload, corrupt, match):
    """Each malformed section is a CachePayloadError (the store drops the
    entry and recomputes), never a raw KeyError or TypeError."""
    payload, plan = both_payload
    payload = copy.deepcopy(payload)
    outcome_from_payload(copy.deepcopy(payload), plan)  # the intact copy loads
    corrupt(payload)
    with pytest.raises(CachePayloadError, match=match):
        outcome_from_payload(payload, plan)
