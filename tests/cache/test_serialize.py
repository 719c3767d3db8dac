"""Unit tests for the bit-exact cache payload (de)hydration."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import struct

import pytest

from repro.cache import CachePayloadError, outcome_from_payload, outcome_to_payload
from repro.cache.serialize import (
    _hex,
    _map_from_payload,
    _map_to_payload,
    _unhex,
)
from repro.experiments.pipeline import ExperimentRunner, ExperimentSpec, build_plan

#: Values whose bits a decimal or float.hex() round trip is most likely to
#: lose: NaN, both infinities, negative zero, the smallest subnormal.
SPECIAL = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0, "subnormal": 5e-324}


def bits(values):
    """The IEEE-754 bits of each value (NaN compares equal to itself here)."""
    return [struct.pack("<d", value) for value in values]


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


class TestPackedMaps:
    def test_special_values_round_trip_bit_exact(self):
        payload = json.loads(json.dumps(_map_to_payload(SPECIAL)))
        assert set(payload) == {"keys", "values"}
        assert len(payload["values"]) == 16 * len(SPECIAL)
        restored = _map_from_payload(payload, "m")
        assert list(restored) == list(SPECIAL)  # key order kept
        assert bits(restored.values()) == bits(SPECIAL.values())
        assert all(type(value) is float for value in restored.values())

    def test_empty_map_round_trips(self):
        payload = json.loads(json.dumps(_map_to_payload({})))
        assert payload == {"keys": [], "values": ""}
        assert _map_from_payload(payload, "m") == {}

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda p: p.update(values=p["values"][:-16]), "m has 32 bytes, expected 5 doubles"),
            (lambda p: p.update(values=p["values"][:-1]), "m is not a hex string"),
            (lambda p: p.update(values="zz" + p["values"][2:]), "m is not a hex string"),
            (lambda p: p.update(values=p["values"] * 2), "m has 80 bytes, expected 5 doubles"),
            (lambda p: p["keys"].pop(), "m has 40 bytes, expected 4 doubles"),
            (lambda p: p["keys"].__setitem__(0, 1), "m keys missing or not a list of strings"),
            (lambda p: p.pop("keys"), "m keys missing"),
            (lambda p: p.update(values=[1.0] * 5), "m missing or not a packed hex string"),
        ],
    )
    def test_damaged_map_is_a_payload_error(self, damage, match):
        payload = _map_to_payload({"a": 1.0, "b": 2.0, "c": -0.0, "d": 4.0, "e": 5.0})
        damage(payload)
        with pytest.raises(CachePayloadError, match=match):
            _map_from_payload(payload, "m")


class TestOutcomeRoundTrip:
    def test_round_trip_is_bit_exact(self):
        plan = small_plan()
        outcome = ExperimentRunner().run_outcome(plan)
        payload = outcome_to_payload(outcome)
        restored = outcome_from_payload(payload, plan)

        grid, grid2 = outcome.analysis, restored.analysis
        for name in ("mean_latency_s", "remote_latency_s", "iterations", "throttling_factor"):
            a, b = getattr(grid, name), getattr(grid2, name)
            assert isinstance(b, tuple) and b == a
            assert [type(value) for value in b] == [type(value) for value in a]
        assert all(type(value) is float for value in grid2.mean_latency_s)
        assert all(type(value) is int for value in grid2.iterations)
        assert len(restored.replicated) == len(outcome.replicated)
        for mine, theirs in zip(outcome.replicated, restored.replicated):
            assert theirs == mine

    def test_round_trip_survives_json(self):
        plan = small_plan(replications=1)
        outcome = ExperimentRunner().run_outcome(plan)
        payload = json.loads(json.dumps(outcome_to_payload(outcome)))
        restored = outcome_from_payload(payload, plan)
        assert restored.replicated == outcome.replicated

    def test_special_values_in_every_float_form_round_trip(self):
        """NaN, infinities, -0.0 and a subnormal survive in a grid column,
        a per-centre map and a scalar, and an empty map stays empty."""
        plan = small_plan(cluster_counts=[1, 2, 4, 8, 16], replications=1)
        outcome = ExperimentRunner().run_outcome(plan)
        grid = dataclasses.replace(outcome.analysis, mean_latency_s=tuple(SPECIAL.values()))
        first = outcome.replicated[0]
        run = dataclasses.replace(
            first.per_replication[0], utilizations=dict(SPECIAL), latency_summary={},
            mean_latency_s=-0.0, simulated_time_s=math.inf,
        )
        replicated = [dataclasses.replace(first, per_replication=[run])] + outcome.replicated[1:]
        outcome = dataclasses.replace(outcome, analysis=grid, replicated=replicated)

        payload = json.loads(json.dumps(outcome_to_payload(outcome)))
        restored = outcome_from_payload(payload, plan)
        assert bits(restored.analysis.mean_latency_s) == bits(SPECIAL.values())
        back = restored.replicated[0].per_replication[0]
        assert list(back.utilizations) == list(SPECIAL)
        assert bits(back.utilizations.values()) == bits(SPECIAL.values())
        assert back.latency_summary == {}
        assert bits([back.mean_latency_s, back.simulated_time_s]) == bits([-0.0, math.inf])
        assert restored.replicated[1:] == outcome.replicated[1:]

    def test_fault_columns_round_trip(self):
        """availability and dropped_messages survive a cache round trip."""
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

    def test_version_1_payload_rejected(self):
        """Version 1 also carried an interval in every replication's run."""
        plan = small_plan(mode="simulate", replications=1)
        payload = outcome_to_payload(ExperimentRunner().run_outcome(plan))
        payload["payload_version"] = 1
        with pytest.raises(CachePayloadError, match="version 1"):
            outcome_from_payload(payload, plan)

    def test_payload_packs_every_float_map_and_grid_column(self):
        plan = small_plan(mode="both", cluster_counts=[2, 4], replications=1)
        payload = outcome_to_payload(ExperimentRunner().run_outcome(plan))
        for name, column in payload["analysis"].items():
            if name in ("iterations", "scalar_fallback"):
                assert all(type(v) is int for v in column)
            else:
                assert isinstance(column, str) and len(column) == 16 * 2
        for point in payload["replicated"]:
            (run,) = point["per_replication"]
            for name in ("utilizations", "mean_occupancies", "latency_summary"):
                assert len(run[name]["values"]) == 16 * len(run[name]["keys"])
            # 2C + 1 centres: C ICN1s, C ECN1s and the ICN2.
            assert len(run["utilizations"]["keys"]) in (5, 9)
            assert run["mean_occupancies"]["keys"] == run["utilizations"]["keys"]

    def test_replications_carry_no_interval_of_their_own(self):
        plan = small_plan(mode="simulate", replications=2)
        payload = outcome_to_payload(ExperimentRunner().run_outcome(plan))
        (point,) = payload["replicated"]
        assert set(point["latency_interval"]) == {
            "mean", "half_width", "confidence", "sample_size"
        }
        for run in point["per_replication"]:
            assert not any("interval" in key for key in run)

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
        # A version-2 column: one float.hex() string per point.
        (
            lambda p: p["analysis"].update(effective_rate=["0x1.0p+0"]),
            "'effective_rate' missing or not a packed hex string",
        ),
        (lambda p: p.update(replicated={"0": {}}), "'replicated' field is not a list"),
        (lambda p: p.update(replicated=p["replicated"] * 2), "simulation pass has 2 points"),
        (lambda p: p.update(replicated=["x"]), "replicated result must be an object"),
        (lambda p: _drop("per_replication")(p["replicated"][0]), "'per_replication' missing"),
        # Ragged sections: a column shorter than the plan, a point whose
        # per-replication list disagrees with its replication count.
        (
            lambda p: p["analysis"].update(effective_rate=""),
            "'effective_rate' has 0 bytes, expected 1 doubles",
        ),
        (
            lambda p: p["analysis"].update(iterations=[]),
            "'iterations' has 0 entries, plan has 1 points",
        ),
        # A version-2 map: one float.hex() string per key.
        (
            lambda p: p["replicated"][0]["per_replication"][0].update(
                utilizations={"icn2": "0x0p+0"}
            ),
            "utilizations keys missing",
        ),
        (
            lambda p: p["replicated"][0]["per_replication"].pop(),
            "1 per-replication results but replications=2",
        ),
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
