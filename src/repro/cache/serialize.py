"""Loss-free (de)hydration of experiment outcomes for the result cache.

The cache's bit-identity contract — a hit renders the *same bytes* as the
miss that filled it — rules out plain ``json.dumps(float)`` round trips for
anything downstream formatting touches.  Floats therefore travel in one of
two exact forms:

* a scalar as ``float.hex()``;
* a float map (a run's per-centre ``utilizations`` and
  ``mean_occupancies``, its ``latency_summary`` and ``availability``) as
  its key list plus one hex string of its values packed as little-endian
  IEEE-754 doubles (``struct.pack("<Nd")``), and every float column of a
  :class:`~repro.core.vectorized.GridEvaluation` as one such string.

A packed double is the value's own 64 bits, so finite values, signed
zeros, subnormals, NaN and the infinities all come back bit for bit.  A
packed string decodes with ``bytes.fromhex`` and ``struct.unpack``, which
run in C: a paper-grid entry holds thousands of per-centre values (2C+1
centres per run, C up to 256), and decoding them one Python call per value
was most of a hit's cost.  Integers travel as JSON integers; the integer
grid columns (``iterations``, ``scalar_fallback``) as lists of them.

Only the two execution passes are serialised — the analysis grid and the
per-point :class:`~repro.simulation.results.ReplicatedResult` aggregates
(including each replication's full
:class:`~repro.simulation.results.SimulationResult`).  The plan side of
an :class:`~repro.experiments.pipeline.ExperimentOutcome` is *not* stored:
it is a deterministic function of the spec, and the store rebuilds it via
:func:`~repro.experiments.pipeline.build_plan` on every hit, so collectors
see exactly the object graph a cold run would have handed them.

``PAYLOAD_VERSION`` guards the schema: a payload written by a different
layout is treated as a corrupt entry (dropped and recomputed), never
misread.
"""

from __future__ import annotations

import struct
from typing import Any, Collection, Dict, Optional, Tuple

__all__ = [
    "PAYLOAD_VERSION",
    "CachePayloadError",
    "outcome_to_payload",
    "outcome_from_payload",
]

#: Schema version of cached payloads; bump on any layout change.
PAYLOAD_VERSION = 3


class CachePayloadError(ValueError):
    """A cached payload does not match the expected schema (treated as corrupt)."""


def _hex(value: float) -> str:
    return float(value).hex()


def _unhex(text: Any) -> float:
    if not isinstance(text, str):
        raise CachePayloadError(f"expected a float.hex() string, got {text!r}")
    try:
        return float.fromhex(text)
    except ValueError as exc:
        raise CachePayloadError(f"invalid float.hex() value {text!r}") from exc


def _int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CachePayloadError(f"{name} must be an integer, got {value!r}")
    return value


def _pack(values: Collection[float]) -> str:
    """``values`` as one hex string of little-endian IEEE-754 doubles."""
    return struct.pack(f"<{len(values)}d", *values).hex()


def _unpack(text: Any, count: int, name: str) -> Tuple[float, ...]:
    """The ``count`` doubles of a :func:`_pack` string."""
    if not isinstance(text, str):
        raise CachePayloadError(f"{name} missing or not a packed hex string")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise CachePayloadError(f"{name} is not a hex string") from exc
    if len(raw) != 8 * count:
        raise CachePayloadError(f"{name} has {len(raw)} bytes, expected {count} doubles")
    return struct.unpack(f"<{count}d", raw)


def _map_to_payload(mapping: Dict[str, float]) -> Dict[str, Any]:
    return {"keys": [str(k) for k in mapping], "values": _pack(mapping.values())}


def _map_from_payload(data: Any, name: str) -> Dict[str, float]:
    if not isinstance(data, dict):
        raise CachePayloadError(f"{name} must be an object, got {data!r}")
    keys = data.get("keys")
    # set(map(type, ...)) checks the key types in C, like the unpacking.
    if not isinstance(keys, list) or not set(map(type, keys)) <= {str}:
        raise CachePayloadError(f"{name} keys missing or not a list of strings")
    return dict(zip(keys, _unpack(data.get("values"), len(keys), name)))


# -- GridEvaluation ----------------------------------------------------------

#: The float columns of a GridEvaluation, each one packed string.
_GRID_FLOATS = (
    "mean_latency_s",
    "local_latency_s",
    "remote_latency_s",
    "effective_rate",
    "outgoing_probability",
    "icn2_utilization",
    "throttling_factor",
)


def _grid_to_payload(grid) -> Dict[str, Any]:
    payload: Dict[str, Any] = {name: _pack(getattr(grid, name)) for name in _GRID_FLOATS}
    payload["iterations"] = [int(v) for v in grid.iterations]
    payload["scalar_fallback"] = [int(v) for v in grid.scalar_fallback]
    return payload


def _grid_from_payload(data: Any, n_points: int):
    from ..core.vectorized import GridEvaluation

    if not isinstance(data, dict):
        raise CachePayloadError(f"analysis payload must be an object, got {data!r}")
    iterations = data.get("iterations")
    if not isinstance(iterations, list):
        raise CachePayloadError("analysis field 'iterations' missing or not a list")
    if len(iterations) != n_points:
        raise CachePayloadError(
            f"analysis field 'iterations' has {len(iterations)} entries, plan has "
            f"{n_points} points"
        )
    return GridEvaluation(
        **{
            name: _unpack(data.get(name), n_points, f"analysis field {name!r}")
            for name in _GRID_FLOATS
        },
        iterations=tuple(_int(v, "iterations") for v in iterations),
        scalar_fallback=tuple(
            _int(v, "scalar_fallback") for v in data.get("scalar_fallback", [])
        ),
    )


# -- SimulationResult / ReplicatedResult -------------------------------------


def _interval_to_payload(interval) -> Optional[Dict[str, Any]]:
    if interval is None:
        return None
    return {
        "mean": _hex(interval.mean),
        "half_width": _hex(interval.half_width),
        "confidence": _hex(interval.confidence),
        "sample_size": int(interval.sample_size),
    }


def _interval_from_payload(data: Any):
    from ..stats.intervals import ConfidenceInterval

    if data is None:
        return None
    if not isinstance(data, dict):
        raise CachePayloadError(f"confidence interval must be an object, got {data!r}")
    return ConfidenceInterval(
        mean=_unhex(data.get("mean")),
        half_width=_unhex(data.get("half_width")),
        confidence=_unhex(data.get("confidence")),
        sample_size=_int(data.get("sample_size"), "sample_size"),
    )


def _simulation_result_to_payload(result) -> Dict[str, Any]:
    payload = {
        "mean_latency_s": _hex(result.mean_latency_s),
        "mean_local_latency_s": _hex(result.mean_local_latency_s),
        "mean_remote_latency_s": _hex(result.mean_remote_latency_s),
        "measured_messages": int(result.measured_messages),
        "completed_messages": int(result.completed_messages),
        "remote_fraction": _hex(result.remote_fraction),
        "simulated_time_s": _hex(result.simulated_time_s),
        "utilizations": _map_to_payload(result.utilizations),
        "mean_occupancies": _map_to_payload(result.mean_occupancies),
        "seed": int(result.seed),
        "stats_mode": str(result.stats_mode),
        "latency_summary": (
            None
            if result.latency_summary is None
            else _map_to_payload(result.latency_summary)
        ),
    }
    # Fault columns only on fault-enabled runs, so fault-free payloads keep
    # their historical bytes.
    if result.availability is not None:
        payload["availability"] = _map_to_payload(result.availability)
        payload["dropped_messages"] = int(result.dropped_messages)
    return payload


def _simulation_result_from_payload(data: Any):
    from ..simulation.results import SimulationResult

    if not isinstance(data, dict):
        raise CachePayloadError(f"simulation result must be an object, got {data!r}")
    summary = data.get("latency_summary")
    availability = data.get("availability")
    return SimulationResult(
        mean_latency_s=_unhex(data.get("mean_latency_s")),
        mean_local_latency_s=_unhex(data.get("mean_local_latency_s")),
        mean_remote_latency_s=_unhex(data.get("mean_remote_latency_s")),
        measured_messages=_int(data.get("measured_messages"), "measured_messages"),
        completed_messages=_int(data.get("completed_messages"), "completed_messages"),
        remote_fraction=_unhex(data.get("remote_fraction")),
        simulated_time_s=_unhex(data.get("simulated_time_s")),
        utilizations=_map_from_payload(data.get("utilizations"), "utilizations"),
        mean_occupancies=_map_from_payload(data.get("mean_occupancies"), "mean_occupancies"),
        seed=_int(data.get("seed"), "seed"),
        stats_mode=str(data.get("stats_mode", "array")),
        latency_summary=(
            None if summary is None else _map_from_payload(summary, "latency_summary")
        ),
        availability=(
            None if availability is None else _map_from_payload(availability, "availability")
        ),
        dropped_messages=_int(data.get("dropped_messages", 0), "dropped_messages"),
    )


def _replicated_to_payload(replicated) -> Dict[str, Any]:
    return {
        "replications": int(replicated.replications),
        "mean_latency_s": _hex(replicated.mean_latency_s),
        "latency_interval": _interval_to_payload(replicated.latency_interval),
        "per_replication": [
            _simulation_result_to_payload(result) for result in replicated.per_replication
        ],
    }


def _replicated_from_payload(data: Any):
    from ..simulation.results import ReplicatedResult

    if not isinstance(data, dict):
        raise CachePayloadError(f"replicated result must be an object, got {data!r}")
    per_replication = data.get("per_replication")
    if not isinstance(per_replication, list):
        raise CachePayloadError("replicated field 'per_replication' missing or not a list")
    replications = _int(data.get("replications"), "replications")
    if len(per_replication) != replications:
        raise CachePayloadError(
            f"replicated result has {len(per_replication)} per-replication "
            f"results but replications={replications}"
        )
    return ReplicatedResult(
        replications=replications,
        mean_latency_s=_unhex(data.get("mean_latency_s")),
        latency_interval=_interval_from_payload(data.get("latency_interval")),
        per_replication=[_simulation_result_from_payload(r) for r in per_replication],
    )


# -- the outcome envelope ----------------------------------------------------


def outcome_to_payload(outcome) -> Dict[str, Any]:
    """Serialise an outcome's execution passes into a JSON-safe payload.

    The payload carries only the computed results (analysis grid and
    per-point replicated aggregates); the plan is rebuilt from the spec on
    the way back in.
    """
    return {
        "payload_version": PAYLOAD_VERSION,
        "n_points": len(outcome.plan.points),
        "analysis": None if outcome.analysis is None else _grid_to_payload(outcome.analysis),
        "replicated": (
            None
            if outcome.replicated is None
            else [_replicated_to_payload(r) for r in outcome.replicated]
        ),
    }


def outcome_from_payload(payload: Any, plan):
    """Rebuild an :class:`ExperimentOutcome` from ``payload`` against ``plan``.

    Raises
    ------
    CachePayloadError
        When the payload's schema version, shape or value encoding does not
        match — the store treats this as a corrupt entry: it is dropped and
        the campaign recomputes.
    """
    from ..experiments.pipeline import ExperimentOutcome

    if not isinstance(payload, dict):
        raise CachePayloadError(f"cache payload must be an object, got {type(payload).__name__}")
    if payload.get("payload_version") != PAYLOAD_VERSION:
        raise CachePayloadError(
            f"cache payload version {payload.get('payload_version')!r} != {PAYLOAD_VERSION}"
        )
    if payload.get("n_points") != len(plan.points):
        raise CachePayloadError(
            f"cached point count {payload.get('n_points')!r} does not match the "
            f"plan's {len(plan.points)}"
        )
    analysis = payload.get("analysis")
    replicated = payload.get("replicated")
    if plan.include_analysis != (analysis is not None):
        raise CachePayloadError("cached analysis pass does not match the plan's mode")
    if plan.include_simulation != (replicated is not None):
        raise CachePayloadError("cached simulation pass does not match the plan's mode")
    grid = None if analysis is None else _grid_from_payload(analysis, len(plan.points))
    folded = None
    if replicated is not None:
        if not isinstance(replicated, list):
            raise CachePayloadError("cached 'replicated' field is not a list")
        if len(replicated) != len(plan.points):
            raise CachePayloadError(
                f"cached simulation pass has {len(replicated)} points, plan has "
                f"{len(plan.points)}"
            )
        folded = [_replicated_from_payload(r) for r in replicated]
    return ExperimentOutcome(plan=plan, analysis=grid, replicated=folded)
