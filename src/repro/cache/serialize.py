"""Loss-free (de)hydration of experiment outcomes for the result cache.

The cache's bit-identity contract — a hit renders the *same bytes* as the
miss that filled it — rules out plain ``json.dumps(float)`` round trips for
anything downstream formatting touches.  Every float therefore travels as
``float.hex()`` (exact for finite values, NaN and the infinities alike),
every integer as a JSON integer, and the numpy arrays of a
:class:`~repro.core.vectorized.GridEvaluation` as hex lists restored with
their original dtypes.

Only the two execution passes are serialised — the analysis grid and the
per-point :class:`~repro.simulation.runner.ReplicatedResult` aggregates
(including each replication's full
:class:`~repro.simulation.simulator.SimulationResult`).  The plan side of
an :class:`~repro.experiments.pipeline.ExperimentOutcome` is *not* stored:
it is a deterministic function of the spec, and the store rebuilds it via
:func:`~repro.experiments.pipeline.build_plan` on every hit, so collectors
see exactly the object graph a cold run would have handed them.

``PAYLOAD_VERSION`` guards the schema: a payload written by a different
layout is treated as a corrupt entry (dropped and recomputed), never
misread.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

__all__ = [
    "PAYLOAD_VERSION",
    "CachePayloadError",
    "outcome_to_payload",
    "outcome_from_payload",
]

#: Schema version of cached payloads; bump on any layout change.
PAYLOAD_VERSION = 1


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


def _hex_map(mapping: Dict[str, float]) -> Dict[str, str]:
    return {str(k): _hex(v) for k, v in mapping.items()}


def _unhex_map(data: Any, name: str) -> Dict[str, float]:
    if not isinstance(data, dict):
        raise CachePayloadError(f"{name} must be an object, got {data!r}")
    return {str(k): _unhex(v) for k, v in data.items()}


# -- GridEvaluation ----------------------------------------------------------


def _grid_to_payload(grid) -> Dict[str, Any]:
    return {
        "mean_latency_s": [_hex(v) for v in grid.mean_latency_s.tolist()],
        "local_latency_s": [_hex(v) for v in grid.local_latency_s.tolist()],
        "remote_latency_s": [_hex(v) for v in grid.remote_latency_s.tolist()],
        "effective_rate": [_hex(v) for v in grid.effective_rate.tolist()],
        "outgoing_probability": [_hex(v) for v in grid.outgoing_probability.tolist()],
        "iterations": [int(v) for v in grid.iterations.tolist()],
        "icn2_utilization": [_hex(v) for v in grid.icn2_utilization.tolist()],
        "throttling_factor": [_hex(v) for v in grid.throttling_factor.tolist()],
        "scalar_fallback": [int(v) for v in grid.scalar_fallback],
    }


def _grid_from_payload(data: Any):
    from ..core.vectorized import GridEvaluation

    if not isinstance(data, dict):
        raise CachePayloadError(f"analysis payload must be an object, got {data!r}")

    def floats(name: str) -> np.ndarray:
        values = data.get(name)
        if not isinstance(values, list):
            raise CachePayloadError(f"analysis field {name!r} missing or not a list")
        return np.array([_unhex(v) for v in values], dtype=np.float64)

    iterations = data.get("iterations")
    if not isinstance(iterations, list):
        raise CachePayloadError("analysis field 'iterations' missing or not a list")
    return GridEvaluation(
        mean_latency_s=floats("mean_latency_s"),
        local_latency_s=floats("local_latency_s"),
        remote_latency_s=floats("remote_latency_s"),
        effective_rate=floats("effective_rate"),
        outgoing_probability=floats("outgoing_probability"),
        iterations=np.array([_int(v, "iterations") for v in iterations], dtype=np.int64),
        icn2_utilization=floats("icn2_utilization"),
        throttling_factor=floats("throttling_factor"),
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
        "confidence_interval": _interval_to_payload(result.confidence_interval),
        "mean_local_latency_s": _hex(result.mean_local_latency_s),
        "mean_remote_latency_s": _hex(result.mean_remote_latency_s),
        "measured_messages": int(result.measured_messages),
        "completed_messages": int(result.completed_messages),
        "remote_fraction": _hex(result.remote_fraction),
        "simulated_time_s": _hex(result.simulated_time_s),
        "utilizations": _hex_map(result.utilizations),
        "mean_occupancies": _hex_map(result.mean_occupancies),
        "seed": int(result.seed),
        "stats_mode": str(result.stats_mode),
        "latency_summary": (
            None if result.latency_summary is None else _hex_map(result.latency_summary)
        ),
    }
    # Fault columns only on fault-enabled runs, so fault-free payloads keep
    # their historical bytes.
    if result.availability is not None:
        payload["availability"] = _hex_map(result.availability)
        payload["dropped_messages"] = int(result.dropped_messages)
    return payload


def _simulation_result_from_payload(data: Any):
    from ..simulation.simulator import SimulationResult

    if not isinstance(data, dict):
        raise CachePayloadError(f"simulation result must be an object, got {data!r}")
    summary = data.get("latency_summary")
    availability = data.get("availability")
    return SimulationResult(
        mean_latency_s=_unhex(data.get("mean_latency_s")),
        confidence_interval=_interval_from_payload(data.get("confidence_interval")),
        mean_local_latency_s=_unhex(data.get("mean_local_latency_s")),
        mean_remote_latency_s=_unhex(data.get("mean_remote_latency_s")),
        measured_messages=_int(data.get("measured_messages"), "measured_messages"),
        completed_messages=_int(data.get("completed_messages"), "completed_messages"),
        remote_fraction=_unhex(data.get("remote_fraction")),
        simulated_time_s=_unhex(data.get("simulated_time_s")),
        utilizations=_unhex_map(data.get("utilizations"), "utilizations"),
        mean_occupancies=_unhex_map(data.get("mean_occupancies"), "mean_occupancies"),
        seed=_int(data.get("seed"), "seed"),
        stats_mode=str(data.get("stats_mode", "array")),
        latency_summary=None if summary is None else _unhex_map(summary, "latency_summary"),
        availability=(
            None if availability is None else _unhex_map(availability, "availability")
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
    from ..simulation.runner import ReplicatedResult

    if not isinstance(data, dict):
        raise CachePayloadError(f"replicated result must be an object, got {data!r}")
    per_replication = data.get("per_replication")
    if not isinstance(per_replication, list):
        raise CachePayloadError("replicated field 'per_replication' missing or not a list")
    return ReplicatedResult(
        replications=_int(data.get("replications"), "replications"),
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
    grid = None if analysis is None else _grid_from_payload(analysis)
    if grid is not None and len(grid) != len(plan.points):
        raise CachePayloadError(
            f"cached analysis grid has {len(grid)} points, plan has {len(plan.points)}"
        )
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
