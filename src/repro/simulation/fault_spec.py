"""The declarative failure/repair block of an experiment.

:class:`FaultSpec` is plain, validated data that experiment specs and the
scenario registry carry, and a cache hit loads both.  It therefore lives
apart from the fault-injection machinery of :mod:`repro.simulation.faults`,
which needs the DES kernel and NumPy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Mapping

from ..errors import ConfigurationError

__all__ = [
    "FaultSpec",
    "FAILURE_DISTRIBUTIONS",
    "REPAIR_DISTRIBUTIONS",
    "FAULT_TARGETS",
    "FAULT_POLICIES",
]

#: Time-to-failure families (``weibull`` with shape 1 is the exponential).
FAILURE_DISTRIBUTIONS = ("exponential", "weibull")
#: Repair-time families (``deterministic`` repairs take exactly ``mttr_s``).
REPAIR_DISTRIBUTIONS = ("exponential", "weibull", "deterministic")
#: What the faults attach to: ICN/ECN links, processor nodes, or both.
FAULT_TARGETS = ("links", "nodes", "both")
#: What a failure does to traffic that hits it.
FAULT_POLICIES = ("stall", "drop")


@dataclass(frozen=True)
class FaultSpec:
    """Declarative failure/repair block of an experiment.

    Parameters
    ----------
    mtbf_s:
        Mean time between failures (mean up time) in simulated seconds.
    mttr_s:
        Mean time to repair (mean down time) in simulated seconds.
    failure_distribution / failure_shape:
        Time-to-failure family — ``"exponential"`` or ``"weibull"`` with
        the given shape (``shape < 1`` models infant mortality,
        ``shape > 1`` wear-out; the mean stays ``mtbf_s`` either way).
    repair_distribution / repair_shape:
        Repair-time family; ``"deterministic"`` repairs take exactly
        ``mttr_s``.
    targets:
        ``"links"`` attaches schedules to every service centre (ICN1s,
        ECN1s and the ICN2), ``"nodes"`` to every processor (churn: a down
        node pauses generation until repaired), ``"both"`` to both.
    policy:
        ``"stall"`` (preemptive-resume, failure-induced latency) or
        ``"drop"`` (messages hitting a down target are lost and counted).
    """

    mtbf_s: float
    mttr_s: float
    failure_distribution: str = "exponential"
    failure_shape: float = 1.0
    repair_distribution: str = "exponential"
    repair_shape: float = 1.0
    targets: str = "links"
    policy: str = "stall"

    def __post_init__(self) -> None:
        for label, value in (
            ("mtbf_s", self.mtbf_s),
            ("mttr_s", self.mttr_s),
            ("failure_shape", self.failure_shape),
            ("repair_shape", self.repair_shape),
        ):
            # NaN fails both comparisons, so it is refused with infinity;
            # a JSON ``true`` is a bool, not a duration or a shape.
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 < value < math.inf
            ):
                raise ConfigurationError(
                    f"{label} must be a positive finite number, got {value!r}"
                )
        if self.failure_distribution not in FAILURE_DISTRIBUTIONS:
            raise ConfigurationError(
                f"failure_distribution must be one of {FAILURE_DISTRIBUTIONS}, "
                f"got {self.failure_distribution!r}"
            )
        if self.repair_distribution not in REPAIR_DISTRIBUTIONS:
            raise ConfigurationError(
                f"repair_distribution must be one of {REPAIR_DISTRIBUTIONS}, "
                f"got {self.repair_distribution!r}"
            )
        if self.targets not in FAULT_TARGETS:
            raise ConfigurationError(
                f"targets must be one of {FAULT_TARGETS}, got {self.targets!r}"
            )
        if self.policy not in FAULT_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {FAULT_POLICIES}, got {self.policy!r}"
            )

    @property
    def on_links(self) -> bool:
        return self.targets in ("links", "both")

    @property
    def on_nodes(self) -> bool:
        return self.targets in ("nodes", "both")

    def to_json(self) -> Dict[str, object]:
        """Plain JSON mapping (all fields; round-trips via :meth:`from_json`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Mapping) -> "FaultSpec":
        """Build a spec from a JSON mapping, rejecting unknown keys."""
        if isinstance(data, FaultSpec):
            return data
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"failures block must be a JSON object, got {type(data).__name__}"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown failures field(s) {unknown}; known fields: {sorted(known)}"
            )
        missing = sorted(name for name in ("mtbf_s", "mttr_s") if name not in data)
        if missing:
            raise ConfigurationError(f"failures block is missing required field(s) {missing}")
        return cls(**dict(data))
