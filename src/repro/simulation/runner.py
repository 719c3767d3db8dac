"""Replication management and analysis-vs-simulation comparison.

The paper validates the analytical model by overlaying its predictions on
simulation results (Figures 4–7).  :func:`run_replications` runs several
independent simulation replications and aggregates them;
:func:`validate_against_analysis` runs both the model and the simulator for
the same configuration and reports the relative error.

Replication seeds are derived from the master seed with
:func:`repro.parallel.seeding.spawn_seeds` (``numpy.random.SeedSequence.spawn``),
*not* ``seed + i``: additive seeds made adjacent sweep points share
almost-identical replication seed sets, correlating what should be
independent measurements.  Because the seed list is a pure function of the
master seed, running the replications serially (``jobs=1``, the default),
across a process pool (``jobs>1``) or through any other execution backend of
:class:`repro.parallel.engine.SweepEngine` (``backend="socket"`` for the TCP work
queue) produces bit-identical :class:`SimulationResult`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..cluster.system import MultiClusterSystem
from ..core.model import AnalyticalModel, ModelConfig, PerformanceReport
from ..errors import ConfigurationError
from ..parallel.backends import Backend
from ..parallel.checkpoint import SweepJournal
from ..parallel.engine import SweepEngine
from ..parallel.seeding import spawn_seeds
from ..stats.compare import relative_error
from ..stats.intervals import mean_confidence_interval
from ..workload.destinations import DestinationPolicy
from .components import LatencySink
from .results import ReplicatedResult, SimulationResult
from .simulator import MultiClusterSimulator, SimulationConfig

__all__ = [
    "ValidationPoint",
    "replication_configs",
    "run_simulation_task",
    "run_message_trace_task",
    "aggregate_replications",
    "run_replications",
    "validate_against_analysis",
]


@dataclass(frozen=True)
class ValidationPoint:
    """Analysis and simulation side by side for one configuration."""

    analysis: PerformanceReport
    simulation: ReplicatedResult

    @property
    def analysis_latency_ms(self) -> float:
        """Model-predicted latency (ms)."""
        return self.analysis.mean_latency_ms

    @property
    def simulation_latency_ms(self) -> float:
        """Simulated latency (ms)."""
        return self.simulation.mean_latency_ms

    @property
    def relative_error(self) -> float:
        """``|analysis − simulation| / simulation``."""
        return relative_error(self.analysis.mean_latency_s, self.simulation.mean_latency_s)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for tables."""
        return {
            "num_clusters": self.analysis.num_clusters,
            "message_bytes": self.analysis.message_bytes,
            "analysis_latency_ms": self.analysis_latency_ms,
            "simulation_latency_ms": self.simulation_latency_ms,
            "relative_error": self.relative_error,
        }


def replication_configs(config: SimulationConfig, replications: int) -> List[SimulationConfig]:
    """Per-replication configurations with seeds spawned from the master seed.

    Seeds come from ``SeedSequence(config.seed).spawn(replications)`` so
    every replication — and every replication of every *other* master seed —
    gets a decorrelated random stream.
    """
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications!r}")
    seeds = spawn_seeds(config.seed, replications)
    return [replace(config, seed=seed) for seed in seeds]


def run_simulation_task(
    system: MultiClusterSystem,
    config: SimulationConfig,
    destination_policy: Optional[DestinationPolicy] = None,
    arrival_factory=None,
) -> SimulationResult:
    """Run one simulation — the picklable unit of work shipped to pool workers.

    ``destination_policy`` and ``arrival_factory`` carry a scenario's
    non-default workload (hotspot/localized destinations, bursty arrivals);
    both must be picklable so socket/SSH workers can reconstruct them.
    """
    return MultiClusterSimulator(system, config, destination_policy, arrival_factory).run()


class _TraceRecordingSink(LatencySink):
    """Online-mode sink that still captures per-message timing rows.

    The online sink deliberately does not retain :class:`Message` objects;
    this subclass appends each measured message's ``(ident, created.hex(),
    completed.hex())`` row as it is recorded, so ``run_message_trace_task``
    can serve trace rows from bounded-memory runs too.  Statistics and event
    flow are untouched — the rows match the array path's exactly.
    """

    __slots__ = ("trace_rows",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace_rows: List[tuple] = []

    def record(self, message) -> None:
        super().record(message)
        if self.completed > self.warmup_messages:
            self.trace_rows.append(
                (message.ident, message.created_at.hex(), message.completed_at.hex())
            )


def run_message_trace_task(
    system: MultiClusterSystem,
    config: SimulationConfig,
    destination_policy: Optional[DestinationPolicy] = None,
    arrival_factory=None,
) -> List[tuple]:
    """Run one simulation and return its exact per-message timings.

    Each measured message becomes ``(ident, created_at.hex(),
    completed_at.hex())`` — ``float.hex()`` so the timings survive any
    serialization loss-free.  This is the unit of work behind the
    golden-trace bit-identity tests (per-message equality across execution
    backends, not just equality of means); being a library function, it is
    importable by socket/SSH worker daemons that cannot unpickle
    test-module closures.

    Both stats modes are supported: ``"array"`` reads the rows from the
    sink's retained messages (bit-identical legacy path); ``"online"``
    swaps in a :class:`_TraceRecordingSink` that captures the rows as they
    stream past without retaining the messages.  The sink never influences
    event ordering or random draws, so the rows are identical either way.
    """
    simulator = MultiClusterSimulator(system, config, destination_policy, arrival_factory)
    if config.stats_mode != "array":
        # run() reads ``self.sink`` when it starts, so replacing the sink
        # here keeps the run byte-identical.
        simulator.sink = _TraceRecordingSink(
            config.num_messages,
            int(config.num_messages * config.warmup_fraction),
            stats_mode=config.stats_mode,
            histogram_range=config.histogram_range,
        )
        simulator.run()
        return simulator.sink.trace_rows
    simulator.run()
    return [
        (m.ident, m.created_at.hex(), m.completed_at.hex()) for m in simulator.sink.messages
    ]


def aggregate_replications(results: Sequence[SimulationResult]) -> ReplicatedResult:
    """Fold per-replication results into a :class:`ReplicatedResult`."""
    results = list(results)
    latencies = np.array([r.mean_latency_s for r in results])
    interval = mean_confidence_interval(latencies) if len(results) >= 2 else None
    return ReplicatedResult(
        replications=len(results),
        mean_latency_s=float(latencies.mean()),
        latency_interval=interval,
        per_replication=results,
    )


def run_replications(
    system: MultiClusterSystem,
    config: SimulationConfig,
    replications: int = 3,
    destination_policy: Optional[DestinationPolicy] = None,
    jobs: Optional[int] = 1,
    engine: Optional[SweepEngine] = None,
    backend: Optional[Union[str, Backend]] = None,
    checkpoint: Optional[Union[str, SweepJournal]] = None,
) -> ReplicatedResult:
    """Run ``replications`` independent simulations and aggregate them.

    ``jobs`` (or a pre-configured ``engine``) fans the replications out
    across worker processes; ``backend`` selects the execution substrate
    (``"serial"``, ``"pool"``, ``"socket"`` or a
    :class:`~repro.parallel.Backend` instance such as an
    :class:`~repro.parallel.SSHBackend`).  The results are bit-identical
    for every choice because the per-replication seeds depend only on
    ``config.seed``.  ``checkpoint`` journals completed replications so a
    killed run resumes without repeating them.

    The run is a one-point campaign of the declarative pipeline
    (:mod:`repro.experiments.pipeline`): ``config`` is the point's master
    configuration, the replication seeds are spawned from ``config.seed``
    exactly as before, and execution flows through the same
    :class:`~repro.experiments.pipeline.ExperimentRunner` policy layer as
    every other driver.
    """
    # Imported lazily: the pipeline builds on this module's task helpers.
    from ..experiments.pipeline import (
        ExperimentRunner,
        PlanPoint,
        build_simulation_plan,
    )

    point = PlanPoint(
        index=0,
        num_clusters=system.num_clusters,
        message_bytes=config.message_bytes,
        generation_rate=config.generation_rate,
    )
    plan = build_simulation_plan(
        [(point, system, config)],
        replications=replications,
        label=lambda _point, i, rep_config: f"replication[{i}] seed={rep_config.seed}",
        destination_policy=destination_policy,
    )
    runner = ExperimentRunner(engine=engine, jobs=jobs, backend=backend, checkpoint=checkpoint)
    return runner.run_simulation_plan(plan)[0]


def validate_against_analysis(
    system: MultiClusterSystem,
    model_config: ModelConfig,
    sim_config: Optional[SimulationConfig] = None,
    replications: int = 1,
    jobs: Optional[int] = 1,
    engine: Optional[SweepEngine] = None,
    backend: Optional[Union[str, Backend]] = None,
    checkpoint: Optional[Union[str, SweepJournal]] = None,
) -> ValidationPoint:
    """Evaluate the analytical model and the simulator for the same setup.

    ``sim_config`` defaults to a configuration consistent with
    ``model_config`` (same architecture, message size and rate).
    """
    if sim_config is None:
        sim_config = SimulationConfig(
            architecture=model_config.architecture,
            message_bytes=model_config.message_bytes,
            generation_rate=model_config.generation_rate,
        )
    else:
        mismatches = []
        if sim_config.architecture != model_config.architecture:
            mismatches.append("architecture")
        if sim_config.message_bytes != model_config.message_bytes:
            mismatches.append("message_bytes")
        if sim_config.generation_rate != model_config.generation_rate:
            mismatches.append("generation_rate")
        if mismatches:
            raise ConfigurationError(
                f"simulation and model configurations disagree on {mismatches}"
            )

    analysis = AnalyticalModel(system, model_config).evaluate()
    simulation = run_replications(
        system, sim_config, replications,
        jobs=jobs, engine=engine, backend=backend, checkpoint=checkpoint,
    )
    return ValidationPoint(analysis=analysis, simulation=simulation)
