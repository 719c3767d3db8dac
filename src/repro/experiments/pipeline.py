"""Declarative experiment pipeline: Spec → Plan → Execute → Collect → Artifact.

The figure sweeps, the reproduction report, the replication runner
behind ``repro validate``, the CLI's ``repro run`` verb and ``repro serve``
are built on the same five stages (the closed-form ratio study and
ablations evaluate in one in-process pass and need none of them):

1. **Spec** — an :class:`ExperimentSpec`: a frozen, JSON-round-trippable
   description of *what* to run (scenario, architecture, sweep axes,
   replication count, simulation budget, seed).  Nothing in a spec depends
   on *how* it will be executed.
2. **Plan** — :func:`build_plan` expands a spec against the scenario
   registry into an :class:`ExperimentPlan`: the ordered grid of
   :class:`PlanPoint`\\ s, the systems they run on and the analysis
   evaluations.  For simulating modes, :attr:`ExperimentPlan.simulation`
   holds a :class:`SimulationPlan` of seeded, labelled
   :class:`~repro.parallel.engine.SweepTask`\\ s, built when a simulation
   pass first reads it (a cache hit never does).  Per-point seeds are
   ``SeedSequence``-spawned from the spec seed and per-replication seeds
   from the point seed, so results are bit-identical on every execution
   backend and :class:`~repro.parallel.checkpoint.SweepJournal`
   fingerprints (task count + labels) are stable.
3. **Execute** — an :class:`ExperimentRunner` serves the plan from the
   result cache or runs its passes: the analysis grid in-process, the
   simulation tasks through one :class:`~repro.parallel.engine.SweepEngine`,
   which owns backend selection, checkpoint journaling and progress
   reporting.
4. **Collect** — a :class:`Collector` folds the per-point grid evaluation
   and the per-point replicated simulation results into a result type
   (``FigureCollector`` produces the figure drivers' ``FigureResult``).
5. **Artifact** — the default :class:`TableCollector` produces an
   :class:`ExperimentResult` with the table/CSV renderings the CLI prints.

Example
-------
>>> from repro.experiments.pipeline import ExperimentSpec, ExperimentRunner, build_plan
>>> spec = ExperimentSpec(scenario="case-1", mode="analysis",
...                       cluster_counts=(4, 16), message_sizes=(1024,))
>>> result = ExperimentRunner().run(build_plan(spec))
>>> [round(p.analysis_latency_ms, 3) for p in result.points]  # doctest: +SKIP
[...]
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.vectorized import GridEvaluation, evaluate_latency_grid
from ..errors import ConfigurationError, ExperimentError
from ..parallel.engine import SweepEngine, SweepTask, resolve_engine
from ..simulation.fault_spec import FaultSpec
from ..stats.compare import ComparisonSummary, compare_series
from ..stats.modes import STATS_MODES, validate_histogram_range
from ..viz.tables import format_fixed_width_table, format_markdown_table
from ..workload.destinations import DestinationPolicy
from .scenarios import (
    PAPER_PARAMETERS,
    PaperParameters,
    Scenario,
    get_scenario,
)

if TYPE_CHECKING:
    from ..core.model import ModelConfig
    from ..parallel.backends import Backend
    from ..parallel.checkpoint import SweepJournal
    from ..simulation.results import ReplicatedResult
    from ..simulation.simulator import SimulationConfig

# The model, the simulator, the replication runner and seeding (NumPy) are
# imported by the methods that compute with them: building a plan and
# serving it from the result cache loads none of them.

__all__ = [
    "EXPERIMENT_MODES",
    "ExperimentSpec",
    "PlanPoint",
    "SimulationPlan",
    "ExperimentPlan",
    "ExperimentOutcome",
    "ExperimentRunner",
    "Collector",
    "TableCollector",
    "ExperimentPointResult",
    "ExperimentResult",
    "build_plan",
    "build_simulation_plan",
    "smoke_spec",
]

#: Valid values of :attr:`ExperimentSpec.mode`.
EXPERIMENT_MODES = ("analysis", "simulate", "both")

#: Label callback signature: ``label(point, rep_index, rep_config) -> str``.
LabelFn = Callable[["PlanPoint", int, "SimulationConfig"], str]


def _spec_int(name: str, value) -> int:
    """Validate one integer spec field (integral floats coerced, rest rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExperimentError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ExperimentError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    return value


def _spec_real(name: str, value) -> None:
    """Reject a real-number spec field that is not a finite int or float.

    JSON carries ``NaN`` and ``Infinity``, and a NaN rate or size never lets
    the simulator finish; bools and strings are not numbers here either.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ExperimentError(f"{name} must be a finite number, got {value!r}")


# ---------------------------------------------------------------------------
# Stage 1: the spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment campaign.

    Parameters
    ----------
    scenario:
        Name of a scenario in :data:`~repro.experiments.scenarios.SCENARIO_REGISTRY`.
    mode:
        ``"analysis"`` (closed-form model only), ``"simulate"`` (validation
        simulator only) or ``"both"``.
    architecture:
        ``"non-blocking"`` / ``"blocking"``; ``None`` uses the scenario's
        default.
    cluster_counts, message_sizes, generation_rates:
        The sweep axes.  ``None`` falls back to the scenario's defaults and
        then the paper's Table-2 ranges.  The grid is ordered message size
        → cluster count → rate (the paper's figure-table row order).
    replications:
        Independent simulation replications per grid point.
    simulation_messages:
        Completed messages per simulation run.
    seed:
        Campaign master seed; per-point and per-replication seeds are
        ``SeedSequence``-spawned from it.
    switch_ports, switch_latency_us:
        Optional overrides of the Table-2 switch fabric.
    stats_mode:
        Observation-sink strategy of the simulation pass
        (:data:`repro.stats.modes.STATS_MODES`): ``"array"`` retains every
        sample (bit-identical legacy behaviour), ``"online"`` streams
        through bounded-memory accumulators.
    histogram_range:
        Optional explicit ``(low, high)`` range (seconds) for the online
        sink's quantile histogram, in place of the range the sink would
        otherwise calibrate on its first 1,024 observations.  Rejected with
        a :class:`~repro.errors.ConfigurationError` when
        ``stats_mode="array"`` — the array sink has exact percentiles and
        no histogram to configure.
    failures:
        Optional :class:`~repro.simulation.fault_spec.FaultSpec` (or its JSON
        object form) attaching seeded failure/repair schedules to links
        and/or nodes of every simulated point.  ``None`` (the default)
        keeps the always-up model *unless* the scenario declares its own
        ``default_failures`` (the failure-prone scenarios do); a spec-level
        block always wins over the scenario default.  Omitted from the
        JSON form when ``None``, so existing specs and cache keys are
        untouched.
    """

    scenario: str
    mode: str = "both"
    architecture: Optional[str] = None
    cluster_counts: Optional[Tuple[int, ...]] = None
    message_sizes: Optional[Tuple[float, ...]] = None
    generation_rates: Optional[Tuple[float, ...]] = None
    replications: int = 1
    simulation_messages: int = 2_000
    seed: int = 0
    switch_ports: Optional[int] = None
    switch_latency_us: Optional[float] = None
    stats_mode: str = "array"
    histogram_range: Optional[Tuple[float, float]] = None
    failures: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        # Coerce JSON-borne lists into tuples so specs stay hashable and
        # value-comparable after a round trip.
        for name in ("cluster_counts", "message_sizes", "generation_rates"):
            value = getattr(self, name)
            if value is not None:
                if not isinstance(value, (list, tuple)):
                    raise ExperimentError(f"{name} must be a list, got {value!r}")
                object.__setattr__(self, name, tuple(value))
        for name in ("message_sizes", "generation_rates"):
            for value in getattr(self, name) or ():
                _spec_real(name, value)
        if self.switch_latency_us is not None:
            _spec_real("switch_latency_us", self.switch_latency_us)
        # Integer fields must be genuine integers: JSON happily carries
        # 2.5 replications or seed 1.5, which would either crash deep in
        # SeedSequence with a raw TypeError or silently truncate (running
        # a different seed than the one reported).  Integral floats are
        # coerced, fractional values rejected.
        for name in ("replications", "simulation_messages", "seed"):
            object.__setattr__(self, name, _spec_int(name, getattr(self, name)))
        if self.switch_ports is not None:
            object.__setattr__(
                self, "switch_ports", _spec_int("switch_ports", self.switch_ports)
            )
        if self.cluster_counts is not None:
            object.__setattr__(
                self,
                "cluster_counts",
                tuple(_spec_int("cluster_counts", c) for c in self.cluster_counts),
            )
        if not self.scenario:
            raise ExperimentError("spec needs a scenario name")
        if self.mode not in EXPERIMENT_MODES:
            raise ExperimentError(
                f"mode must be one of {EXPERIMENT_MODES}, got {self.mode!r}"
            )
        if self.stats_mode not in STATS_MODES:
            raise ExperimentError(
                f"stats_mode must be one of {STATS_MODES}, got {self.stats_mode!r}"
            )
        if self.histogram_range is not None:
            try:
                object.__setattr__(
                    self,
                    "histogram_range",
                    validate_histogram_range(self.histogram_range),
                )
            except ValueError as exc:
                raise ExperimentError(str(exc)) from None
            if self.stats_mode != "online":
                raise ConfigurationError(
                    "histogram_range configures the online sink's quantile "
                    "histogram; it cannot be combined with stats_mode="
                    f"{self.stats_mode!r} (set stats_mode='online')"
                )
        if self.replications < 1:
            raise ExperimentError(f"replications must be >= 1, got {self.replications!r}")
        if self.simulation_messages < 1:
            raise ExperimentError(
                f"simulation_messages must be >= 1, got {self.simulation_messages!r}"
            )
        if self.cluster_counts is not None and (
            not self.cluster_counts or any(c < 1 for c in self.cluster_counts)
        ):
            raise ExperimentError(
                f"cluster_counts must be a non-empty list of positive ints, "
                f"got {self.cluster_counts!r}"
            )
        if self.message_sizes is not None and (
            not self.message_sizes or any(m <= 0 for m in self.message_sizes)
        ):
            raise ExperimentError(
                f"message_sizes must be a non-empty list of positive sizes, "
                f"got {self.message_sizes!r}"
            )
        if self.generation_rates is not None and (
            not self.generation_rates or any(r <= 0 for r in self.generation_rates)
        ):
            raise ExperimentError(
                f"generation_rates must be a non-empty list of positive rates, "
                f"got {self.generation_rates!r}"
            )
        if self.seed < 0:
            raise ExperimentError(f"seed must be non-negative, got {self.seed!r}")
        if self.switch_ports is not None and self.switch_ports < 2:
            raise ExperimentError(f"switch_ports must be >= 2, got {self.switch_ports!r}")
        if self.switch_latency_us is not None and self.switch_latency_us < 0:
            raise ExperimentError(
                f"switch_latency_us must be non-negative, got {self.switch_latency_us!r}"
            )
        if self.failures is not None and not isinstance(self.failures, FaultSpec):
            object.__setattr__(self, "failures", FaultSpec.from_json(self.failures))

    @property
    def include_analysis(self) -> bool:
        """Whether the campaign evaluates the closed-form model."""
        return self.mode in ("analysis", "both")

    @property
    def include_simulation(self) -> bool:
        """Whether the campaign runs the validation simulator."""
        return self.mode in ("simulate", "both")

    # -- JSON round trip ---------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """Plain-JSON dictionary (``None`` fields omitted)."""
        out: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value is None:
                continue
            if isinstance(value, FaultSpec):
                value = value.to_json()
            elif isinstance(value, tuple):
                value = list(value)
            out[spec_field.name] = value
        return out

    def to_json_text(self, indent: int = 2) -> str:
        """JSON text of :meth:`to_json` (trailing newline included)."""
        return json.dumps(self.to_json(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from a JSON dictionary, rejecting unknown keys.

        The retired ``engine_mode`` key is still accepted for one release:
        every closed-loop workload now runs on the one simulator loop, so
        the key is dropped with a :class:`DeprecationWarning` and the spec
        (and its cache key) equals one written without it.
        """
        if not isinstance(data, dict):
            raise ExperimentError(f"a spec must be a JSON object, got {type(data).__name__}")
        if "engine_mode" in data:
            warnings.warn(
                "the spec field 'engine_mode' is deprecated and ignored: "
                "every closed-loop workload runs on the one simulator loop",
                DeprecationWarning,
                stacklevel=2,
            )
            data = {key: value for key, value in data.items() if key != "engine_mode"}
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExperimentError(
                f"unknown spec field(s) {unknown}; known fields: {sorted(known)}"
            )
        if "scenario" not in data:
            raise ExperimentError("spec is missing the required 'scenario' field")
        return cls(**data)

    @classmethod
    def from_json_text(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"invalid spec JSON: {exc}") from exc
        return cls.from_json(data)

    @classmethod
    def from_file(cls, path: Union[str, "os.PathLike"]) -> "ExperimentSpec":
        """Load a spec from a ``SPEC.json`` file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json_text(handle.read())

    def to_file(self, path: Union[str, "os.PathLike"]) -> None:
        """Write the spec as ``SPEC.json``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json_text())


def smoke_spec(scenario: Union[str, Scenario], messages: int = 300, seed: int = 1) -> ExperimentSpec:
    """A tiny spec exercising ``scenario`` end to end (CI scenario matrix)."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return ExperimentSpec(
        scenario=scenario.name,
        mode="both" if scenario.analysis_capable else "simulate",
        cluster_counts=scenario.smoke_cluster_counts,
        message_sizes=(512,),
        replications=1,
        simulation_messages=messages,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Stage 2: the plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanPoint:
    """One grid point of a campaign (raw axis values, not yet coerced)."""

    index: int
    num_clusters: int
    message_bytes: Union[int, float]
    generation_rate: float


@dataclass
class SimulationPlan:
    """The seeded, labelled task list of a campaign's simulation pass."""

    tasks: List[SweepTask]
    task_point: List[int]
    n_points: int


@dataclass
class ExperimentPlan:
    """A fully expanded campaign: grid, systems, analysis and simulation.

    ``analysis_kind`` records which analytical model backs the analysis
    pass: ``"paper"`` for the §4 homogeneous model or
    ``"cluster-of-clusters"`` for the §7 heterogeneous extension used by
    scenarios with unequal clusters or per-cluster technologies.
    ``label`` names the simulation tasks (``None``: the default label).
    """

    spec: ExperimentSpec
    scenario: Scenario
    parameters: PaperParameters
    architecture: str
    points: List[PlanPoint]
    systems: Dict[int, Any]
    analysis_kind: str = "paper"
    label: Optional[LabelFn] = field(default=None, repr=False, compare=False)

    @property
    def include_analysis(self) -> bool:
        """Whether the plan carries an analysis pass."""
        return self.spec.include_analysis

    @property
    def include_simulation(self) -> bool:
        """Whether the plan carries a simulation pass."""
        return self.spec.include_simulation

    @cached_property
    def simulation(self) -> Optional[SimulationPlan]:
        """The seeded, labelled task list of the simulation pass, or ``None``.

        Built once, on first access: a cache hit or an analysis-only run
        never reads it.  Point seeds are ``SeedSequence``-spawned from
        ``spec.seed`` in grid order.
        """
        if not self.include_simulation:
            return None
        from ..parallel.seeding import spawn_seeds
        from ..simulation.simulator import SimulationConfig

        spec = self.spec
        # A spec-level failures block beats the scenario default; both are
        # carried inside the per-point SimulationConfig, so replication
        # seeding and remote workers see exactly the same fault model.
        failures = spec.failures if spec.failures is not None else self.scenario.default_failures
        point_runs = [
            (
                point,
                self.systems[point.num_clusters],
                SimulationConfig(
                    architecture=self.architecture,
                    message_bytes=float(point.message_bytes),
                    generation_rate=point.generation_rate,
                    num_messages=spec.simulation_messages,
                    seed=point_seed,
                    stats_mode=spec.stats_mode,
                    histogram_range=spec.histogram_range,
                    failures=failures,
                ),
            )
            for point, point_seed in zip(self.points, spawn_seeds(spec.seed, len(self.points)))
        ]
        return build_simulation_plan(
            point_runs,
            replications=spec.replications,
            label=self.label or _default_label(spec, self.architecture),
            destination_policy=self.scenario.destination_policy,
            arrival_factory=self.scenario.arrival_factory,
        )

    def analysis_evaluations(self) -> List[Tuple[Any, ModelConfig]]:
        """The ``(system, config)`` pairs of the analysis pass (either model)."""
        from ..core.model import ModelConfig

        return [
            (
                self.systems[point.num_clusters],
                ModelConfig(
                    architecture=self.architecture,
                    message_bytes=float(point.message_bytes),
                    generation_rate=point.generation_rate,
                ),
            )
            for point in self.points
        ]


def _apply_switch_overrides(
    spec: ExperimentSpec, parameters: PaperParameters
) -> PaperParameters:
    """Fold the spec's optional switch overrides into the parameters."""
    if spec.switch_ports is None and spec.switch_latency_us is None:
        return parameters
    from ..network.switch import SwitchFabric

    switch = SwitchFabric(
        ports=spec.switch_ports if spec.switch_ports is not None else parameters.switch.ports,
        latency_s=(
            spec.switch_latency_us * 1e-6
            if spec.switch_latency_us is not None
            else parameters.switch.latency_s
        ),
    )
    return replace(parameters, switch=switch)


def _default_label(spec: ExperimentSpec, architecture: str) -> LabelFn:
    def label(point: PlanPoint, rep_index: int, rep_config: SimulationConfig) -> str:
        return (
            f"{spec.scenario} {architecture} M={point.message_bytes} "
            f"C={point.num_clusters} lam={point.generation_rate:g} rep[{rep_index}]"
        )

    return label


def build_simulation_plan(
    point_runs: Sequence[Tuple[PlanPoint, Any, SimulationConfig]],
    replications: int,
    label: LabelFn,
    destination_policy=None,
    arrival_factory=None,
) -> SimulationPlan:
    """Expand per-point master configs into seeded, labelled sweep tasks.

    ``point_runs`` holds ``(point, system, master_config)`` triples; every
    point's replications get seeds spawned from ``master_config.seed`` (via
    :func:`~repro.simulation.runner.replication_configs`), so the task list
    — and therefore every backend's results and the checkpoint journal's
    fingerprint — is a pure function of the campaign definition.

    ``destination_policy`` is either a ready
    :class:`~repro.workload.destinations.DestinationPolicy` instance or a
    factory mapping a system's cluster sizes to one; ``arrival_factory``
    maps a processor rate to an arrival process.  Both are shipped *as task
    arguments* (when present) so remote workers reconstruct the exact
    workload.
    """
    from ..simulation.runner import replication_configs, run_simulation_task

    tasks: List[SweepTask] = []
    task_point: List[int] = []
    policy_cache: Dict[int, Any] = {}
    for point_idx, (point, system, master_config) in enumerate(point_runs):
        policy = None
        if isinstance(destination_policy, DestinationPolicy):
            policy = destination_policy
        elif destination_policy is not None:
            key = id(system)
            if key not in policy_cache:
                policy_cache[key] = destination_policy(
                    [c.num_processors for c in system.clusters]
                )
            policy = policy_cache[key]
        for rep_index, rep_config in enumerate(
            replication_configs(master_config, replications)
        ):
            # Paper-default workloads keep the historical 2-argument task
            # signature so their pickles (and golden results) are untouched.
            if policy is None and arrival_factory is None:
                args: Tuple[Any, ...] = (system, rep_config)
            else:
                args = (system, rep_config, policy, arrival_factory)
            tasks.append(
                SweepTask(
                    fn=run_simulation_task,
                    args=args,
                    label=label(point, rep_index, rep_config),
                )
            )
            task_point.append(point_idx)
    return SimulationPlan(tasks=tasks, task_point=task_point, n_points=len(point_runs))


def build_plan(
    spec: ExperimentSpec,
    parameters: PaperParameters = PAPER_PARAMETERS,
    label: Optional[LabelFn] = None,
) -> ExperimentPlan:
    """Expand ``spec`` into a runnable :class:`ExperimentPlan`.

    The grid is ordered message size → cluster count → generation rate,
    which reduces to the paper's figure-table row order for single-rate
    campaigns.  Every spec, scenario and system error is raised here,
    before any work starts; the simulation tasks are built later, by
    :attr:`ExperimentPlan.simulation`, and named by ``label``.
    """
    scenario = get_scenario(spec.scenario)
    if spec.include_analysis and not scenario.analysis_capable:
        raise ExperimentError(
            f"scenario {spec.scenario!r} does not support the closed-form "
            f"analysis (mode={spec.mode!r}); use mode='simulate'"
        )
    analysis_kind = "paper" if scenario.supports_analysis else "cluster-of-clusters"
    parameters = _apply_switch_overrides(spec, parameters)
    counts = (
        spec.cluster_counts
        if spec.cluster_counts is not None
        else (
            scenario.default_cluster_counts
            if scenario.default_cluster_counts is not None
            else parameters.cluster_counts
        )
    )
    sizes = (
        spec.message_sizes
        if spec.message_sizes is not None
        else (
            scenario.default_message_sizes
            if scenario.default_message_sizes is not None
            else parameters.message_sizes
        )
    )
    rates = (
        spec.generation_rates
        if spec.generation_rates is not None
        else (parameters.generation_rate,)
    )
    architecture = (
        spec.architecture if spec.architecture is not None else scenario.default_architecture
    )

    systems = {nc: scenario.build_system(nc, parameters) for nc in counts}
    points = [
        PlanPoint(index=i, num_clusters=nc, message_bytes=mb, generation_rate=rate)
        for i, (mb, nc, rate) in enumerate(
            (mb, nc, rate) for mb in sizes for nc in counts for rate in rates
        )
    ]

    return ExperimentPlan(
        spec=spec,
        scenario=scenario,
        parameters=parameters,
        architecture=architecture,
        points=points,
        systems=systems,
        analysis_kind=analysis_kind,
        label=label,
    )


# ---------------------------------------------------------------------------
# Stage 3: execution
# ---------------------------------------------------------------------------


@dataclass
class ExperimentOutcome:
    """Everything a collector needs: the plan plus both execution passes."""

    plan: ExperimentPlan
    analysis: Optional[GridEvaluation]
    replicated: Optional[List[ReplicatedResult]]


class ExperimentRunner:
    """Uniform execution policy for every pipeline campaign.

    One runner owns one :class:`~repro.parallel.SweepEngine`, so backend
    selection (serial / pool / socket / ssh), checkpoint journaling and
    progress reporting (a callback of the engine passed in) behave
    identically for every campaign that runs simulation tasks.

    Pass ``cache`` (a :class:`~repro.cache.ResultCache` or a directory
    path) to memoise whole campaigns by content address: a plan whose
    (spec, code-version) key already has an entry is served from disk,
    bit-identically, without executing either pass.
    """

    def __init__(
        self,
        engine: Optional[SweepEngine] = None,
        jobs: Optional[int] = 1,
        backend: Optional[Union[str, Backend]] = None,
        checkpoint: Optional[Union[str, SweepJournal]] = None,
        cache: Optional[Any] = None,
    ) -> None:
        self.engine = resolve_engine(jobs, engine, backend, checkpoint=checkpoint)
        from ..cache.store import coerce_cache

        self.cache = coerce_cache(cache)

    # -- execution passes --------------------------------------------------

    def run_plan_analysis(self, plan: ExperimentPlan) -> GridEvaluation:
        """Evaluate the analysis pass with the model ``plan.analysis_kind`` names.

        Bit-exact per point against scalar model evaluations.
        """
        if plan.analysis_kind == "cluster-of-clusters":
            from ..core.cluster_of_clusters import evaluate_heterogeneous_grid

            return evaluate_heterogeneous_grid(plan.analysis_evaluations())
        return evaluate_latency_grid(plan.analysis_evaluations())

    def run_simulation_plan(self, simulation: SimulationPlan) -> List[ReplicatedResult]:
        """Execute a simulation plan and fold results per point, in order."""
        from ..simulation.runner import aggregate_replications

        results = self.engine.run(simulation.tasks)
        per_point: List[List[Any]] = [[] for _ in range(simulation.n_points)]
        for point_idx, result in zip(simulation.task_point, results):
            per_point[point_idx].append(result)
        return [aggregate_replications(group) for group in per_point]

    # -- the full pipeline -------------------------------------------------

    def run_outcome(self, plan: ExperimentPlan) -> "ExperimentOutcome":
        """Execute ``plan``'s passes, or serve them from the result cache.

        With a cache attached, a plan whose content-addressed key has an
        entry skips both passes entirely; a miss computes as usual and then
        fills the entry.  Plans the cache cannot key (non-default paper
        parameters) always compute.
        """
        if self.cache is not None:
            cached = self.cache.get_outcome(plan)
            if cached is not None:
                return cached
        analysis = self.run_plan_analysis(plan) if plan.include_analysis else None
        replicated = (
            self.run_simulation_plan(plan.simulation) if plan.include_simulation else None
        )
        outcome = ExperimentOutcome(plan=plan, analysis=analysis, replicated=replicated)
        if self.cache is not None:
            self.cache.put_outcome(plan, outcome)
        return outcome

    def run(self, plan: ExperimentPlan, collector: Optional["Collector"] = None):
        """Execute ``plan`` and fold it through ``collector`` (table default)."""
        outcome = self.run_outcome(plan)
        if collector is None:
            collector = TableCollector()
        return collector.collect(outcome)


# ---------------------------------------------------------------------------
# Stages 4–5: collectors and the default artifact
# ---------------------------------------------------------------------------


class Collector:
    """Folds an :class:`ExperimentOutcome` into a result artefact.

    Driver modules subclass this to produce their result types
    (``FigureCollector`` → ``FigureResult``); :class:`TableCollector` is the
    generic artefact behind ``repro run``.
    """

    def collect(self, outcome: ExperimentOutcome):
        """Return the artefact for ``outcome``."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExperimentPointResult:
    """One grid point of a generic pipeline artefact."""

    num_clusters: int
    message_bytes: Union[int, float]
    generation_rate: float
    analysis_latency_ms: Optional[float] = None
    simulation_latency_ms: Optional[float] = None
    simulation_ci_half_width_ms: Optional[float] = None
    replications: int = 0
    #: Fault-run columns (None on always-up runs, keeping legacy row shape).
    availability: Optional[float] = None
    throughput_msg_s: Optional[float] = None
    dropped_messages: Optional[int] = None

    @property
    def relative_error(self) -> Optional[float]:
        """Analysis-vs-simulation relative error (None unless both ran)."""
        if self.analysis_latency_ms is None or self.simulation_latency_ms in (None, 0.0):
            return None
        return abs(self.analysis_latency_ms - self.simulation_latency_ms) / abs(
            self.simulation_latency_ms
        )

    def as_dict(self) -> Dict[str, Any]:
        """Flat row for the table formatters."""
        row: Dict[str, Any] = {
            "clusters": self.num_clusters,
            "message_bytes": self.message_bytes,
            "rate": self.generation_rate,
        }
        if self.analysis_latency_ms is not None:
            row["analysis_ms"] = self.analysis_latency_ms
        if self.simulation_latency_ms is not None:
            row["simulation_ms"] = self.simulation_latency_ms
            if self.relative_error is not None:
                row["rel_error"] = self.relative_error
        # The replication interval (replications >= 2 only, so one-run rows
        # keep their shape).
        if self.simulation_ci_half_width_ms is not None:
            row["ci_half_width_ms"] = self.simulation_ci_half_width_ms
        if self.availability is not None:
            row["availability"] = self.availability
        if self.throughput_msg_s is not None:
            row["throughput_msg_s"] = self.throughput_msg_s
        if self.dropped_messages is not None:
            row["dropped"] = self.dropped_messages
        return row


@dataclass
class ExperimentResult:
    """The generic pipeline artefact: one row per grid point."""

    spec: ExperimentSpec
    scenario_name: str
    architecture: str
    points: List[ExperimentPointResult] = field(default_factory=list)

    def to_rows(self) -> List[Dict[str, Any]]:
        """Rows (grid order) for the table/CSV formatters."""
        return [p.as_dict() for p in self.points]

    def to_text_table(self) -> str:
        """Aligned plain-text table of all points."""
        return format_fixed_width_table(self.to_rows())

    def to_markdown(self) -> str:
        """Markdown table of all points."""
        return format_markdown_table(self.to_rows())

    def accuracy_summary(self) -> Optional[ComparisonSummary]:
        """MAPE/RMSE of analysis vs simulation over points carrying both."""
        predicted = [
            p.analysis_latency_ms
            for p in self.points
            if p.analysis_latency_ms is not None and p.simulation_latency_ms is not None
        ]
        observed = [
            p.simulation_latency_ms
            for p in self.points
            if p.analysis_latency_ms is not None and p.simulation_latency_ms is not None
        ]
        if not predicted:
            return None
        return compare_series(predicted, observed)


class TableCollector(Collector):
    """The default collector: folds an outcome into an :class:`ExperimentResult`."""

    def collect(self, outcome: ExperimentOutcome) -> ExperimentResult:
        plan = outcome.plan
        result = ExperimentResult(
            spec=plan.spec,
            scenario_name=plan.scenario.name,
            architecture=plan.architecture,
        )
        analysis_column = (
            outcome.analysis.mean_latency_ms if outcome.analysis is not None else None
        )
        for point in plan.points:
            analysis_ms: Optional[float] = None
            sim_ms: Optional[float] = None
            ci_ms: Optional[float] = None
            replications = 0
            availability: Optional[float] = None
            throughput: Optional[float] = None
            dropped: Optional[int] = None
            if analysis_column is not None:
                analysis_ms = analysis_column[point.index]
            if outcome.replicated is not None:
                agg = outcome.replicated[point.index]
                sim_ms = agg.mean_latency_ms
                replications = agg.replications
                if agg.latency_interval is not None:
                    ci_ms = agg.latency_interval.half_width * 1e3
                # Fault runs carry availability on every replication; the
                # columns average (availability, throughput) and sum (drops)
                # across replications, and stay absent on always-up runs.
                # fsum: Python 3.12's sum() compensates rounding and 3.11's
                # does not, so a plain sum differs in the last digits.
                fault_reps = [
                    rep for rep in agg.per_replication if rep.availability is not None
                ]
                if fault_reps:
                    availability = math.fsum(
                        rep.mean_availability or 0.0 for rep in fault_reps
                    ) / len(fault_reps)
                    throughput = math.fsum(
                        rep.throughput_msg_s for rep in fault_reps
                    ) / len(fault_reps)
                    dropped = sum(rep.dropped_messages for rep in fault_reps)
            result.points.append(
                ExperimentPointResult(
                    num_clusters=point.num_clusters,
                    message_bytes=point.message_bytes,
                    generation_rate=point.generation_rate,
                    analysis_latency_ms=analysis_ms,
                    simulation_latency_ms=sim_ms,
                    simulation_ci_half_width_ms=ci_ms,
                    replications=replications,
                    availability=availability,
                    throughput_msg_s=throughput,
                    dropped_messages=dropped,
                )
            )
        return result
