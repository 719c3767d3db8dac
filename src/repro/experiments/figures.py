"""Drivers that regenerate the paper's Figures 4–7.

Each figure plots the average message latency (analysis and simulation)
against the number of clusters of a 256-node Super-Cluster for message
sizes of 512 and 1024 bytes:

* Figure 4 — non-blocking network, Case-1 (ICN1 = GE, ECN1/ICN2 = FE)
* Figure 5 — non-blocking network, Case-2 (ICN1 = FE, ECN1/ICN2 = GE)
* Figure 6 — blocking network, Case-1
* Figure 7 — blocking network, Case-2

:func:`run_figure` produces a :class:`FigureResult` with one
:class:`FigurePoint` per (message size, cluster count) combination; the
benchmarks and the CLI print the same rows/series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from ..errors import ExperimentError
from ..stats.compare import compare_series, ComparisonSummary
from ..viz.ascii_chart import line_chart
from ..viz.tables import format_fixed_width_table, format_markdown_table
from .pipeline import (
    Collector,
    ExperimentOutcome,
    ExperimentRunner,
    ExperimentSpec,
    build_plan,
)
from .scenarios import (
    CASE_1,
    CASE_2,
    NetworkScenario,
    PAPER_PARAMETERS,
    PaperParameters,
)

if TYPE_CHECKING:
    from ..parallel.backends import Backend
    from ..parallel.checkpoint import SweepJournal
    from ..parallel.engine import SweepEngine

__all__ = [
    "FigureSpec",
    "FigurePoint",
    "FigureResult",
    "FigureCollector",
    "FIGURE_SPECS",
    "run_figure",
]


@dataclass(frozen=True)
class FigureSpec:
    """Which scenario and architecture one paper figure uses."""

    number: int
    scenario: NetworkScenario
    architecture: str
    description: str

    @property
    def title(self) -> str:
        """Figure title matching the paper's caption style."""
        return (
            f"Figure {self.number}: Avg Message Latency vs Number of Clusters "
            f"for {self.architecture.capitalize()} Networks in {self.scenario.name.title()}"
        )


#: The four evaluation figures of the paper.
FIGURE_SPECS: Dict[int, FigureSpec] = {
    4: FigureSpec(4, CASE_1, "non-blocking", "Non-blocking fat-tree, Case-1 (ICN1=GE, ECN=FE)"),
    5: FigureSpec(5, CASE_2, "non-blocking", "Non-blocking fat-tree, Case-2 (ICN1=FE, ECN=GE)"),
    6: FigureSpec(6, CASE_1, "blocking", "Blocking linear array, Case-1 (ICN1=GE, ECN=FE)"),
    7: FigureSpec(7, CASE_2, "blocking", "Blocking linear array, Case-2 (ICN1=FE, ECN=GE)"),
}


@dataclass(frozen=True)
class FigurePoint:
    """One (message size, cluster count) point of a figure."""

    num_clusters: int
    message_bytes: int
    analysis_latency_ms: float
    simulation_latency_ms: Optional[float] = None
    simulation_ci_half_width_ms: Optional[float] = None

    @property
    def relative_error(self) -> Optional[float]:
        """Analysis-vs-simulation relative error (None without simulation)."""
        if self.simulation_latency_ms in (None, 0.0):
            return None
        return abs(self.analysis_latency_ms - self.simulation_latency_ms) / abs(
            self.simulation_latency_ms
        )

    def as_dict(self) -> Dict[str, object]:
        """Flat row for tables."""
        row: Dict[str, object] = {
            "clusters": self.num_clusters,
            "message_bytes": self.message_bytes,
            "analysis_ms": self.analysis_latency_ms,
        }
        if self.simulation_latency_ms is not None:
            row["simulation_ms"] = self.simulation_latency_ms
            row["rel_error"] = self.relative_error
        # The replication interval (replications >= 2 only, so one-run rows
        # keep their shape).
        if self.simulation_ci_half_width_ms is not None:
            row["ci_half_width_ms"] = self.simulation_ci_half_width_ms
        return row


@dataclass
class FigureResult:
    """All points of one reproduced figure plus formatting helpers."""

    spec: FigureSpec
    points: List[FigurePoint] = field(default_factory=list)
    parameters: PaperParameters = PAPER_PARAMETERS

    # -- accessors ---------------------------------------------------------------------

    def points_for_size(self, message_bytes: int) -> List[FigurePoint]:
        """Points of one message-size series, ordered by cluster count."""
        return sorted(
            (p for p in self.points if p.message_bytes == message_bytes),
            key=lambda p: p.num_clusters,
        )

    @property
    def cluster_counts(self) -> List[int]:
        """Distinct cluster counts in ascending order."""
        return sorted({p.num_clusters for p in self.points})

    @property
    def message_sizes(self) -> List[int]:
        """Distinct message sizes in ascending order."""
        return sorted({p.message_bytes for p in self.points})

    def series(self) -> Dict[str, List[float]]:
        """Latency series keyed like the paper's legend entries."""
        out: Dict[str, List[float]] = {}
        for size in self.message_sizes:
            pts = self.points_for_size(size)
            out[f"Analysis,M={size}"] = [p.analysis_latency_ms for p in pts]
            if any(p.simulation_latency_ms is not None for p in pts):
                out[f"Simulation,M={size}"] = [
                    p.simulation_latency_ms if p.simulation_latency_ms is not None else float("nan")
                    for p in pts
                ]
        return out

    def accuracy_summary(self) -> Optional[ComparisonSummary]:
        """MAPE / RMSE / max error of analysis vs simulation over all points."""
        predicted = [
            p.analysis_latency_ms for p in self.points if p.simulation_latency_ms is not None
        ]
        observed = [
            p.simulation_latency_ms for p in self.points if p.simulation_latency_ms is not None
        ]
        if not predicted:
            return None
        return compare_series(predicted, observed)

    # -- rendering ---------------------------------------------------------------------

    def to_rows(self) -> List[Dict[str, object]]:
        """Rows (one per point) suitable for the table formatters."""
        return [p.as_dict() for p in sorted(self.points, key=lambda p: (p.message_bytes, p.num_clusters))]

    def to_markdown(self) -> str:
        """The figure as a Markdown table."""
        return format_markdown_table(self.to_rows())

    def to_text_table(self) -> str:
        """The figure as an aligned plain-text table."""
        return format_fixed_width_table(self.to_rows())

    def to_chart(self, width: int = 70, height: int = 20) -> str:
        """ASCII rendition of the figure (latency vs number of clusters)."""
        return line_chart(
            [float(c) for c in self.cluster_counts],
            self.series(),
            width=width,
            height=height,
            title=self.spec.title,
            x_label="Number of Clusters (log scale)",
            y_label="Avg Message Latency (ms)",
            logx=True,
        )


class FigureCollector(Collector):
    """Folds a pipeline outcome into the traditional :class:`FigureResult`."""

    def __init__(self, spec: FigureSpec, parameters: PaperParameters) -> None:
        self.spec = spec
        self.parameters = parameters

    def collect(self, outcome: ExperimentOutcome) -> FigureResult:
        result = FigureResult(spec=self.spec, parameters=self.parameters)
        analysis_ms = outcome.analysis.mean_latency_ms
        for point in outcome.plan.points:
            sim_latency_ms: Optional[float] = None
            sim_ci_ms: Optional[float] = None
            if outcome.replicated is not None:
                agg = outcome.replicated[point.index]
                sim_latency_ms = agg.mean_latency_ms
                if agg.latency_interval is not None:
                    sim_ci_ms = agg.latency_interval.half_width * 1e3
            result.points.append(
                FigurePoint(
                    num_clusters=point.num_clusters,
                    message_bytes=int(point.message_bytes),
                    analysis_latency_ms=analysis_ms[point.index],
                    simulation_latency_ms=sim_latency_ms,
                    simulation_ci_half_width_ms=sim_ci_ms,
                )
            )
        return result


def run_figure(
    number: int,
    include_simulation: bool = True,
    cluster_counts: Optional[Sequence[int]] = None,
    message_sizes: Optional[Sequence[int]] = None,
    parameters: PaperParameters = PAPER_PARAMETERS,
    simulation_messages: Optional[int] = None,
    replications: int = 1,
    seed: int = 0,
    jobs: Optional[int] = 1,
    engine: Optional[SweepEngine] = None,
    backend: Optional[Union[str, Backend]] = None,
    checkpoint: Optional[Union[str, SweepJournal]] = None,
    stats_mode: str = "array",
    histogram_range: Optional[tuple] = None,
    cache: Optional[Any] = None,
) -> FigureResult:
    """Reproduce one of the paper's Figures 4–7.

    The driver is a thin shell over the declarative pipeline: the figure's
    scenario/architecture and the sweep axes become an
    :class:`~repro.experiments.pipeline.ExperimentSpec`, whose plan carries
    the analysis grid and the seeded, labelled simulation tasks
    (labels keep the historical ``fig<N> M=<mb> C=<nc> rep[<i>]`` shape, so
    existing checkpoint journals keep matching), and an
    :class:`~repro.experiments.pipeline.ExperimentRunner` executes or
    serves the plan and folds it through a :class:`FigureCollector`.

    Parameters
    ----------
    number:
        Figure number (4, 5, 6 or 7).
    include_simulation:
        Also run the validation simulator at every point (slower).  The
        analysis-only mode is used by quick tests and the analysis curves of
        the benchmarks.
    cluster_counts, message_sizes:
        Overrides of the sweep ranges (default: the paper's).
    simulation_messages:
        Number of messages per simulation run (default: the paper's 10 000).
    replications:
        Independent simulation replications per point.
    seed:
        Base random seed.  Every (message size, cluster count) point gets
        its own master seed spawned from this one, and every replication a
        seed spawned from the point's — so no two runs of the sweep share a
        random stream.
    jobs, engine, backend:
        Fan the ``points x replications`` independent simulations out across
        ``jobs`` worker processes (``None`` = all cores), through a
        pre-configured :class:`~repro.parallel.SweepEngine`, or over an
        explicit execution backend (``"serial"``, ``"pool"``, ``"socket"``
        or a :class:`~repro.parallel.Backend` instance — e.g. a socket work
        queue whose workers live on other machines, or an
        :class:`~repro.parallel.SSHBackend` that launches them itself).
        Results are bit-identical to the serial ``jobs=1`` default for
        every choice.
    checkpoint:
        Optional :class:`~repro.parallel.SweepJournal` (or journal path,
        opened, and created if missing, even when no simulation runs):
        completed simulations are journaled as they finish, and a killed
        sweep re-run with the same journal resumes bit-identically,
        re-executing only the unfinished tasks.
    stats_mode:
        Observation sinks of the simulation pass: ``"array"`` (default,
        bit-identical legacy behaviour) or ``"online"`` (bounded-memory
        streaming accumulators; see :mod:`repro.stats.sinks`).
    histogram_range:
        Optional explicit ``(low, high)`` range (seconds) for the online
        sink's quantile histogram, in place of the range calibrated on its
        first 1,024 observations; rejected when ``stats_mode="array"``.
    cache:
        Optional :class:`~repro.cache.ResultCache` (or cache directory
        path): a figure whose (spec, code-version) key has an entry is
        rendered from the stored outcome, bit-identically, without running
        either pass.  Figures built against non-default ``parameters`` are
        never cached (their spec under-describes them).
    """
    if number not in FIGURE_SPECS:
        raise ExperimentError(f"unknown figure {number}; the paper has figures 4-7")
    spec = FIGURE_SPECS[number]
    counts = list(cluster_counts) if cluster_counts is not None else list(parameters.cluster_counts)
    sizes = list(message_sizes) if message_sizes is not None else list(parameters.message_sizes)
    sim_messages = (
        simulation_messages if simulation_messages is not None else parameters.simulation_messages
    )

    experiment = ExperimentSpec(
        scenario=spec.scenario.name,
        mode="both" if include_simulation else "analysis",
        architecture=spec.architecture,
        cluster_counts=tuple(counts),
        message_sizes=tuple(sizes),
        generation_rates=(parameters.generation_rate,),
        replications=replications,
        simulation_messages=sim_messages,
        seed=seed,
        stats_mode=stats_mode,
        histogram_range=histogram_range,
    )
    plan = build_plan(
        experiment,
        parameters=parameters,
        label=lambda point, rep_index, rep_config: (
            f"fig{number} M={point.message_bytes} C={point.num_clusters} rep[{rep_index}]"
        ),
    )

    runner = ExperimentRunner(
        engine=engine, jobs=jobs, backend=backend, checkpoint=checkpoint, cache=cache
    )
    return runner.run(plan, FigureCollector(spec, parameters))
