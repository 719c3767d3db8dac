"""Automatic generation of the paper-vs-measured reproduction report.

``EXPERIMENTS.md`` in the repository root is the curated record; this module
regenerates the same content programmatically so the report can be refreshed
after any model change::

    python -m repro report --output experiments_report.md

The generated report contains, per figure: the reproduced analysis series,
optional simulation series, the analysis-vs-simulation accuracy summary and
the qualitative-shape checks (growth with C, the C = 16 dip, message-size
ordering), plus the blocking-ratio study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from ..parallel.engine import SweepEngine, resolve_engine
from ..viz.tables import format_markdown_table
from .blocking_ratio import BlockingRatioStudy, run_blocking_ratio_study
from .figures import FIGURE_SPECS, FigureResult, run_figure
from .scenarios import PAPER_PARAMETERS, PaperParameters

if TYPE_CHECKING:
    from ..parallel.backends import Backend
    from ..parallel.checkpoint import SweepJournal

__all__ = ["ShapeChecks", "ReproductionReport", "generate_report"]


@dataclass(frozen=True)
class ShapeChecks:
    """Qualitative checks of one reproduced figure against the paper's claims."""

    grows_with_cluster_count: bool
    dip_at_c16: bool
    larger_messages_slower: bool

    def as_dict(self) -> Dict[str, bool]:
        """Dictionary form for table rendering."""
        return {
            "latency grows with C": self.grows_with_cluster_count,
            "dip at C=16": self.dip_at_c16,
            "M=1024 above M=512": self.larger_messages_slower,
        }

    @property
    def all_pass(self) -> bool:
        """Whether every shape check holds."""
        return all(self.as_dict().values())


def _shape_checks(result: FigureResult) -> ShapeChecks:
    counts = result.cluster_counts
    sizes = result.message_sizes

    def series(size: int) -> List[float]:
        return [p.analysis_latency_ms for p in result.points_for_size(size)]

    grows = all(series(size)[-1] > series(size)[0] for size in sizes) if counts else False

    dip = True
    if {8, 16, 32} <= set(counts):
        for size in sizes:
            by_count = dict(zip(counts, series(size)))
            dip = dip and by_count[16] < by_count[8] and by_count[16] < by_count[32]
    else:
        dip = False

    ordering = True
    if len(sizes) >= 2:
        low, high = min(sizes), max(sizes)
        low_series = series(low)
        high_series = series(high)
        ordering = all(h > l for h, l in zip(high_series, low_series))
    return ShapeChecks(grows, dip, ordering)


@dataclass
class ReproductionReport:
    """All regenerated artefacts plus Markdown rendering."""

    figures: Dict[int, FigureResult]
    ratio_study: BlockingRatioStudy
    parameters: PaperParameters

    def shape_checks(self, number: int) -> ShapeChecks:
        """Qualitative shape checks for one figure."""
        return _shape_checks(self.figures[number])

    def to_markdown(self) -> str:
        """Render the full report as Markdown."""
        lines: List[str] = [
            "# Reproduction report (auto-generated)",
            "",
            "Regenerated with `repro.experiments.report.generate_report`.",
            "",
            "## Parameters",
            "",
            f"* total processors: {self.parameters.total_processors}",
            f"* cluster counts: {list(self.parameters.cluster_counts)}",
            f"* message sizes: {list(self.parameters.message_sizes)} bytes",
            f"* generation rate: {self.parameters.generation_rate} msg/s",
            f"* switch: {self.parameters.switch}",
            "",
        ]
        for number in sorted(self.figures):
            result = self.figures[number]
            checks = self.shape_checks(number)
            lines.append(f"## Figure {number}: {result.spec.description}")
            lines.append("")
            lines.append(result.to_markdown())
            lines.append("")
            check_rows = [
                {"check": name, "holds": "yes" if ok else "NO"}
                for name, ok in checks.as_dict().items()
            ]
            lines.append(format_markdown_table(check_rows))
            summary = result.accuracy_summary()
            if summary is not None:
                lines.append("")
                lines.append(f"Analysis vs simulation: {summary}")
            lines.append("")
        lines.append("## Blocking vs non-blocking ratio (paper §6: 1.4 - 3.1x)")
        lines.append("")
        lines.append(
            f"Observed band: {self.ratio_study.min_ratio:.2f} - "
            f"{self.ratio_study.max_ratio:.2f} (mean {self.ratio_study.mean_ratio:.2f}); "
            f"blocking slower at every point: "
            f"{'yes' if self.ratio_study.blocking_always_slower() else 'NO'}."
        )
        lines.append("")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Write the Markdown report to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_markdown())


def generate_report(
    include_simulation: bool = False,
    cluster_counts: Optional[Sequence[int]] = None,
    simulation_messages: int = 2_000,
    figures: Optional[Sequence[int]] = None,
    parameters: PaperParameters = PAPER_PARAMETERS,
    seed: int = 0,
    jobs: Optional[int] = 1,
    engine: Optional[SweepEngine] = None,
    backend: Optional[Union[str, Backend]] = None,
    checkpoint: Optional[Union[str, SweepJournal]] = None,
    stats_mode: str = "array",
    cache: Optional[Any] = None,
) -> ReproductionReport:
    """Regenerate every figure (and the ratio study) and bundle them.

    ``include_simulation=False`` (the default) produces an analysis-only
    report in a few hundred milliseconds; with simulation enabled expect a
    few minutes at the default message count (``jobs>1`` — or an explicit
    ``engine``/``backend`` such as the socket or SSH work queue — fans each
    figure's simulations out across workers without changing the numbers).
    ``checkpoint`` journals every figure's completed simulations (the
    campaign's runs are matched by order on resume), so an interrupted
    report picks up where it was killed.  ``cache`` (a
    :class:`~repro.cache.ResultCache` or directory path) memoises each
    figure by content address, so a repeated report is served from disk.
    """
    from ..cache.store import coerce_cache

    cache = coerce_cache(cache)
    engine = resolve_engine(jobs, engine, backend, checkpoint=checkpoint)
    numbers = list(figures) if figures is not None else sorted(FIGURE_SPECS)
    results = {
        number: run_figure(
            number,
            include_simulation=include_simulation,
            cluster_counts=cluster_counts,
            simulation_messages=simulation_messages,
            parameters=parameters,
            # Per-figure master seeds; each is SeedSequence-hashed downstream
            # and the golden report fixtures pin these exact values.
            seed=seed + number,  # repro: noqa REP103
            engine=engine,
            stats_mode=stats_mode,
            cache=cache,
        )
        for number in numbers
    }
    ratio = run_blocking_ratio_study(
        cluster_counts=cluster_counts, parameters=parameters, engine=engine
    )
    return ReproductionReport(figures=results, ratio_study=ratio, parameters=parameters)
