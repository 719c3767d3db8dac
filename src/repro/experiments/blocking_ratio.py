"""The §6 blocking-vs-non-blocking latency ratio study.

The paper's §6 states that, comparing the blocking-network results with the
non-blocking ones, "the average message latency of blocking network is
larger, something between 1.4 to 3.1 times".  This module computes the same
ratio — blocking latency divided by non-blocking latency at identical
(scenario, message size, cluster count) points — so the claim can be
checked quantitatively; the observed band is recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..core.model import ModelConfig
from ..core.vectorized import evaluate_latency_grid
from ..viz.tables import format_markdown_table
from .scenarios import (
    CASE_1,
    CASE_2,
    NetworkScenario,
    PAPER_PARAMETERS,
    PaperParameters,
    build_scenario_system,
)

if TYPE_CHECKING:
    from ..parallel.backends import Backend
    from ..parallel.checkpoint import SweepJournal
    from ..parallel.engine import SweepEngine

__all__ = ["RatioPoint", "BlockingRatioStudy", "run_blocking_ratio_study"]

#: The band the paper reports in §6.
PAPER_RATIO_BAND = (1.4, 3.1)


@dataclass(frozen=True)
class RatioPoint:
    """Blocking/non-blocking latency ratio at one configuration point."""

    scenario: str
    num_clusters: int
    message_bytes: int
    nonblocking_latency_ms: float
    blocking_latency_ms: float

    @property
    def ratio(self) -> float:
        """``blocking / non-blocking`` mean latency."""
        return self.blocking_latency_ms / self.nonblocking_latency_ms

    def as_dict(self) -> Dict[str, object]:
        """Flat row for tables."""
        return {
            "scenario": self.scenario,
            "clusters": self.num_clusters,
            "message_bytes": self.message_bytes,
            "nonblocking_ms": self.nonblocking_latency_ms,
            "blocking_ms": self.blocking_latency_ms,
            "ratio": self.ratio,
        }


@dataclass
class BlockingRatioStudy:
    """All ratio points plus the aggregate band."""

    points: List[RatioPoint]

    @property
    def min_ratio(self) -> float:
        """Smallest ratio over all points."""
        return min(p.ratio for p in self.points)

    @property
    def max_ratio(self) -> float:
        """Largest ratio over all points."""
        return max(p.ratio for p in self.points)

    @property
    def mean_ratio(self) -> float:
        """Average ratio over all points (``fsum``: the same on every Python)."""
        return math.fsum(p.ratio for p in self.points) / len(self.points)

    @property
    def paper_band(self) -> tuple:
        """The 1.4–3.1 band stated in the paper."""
        return PAPER_RATIO_BAND

    def blocking_always_slower(self) -> bool:
        """Whether the blocking architecture is slower at every point."""
        return all(p.ratio > 1.0 for p in self.points)

    def to_rows(self) -> List[Dict[str, object]]:
        """Rows (one per point) for the table formatters."""
        return [p.as_dict() for p in self.points]

    def to_markdown(self) -> str:
        """The study as a Markdown table plus a summary line."""
        table = format_markdown_table(self.to_rows())
        summary = (
            f"\n\nObserved ratio band: {self.min_ratio:.2f} - {self.max_ratio:.2f} "
            f"(mean {self.mean_ratio:.2f}); paper reports "
            f"{PAPER_RATIO_BAND[0]} - {PAPER_RATIO_BAND[1]}."
        )
        return table + summary


def run_blocking_ratio_study(
    scenarios: Optional[Sequence[NetworkScenario]] = None,
    cluster_counts: Optional[Sequence[int]] = None,
    message_sizes: Optional[Sequence[int]] = None,
    parameters: PaperParameters = PAPER_PARAMETERS,
    jobs: Optional[int] = 1,
    engine: Optional[SweepEngine] = None,
    backend: Optional[Union[str, Backend]] = None,
    checkpoint: Optional[Union[str, SweepJournal]] = None,
) -> BlockingRatioStudy:
    """Compute the blocking/non-blocking ratio over the paper's sweep grid.

    The study is closed-form: both architectures of every grid point are
    evaluated in a single
    :func:`~repro.core.vectorized.evaluate_latency_grid` sweep, which is
    bit-identical to the historical per-point
    :class:`~repro.core.model.AnalyticalModel` tasks on every execution
    backend (and ~two orders of magnitude faster at paper scale).  The
    ``jobs``/``engine``/``backend``/``checkpoint`` parameters are accepted
    for interface compatibility with the simulating drivers; a closed-form
    grid has no sweep tasks to distribute or journal, so they do not affect
    the computation.
    """
    cases = list(scenarios) if scenarios is not None else [CASE_1, CASE_2]
    counts = list(cluster_counts) if cluster_counts is not None else list(parameters.cluster_counts)
    sizes = list(message_sizes) if message_sizes is not None else list(parameters.message_sizes)

    # One (system, config) pair per (point, architecture), both
    # architectures adjacent so the ratio folds straight out of the grid.
    evaluations: List[Tuple[object, ModelConfig]] = []
    meta: List[Tuple[str, int, int]] = []
    for scenario in cases:
        systems = {nc: build_scenario_system(scenario, nc, parameters) for nc in counts}
        for message_bytes in sizes:
            for num_clusters in counts:
                meta.append((scenario.name, num_clusters, int(message_bytes)))
                for architecture in ("non-blocking", "blocking"):
                    evaluations.append(
                        (
                            systems[num_clusters],
                            ModelConfig(
                                architecture=architecture,
                                message_bytes=float(message_bytes),
                                generation_rate=parameters.generation_rate,
                            ),
                        )
                    )
    grid = evaluate_latency_grid(evaluations)
    points = [
        RatioPoint(
            scenario=name,
            num_clusters=num_clusters,
            message_bytes=message_bytes,
            nonblocking_latency_ms=float(grid.mean_latency_ms[2 * i]),
            blocking_latency_ms=float(grid.mean_latency_ms[2 * i + 1]),
        )
        for i, (name, num_clusters, message_bytes) in enumerate(meta)
    ]
    return BlockingRatioStudy(points=points)
