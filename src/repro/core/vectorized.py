"""Evaluation of the analytical model over parameter grids.

The figure sweeps (§6, Figures 4–7) and the ablations evaluate the model at
every (message size, cluster count, ...) grid point.  A grid is a loop over
its points through the one solver of :mod:`repro.core.solver`, collected
into tuple columns; each point therefore equals the per-point
``AnalyticalModel(system, config).evaluate()`` bit for bit (asserted by the
test suite).  At the repository's grid sizes (tens of points) a plain loop
beats masking every point through a NumPy iteration: the fixed point of one
point costs microseconds, and the array set-up would cost more than it
saves.

A :class:`GridEvaluation` is plain data that the result cache rebuilds on
every hit, so this module imports the solver only inside the functions
that solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Sequence, Tuple

from ..cluster.system import MultiClusterSystem

if TYPE_CHECKING:
    from .model import ModelConfig
    from .solver import ClusterClasses

__all__ = ["GridEvaluation", "evaluate_latency_grid"]


@dataclass(frozen=True)
class GridEvaluation:
    """Per-point results of one analytical sweep.

    Every column is a tuple aligned with the ``evaluations`` sequence passed
    to :func:`evaluate_latency_grid`: floats, and ints for ``iterations``.
    Per-class quantities of a Cluster-of-Clusters point are folded by each
    class's share of the generated messages.
    """

    mean_latency_s: Tuple[float, ...]
    local_latency_s: Tuple[float, ...]
    remote_latency_s: Tuple[float, ...]
    effective_rate: Tuple[float, ...]
    outgoing_probability: Tuple[float, ...]
    iterations: Tuple[int, ...]
    #: ICN2 utilisation per point (``λ_I2 / µ_I2``, the same division the
    #: scalar report performs) — used by the offered-load ablation sweep.
    icn2_utilization: Tuple[float, ...]
    #: ``λ_eff / λ`` per point (1.0 at zero nominal rate, like the scalar
    #: report's ``throttling_factor`` property).
    throttling_factor: Tuple[float, ...]
    #: Always empty: every point is solved by the one solver.  Kept for
    #: readers of cached and traced grids.
    scalar_fallback: Tuple[int, ...] = ()

    @property
    def mean_latency_ms(self) -> Tuple[float, ...]:
        """Mean latency per point in milliseconds (the figures' unit)."""
        return tuple(value * 1e3 for value in self.mean_latency_s)

    def __len__(self) -> int:
        return len(self.mean_latency_s)


def evaluate_latency_grid(
    evaluations: Sequence[Tuple[MultiClusterSystem, ModelConfig]],
) -> GridEvaluation:
    """Evaluate the paper's model at every ``(system, config)`` point.

    Systems must satisfy the Super-Cluster assumptions (as for
    :class:`~repro.core.model.AnalyticalModel`); each point equals the
    per-point :meth:`~repro.core.model.AnalyticalModel.evaluate` exactly.
    """
    from .model import super_cluster_classes

    return solve_grid(evaluations, super_cluster_classes)


def solve_grid(
    evaluations: Sequence[Tuple[MultiClusterSystem, ModelConfig]],
    group: Callable[[MultiClusterSystem], ClusterClasses],
) -> GridEvaluation:
    """Solve every point and collect the results into columns.

    ``group`` checks and groups a system; a grid repeats each system over
    its sizes and architectures, so each is grouped once.
    """
    from .solver import solve

    # Keyed by identity; holding the system keeps its id from being reused.
    groupings: Dict[int, Tuple[MultiClusterSystem, ClusterClasses]] = {}
    rows = []
    for system, config in evaluations:
        if id(system) not in groupings:
            groupings[id(system)] = (system, group(system))
        solution = solve(system, groupings[id(system)][1], config)
        rate = solution.fold([t.per_processor_rate for t in solution.traffic])
        nominal = solution.fold(solution.nominal_rates)
        rows.append((
            solution.mean_latency,
            solution.fold([item.local_latency for item in solution.latency]),
            solution.fold([item.remote_latency for item in solution.latency]),
            rate,
            solution.fold([item.outgoing_probability for item in solution.latency]),
            solution.utilizations[0]["icn2"],
            rate / nominal if nominal > 0 else 1.0,
            solution.iterations,
        ))
    mean, local, remote, rate, outgoing, icn2_util, throttling, iterations = (
        tuple(zip(*rows)) or ((),) * 8
    )
    return GridEvaluation(
        mean_latency_s=mean,
        local_latency_s=local,
        remote_latency_s=remote,
        effective_rate=rate,
        outgoing_probability=outgoing,
        iterations=iterations,
        icn2_utilization=icn2_util,
        throttling_factor=throttling,
    )
