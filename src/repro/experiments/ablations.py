"""Ablation and sensitivity studies around the paper's design choices.

DESIGN.md calls out four modelling decisions worth probing:

1. **Switch fabric size** (Pr = 24): the C = 16 dip in Figures 4–7 comes
   from both C and N0 dropping to or below Pr; sweeping Pr moves the dip.
2. **Switch latency** (α_sw = 10 µs): how strongly the fat-tree's
   ``(2d−1)·α_sw`` term shapes the curves.
3. **Offered load** (λ = 0.25 msg/s, M ∈ {512, 1024}): the paper's Table-2
   operating point leaves queues almost idle; sweeping λ and M shows when
   queueing (and the finite-source correction) starts to matter.
4. **Finite-source correction** (Eq. 7) vs the *exact* closed-network
   solution (MVA): how good the paper's approximation is.

Every study is closed-form and runs in-process: the sweeps (1–3) in one
:func:`~repro.core.vectorized.evaluate_latency_grid` pass, bit-identical
to per-row :class:`~repro.core.model.AnalyticalModel` evaluations, and the
MVA comparison (4) as one call to each method.  None of them starts a
sweep task, so none takes an execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.model import AnalyticalModel, ModelConfig
from ..core.routing import outgoing_probability
from ..core.service_centers import build_service_centers
from ..core.vectorized import GridEvaluation, evaluate_latency_grid
from ..network.switch import SwitchFabric
from ..queueing.mva import MVAStation, mean_value_analysis
from ..viz.tables import format_markdown_table
from .scenarios import (
    CASE_1,
    NetworkScenario,
    PAPER_PARAMETERS,
    PaperParameters,
    build_scenario_system,
)

__all__ = [
    "AblationRow",
    "AblationStudy",
    "sweep_switch_ports",
    "sweep_switch_latency",
    "sweep_generation_rate",
    "sweep_message_size",
    "fixed_point_vs_exact_mva",
]


@dataclass(frozen=True)
class AblationRow:
    """One configuration point of an ablation study."""

    parameter: str
    value: float
    mean_latency_ms: float
    extra: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        """Flat row for tables."""
        row: Dict[str, object] = {
            "parameter": self.parameter,
            "value": self.value,
            "mean_latency_ms": self.mean_latency_ms,
        }
        row.update(self.extra)
        return row


@dataclass
class AblationStudy:
    """A named collection of ablation rows."""

    name: str
    rows: List[AblationRow]

    def to_rows(self) -> List[Dict[str, object]]:
        """Rows for the table formatters."""
        return [r.as_dict() for r in self.rows]

    def to_markdown(self) -> str:
        """The study as a Markdown table."""
        return f"### {self.name}\n\n" + format_markdown_table(self.to_rows())

    def latencies(self) -> List[float]:
        """Just the latency column, in row order."""
        return [r.mean_latency_ms for r in self.rows]


def _with_switch(parameters: PaperParameters, switch: Optional[SwitchFabric]) -> PaperParameters:
    """Parameters with the switch fabric swapped (None keeps the original)."""
    return parameters if switch is None else replace(parameters, switch=switch)


def _analysis_sweep(
    name: str,
    parameter: str,
    values: Sequence[float],
    evaluations: Sequence[Tuple[object, ModelConfig]],
    extra: Optional[Callable[[GridEvaluation, int], Dict[str, float]]] = None,
) -> AblationStudy:
    """Evaluate a closed-form sweep in one grid pass.

    Bit-identical to evaluating each row with a scalar
    :class:`AnalyticalModel` (the grid's per-point contract), so this
    preserves the results of the historical per-row sweep tasks exactly.
    """
    grid = evaluate_latency_grid(evaluations)
    rows = [
        AblationRow(
            parameter,
            float(value),
            float(grid.mean_latency_ms[i]),
            extra(grid, i) if extra is not None else {},
        )
        for i, value in enumerate(values)
    ]
    return AblationStudy(name, rows)


def sweep_switch_ports(
    ports_values: Sequence[int] = (4, 8, 16, 24, 32, 64),
    scenario: NetworkScenario = CASE_1,
    num_clusters: int = 16,
    architecture: str = "non-blocking",
    message_bytes: float = 1024.0,
    parameters: PaperParameters = PAPER_PARAMETERS,
) -> AblationStudy:
    """Ablation 1: how the switch port count Pr shapes the latency (closed-form)."""
    evaluations = [
        (
            build_scenario_system(
                scenario,
                num_clusters,
                _with_switch(
                    parameters,
                    SwitchFabric(ports=ports, latency_s=parameters.switch.latency_s),
                ),
            ),
            ModelConfig(
                architecture=architecture,
                message_bytes=message_bytes,
                generation_rate=parameters.generation_rate,
            ),
        )
        for ports in ports_values
    ]
    return _analysis_sweep("switch-port-count", "switch_ports", list(ports_values), evaluations)


def sweep_switch_latency(
    latency_values_us: Sequence[float] = (0.0, 5.0, 10.0, 20.0, 50.0, 100.0),
    scenario: NetworkScenario = CASE_1,
    num_clusters: int = 16,
    architecture: str = "non-blocking",
    message_bytes: float = 1024.0,
    parameters: PaperParameters = PAPER_PARAMETERS,
) -> AblationStudy:
    """Ablation 2: sensitivity to the per-switch latency α_sw (closed-form)."""
    evaluations = [
        (
            build_scenario_system(
                scenario,
                num_clusters,
                _with_switch(
                    parameters,
                    SwitchFabric(ports=parameters.switch.ports, latency_s=latency_us * 1e-6),
                ),
            ),
            ModelConfig(
                architecture=architecture,
                message_bytes=message_bytes,
                generation_rate=parameters.generation_rate,
            ),
        )
        for latency_us in latency_values_us
    ]
    return _analysis_sweep(
        "switch-latency", "switch_latency_us", list(latency_values_us), evaluations
    )


def sweep_generation_rate(
    rate_values: Sequence[float] = (0.25, 1.0, 10.0, 100.0, 500.0, 1000.0),
    scenario: NetworkScenario = CASE_1,
    num_clusters: int = 16,
    architecture: str = "non-blocking",
    message_bytes: float = 1024.0,
    parameters: PaperParameters = PAPER_PARAMETERS,
) -> AblationStudy:
    """Ablation 3a: offered load sweep (the paper's λ = 0.25 is nearly idle).

    Closed-form, in one grid pass; the per-row ICN2 utilisation and
    finite-source throttling factor come straight from the grid (the same
    divisions the scalar report performs, so the extras are bit-identical
    too).
    """
    system = build_scenario_system(scenario, num_clusters, parameters)
    evaluations = [
        (
            system,
            ModelConfig(
                architecture=architecture,
                message_bytes=message_bytes,
                generation_rate=float(rate),
            ),
        )
        for rate in rate_values
    ]

    def extras(grid: GridEvaluation, i: int) -> Dict[str, float]:
        return {
            "icn2_utilization": float(grid.icn2_utilization[i]),
            "throttling_factor": float(grid.throttling_factor[i]),
        }

    return _analysis_sweep(
        "generation-rate", "generation_rate", list(rate_values), evaluations, extra=extras
    )


def sweep_message_size(
    size_values: Sequence[float] = (64, 256, 512, 1024, 4096, 16384),
    scenario: NetworkScenario = CASE_1,
    num_clusters: int = 16,
    architecture: str = "non-blocking",
    parameters: PaperParameters = PAPER_PARAMETERS,
) -> AblationStudy:
    """Ablation 3b: message-size sweep beyond the paper's 512/1024 bytes."""
    system = build_scenario_system(scenario, num_clusters, parameters)
    evaluations = [
        (
            system,
            ModelConfig(
                architecture=architecture,
                message_bytes=float(size),
                generation_rate=parameters.generation_rate,
            ),
        )
        for size in size_values
    ]
    return _analysis_sweep("message-size", "message_bytes", list(size_values), evaluations)


def _fixed_point_method_row(
    scenario: NetworkScenario,
    num_clusters: int,
    architecture: str,
    message_bytes: float,
    generation_rate: float,
    parameters: PaperParameters,
) -> AblationRow:
    """The Eq. (7) fixed-point latency."""
    system = build_scenario_system(scenario, num_clusters, parameters)
    report = AnalyticalModel(
        system,
        ModelConfig(
            architecture=architecture,
            message_bytes=message_bytes,
            generation_rate=generation_rate,
        ),
    ).evaluate()
    return AblationRow(
        "method", 0.0, report.mean_latency_ms, {"label": 0.0, "throughput": float("nan")}
    )


def _exact_mva_method_row(
    scenario: NetworkScenario,
    num_clusters: int,
    architecture: str,
    message_bytes: float,
    generation_rate: float,
    parameters: PaperParameters,
) -> AblationRow:
    """The exact closed-network (MVA) latency.

    The closed model has the N processors as a delay (think) station with
    mean think time 1/λ, and the ICN1 / ECN1 / ICN2 centres visited with
    ratios (1−P), 2P and P respectively.  Each of the C ICN1s and C ECN1s
    is its own station: by symmetry a message visits a *specific* cluster's
    ICN1 with probability (1−P)/C and its ECN1 twice with probability P,
    i.e. visit ratio 2P/C.
    """
    system = build_scenario_system(scenario, num_clusters, parameters)
    n0 = system.processors_per_cluster
    c = system.num_clusters
    n_total = system.total_processors
    p_out = outgoing_probability(c, n0)
    centers = build_service_centers(system, architecture, message_bytes)

    stations = [
        MVAStation("think", visit_ratio=1.0, service_time=1.0 / generation_rate, is_delay=True),
        MVAStation("icn2", visit_ratio=p_out, service_time=centers.icn2_service_time),
    ]
    for i in range(c):
        stations.append(
            MVAStation(
                f"icn1[{i}]",
                visit_ratio=(1.0 - p_out) / c,
                service_time=centers.icn1_service_time,
            )
        )
        stations.append(
            MVAStation(
                f"ecn1[{i}]",
                visit_ratio=2.0 * p_out / c,
                service_time=centers.ecn1_service_time,
            )
        )
    mva = mean_value_analysis(stations, population=n_total)
    think_residence = 1.0 / generation_rate
    exact_latency_s = max(mva.cycle_time - think_residence, 0.0)
    return AblationRow(
        "method", 1.0, exact_latency_s * 1e3, {"label": 1.0, "throughput": mva.throughput}
    )


def fixed_point_vs_exact_mva(
    scenario: NetworkScenario = CASE_1,
    num_clusters: int = 16,
    architecture: str = "non-blocking",
    message_bytes: float = 1024.0,
    generation_rate: float = 0.25,
    parameters: PaperParameters = PAPER_PARAMETERS,
) -> AblationStudy:
    """Ablation 4: the Eq. (7) fixed point vs the exact closed-network (MVA) solution."""
    args = (scenario, num_clusters, architecture, message_bytes, generation_rate, parameters)
    return AblationStudy(
        "fixed-point-vs-exact-mva",
        [_fixed_point_method_row(*args), _exact_mva_method_row(*args)],
    )
