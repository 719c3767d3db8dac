"""Analytical extension to Cluster-of-Clusters systems (the paper's future work).

Section 7 of the paper names two extensions it leaves open: network
*technology* heterogeneity (different α/β per cluster) and the
Cluster-of-Clusters family (clusters of different sizes and processor
types).  This module provides that extension, generalising Eqs. (1)–(8) and
(15)–(16) per class of identical clusters (see :mod:`repro.core.solver`):

* Per-cluster outgoing probability (generalised Eq. 8):
  ``P_i = (N − N_i) / (N − 1)``.
* A message leaving cluster j picks its destination uniformly among the
  ``N − N_j`` outside nodes and returns through the destination cluster's
  ECN1.
* The finite-source correction (Eqs. 6–7) throttles each class by the
  waiting processors at its own ICN1 and ECN1 queues (``2·L_E1 + L_I1``,
  as in Eq. 6) plus its traffic share of the ICN2 queue.
* Mean message latency: the Eq. (15) average runs over source clusters
  (weighted by their share of generated traffic) and, for remote messages,
  over destination clusters (weighted by their share of the outside nodes).

On a homogeneous system there is one class and the extension equals the
paper's :class:`~repro.core.model.AnalyticalModel` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..cluster.system import MultiClusterSystem
from ..errors import ConfigurationError
from .model import ModelConfig
from .solver import ClusterClasses, cluster_classes, solve
from .vectorized import GridEvaluation, solve_grid

__all__ = [
    "HeterogeneousModelConfig",
    "HeterogeneousReport",
    "ClusterOfClustersModel",
    "evaluate_heterogeneous_grid",
]

#: Both models take the same configuration.
HeterogeneousModelConfig = ModelConfig


@dataclass(frozen=True)
class HeterogeneousReport:
    """Outcome of a Cluster-of-Clusters evaluation."""

    system_name: str
    architecture: str
    num_clusters: int
    total_processors: int
    message_bytes: float
    mean_latency_s: float
    per_cluster_local_latency_s: Dict[str, float]
    per_cluster_remote_latency_s: Dict[str, float]
    per_cluster_effective_rate: Dict[str, float]
    per_cluster_outgoing_probability: Dict[str, float]
    utilizations: Dict[str, float]
    iterations: int

    @property
    def mean_latency_ms(self) -> float:
        """Mean message latency in milliseconds."""
        return self.mean_latency_s * 1e3


class ClusterOfClustersModel:
    """Analytical model for heterogeneous (unequal) multi-cluster systems."""

    def __init__(
        self,
        system: MultiClusterSystem,
        config: Optional[ModelConfig] = None,
    ) -> None:
        self.system = system
        self.config = config if config is not None else ModelConfig()
        self._classes = _extension_classes(system)

    def evaluate(self) -> HeterogeneousReport:
        """Run the heterogeneous model and return a :class:`HeterogeneousReport`."""
        solution = solve(self.system, self._classes, self.config)
        traffic, latency, util = solution.traffic, solution.latency, solution.utilizations
        members = [
            (c.name, k) for c, k in zip(self.system.clusters, self._classes.cluster_class)
        ]
        return HeterogeneousReport(
            system_name=self.system.name,
            architecture=solution.architecture,
            num_clusters=len(members),
            total_processors=self.system.total_processors,
            message_bytes=self.config.message_bytes,
            mean_latency_s=solution.mean_latency,
            per_cluster_local_latency_s={n: latency[k].local_latency for n, k in members},
            per_cluster_remote_latency_s={n: latency[k].remote_latency for n, k in members},
            per_cluster_effective_rate={n: traffic[k].per_processor_rate for n, k in members},
            per_cluster_outgoing_probability={
                n: traffic[k].outgoing_probability for n, k in members
            },
            utilizations={
                **{f"icn1[{n}]": util[k]["icn1"] for n, k in members},
                **{f"ecn1[{n}]": util[k]["ecn1"] for n, k in members},
                "icn2": util[0]["icn2"],
            },
            iterations=solution.iterations,
        )


def _extension_classes(system: MultiClusterSystem) -> ClusterClasses:
    """:func:`~repro.core.solver.cluster_classes` for a system of ≥ 2 processors."""
    if system.total_processors < 2:
        raise ConfigurationError("a cluster-of-clusters model needs at least 2 processors")
    return cluster_classes(system)


def evaluate_heterogeneous_grid(
    evaluations: Sequence[Tuple[MultiClusterSystem, ModelConfig]],
) -> GridEvaluation:
    """Evaluate the Cluster-of-Clusters model at every ``(system, config)`` point.

    The counterpart of :func:`repro.core.vectorized.evaluate_latency_grid`
    for scenarios whose systems the §4 homogeneous model cannot describe
    (unequal cluster sizes, per-cluster technologies): the experiment
    pipeline's analysis pass feeds either function into the same
    :class:`~repro.core.vectorized.GridEvaluation` consumers.  Per-class
    quantities are folded to one scalar per point by each class's share of
    generated traffic, the weighting of the overall mean latency.
    """
    return solve_grid(evaluations, _extension_classes)
