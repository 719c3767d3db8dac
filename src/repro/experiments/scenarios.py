"""The paper's evaluation scenarios and parameters, plus the open scenario registry.

Table 1 defines two network-heterogeneity cases for the Super-Cluster
platform:

========  ==================  ==================
Case      ICN1                ECN1 and ICN2
========  ==================  ==================
Case 1    Gigabit Ethernet    Fast Ethernet
Case 2    Fast Ethernet       Gigabit Ethernet
========  ==================  ==================

Table 2 fixes the model parameters: GE 80 µs / 94 MB/s, FE 50 µs /
10.5 MB/s, 24-port switches with 10 µs latency, and a message generation
rate of 0.25 msg/s.  The evaluation platform has N = 256 nodes and sweeps
the number of clusters over the powers of two from 1 to 256 with message
sizes of 512 and 1024 bytes.

Beyond the two paper cases, this module keeps the **open scenario
registry**: every :class:`Scenario` bundles a system builder with the
workload (destination policy, arrival process) and the sensible defaults
needed to run it end to end through the declarative pipeline
(:mod:`repro.experiments.pipeline`) and the ``repro run`` /
``repro scenarios`` CLI verbs.  New studies register a scenario here
instead of adding another bespoke experiment driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..cluster.presets import das2_like_system, llnl_like_system, paper_evaluation_system
from ..cluster.system import MultiClusterSystem
from ..errors import ExperimentError
from ..network.switch import PAPER_SWITCH, SwitchFabric
from ..network.technologies import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    MYRINET,
    NetworkTechnology,
)
from ..simulation.fault_spec import FaultSpec
from ..workload.arrivals import ArrivalProcess, ErlangArrivals, HyperexponentialArrivals
from ..workload.destinations import (
    DestinationPolicy,
    HotspotDestinations,
    LocalizedDestinations,
)

__all__ = [
    "NetworkScenario",
    "CASE_1",
    "CASE_2",
    "SCENARIOS",
    "PaperParameters",
    "PAPER_PARAMETERS",
    "build_scenario_system",
    "validate_cluster_count",
    "Scenario",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "get_scenario",
    "scenario_names",
]


@dataclass(frozen=True)
class NetworkScenario:
    """One row of Table 1: which technology serves the ICN1 vs ECN1/ICN2."""

    name: str
    icn1_technology: NetworkTechnology
    ecn_technology: NetworkTechnology

    @property
    def icn2_technology(self) -> NetworkTechnology:
        """Table 1 assigns the same technology to ECN1 and ICN2."""
        return self.ecn_technology

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.name}: ICN1={self.icn1_technology.name}, "
            f"ECN1/ICN2={self.ecn_technology.name}"
        )


#: Table 1, Case 1: fast intra-cluster network, slow inter-cluster network.
CASE_1 = NetworkScenario("case-1", GIGABIT_ETHERNET, FAST_ETHERNET)

#: Table 1, Case 2: slow intra-cluster network, fast inter-cluster network.
CASE_2 = NetworkScenario("case-2", FAST_ETHERNET, GIGABIT_ETHERNET)

#: Both scenarios by name.
SCENARIOS: Dict[str, NetworkScenario] = {"case-1": CASE_1, "case-2": CASE_2}


@dataclass(frozen=True)
class PaperParameters:
    """Table 2 plus the sweep ranges used by Figures 4–7."""

    total_processors: int = 256
    cluster_counts: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    message_sizes: Tuple[int, ...] = (512, 1024)
    generation_rate: float = 0.25
    simulation_messages: int = 10_000
    switch: SwitchFabric = PAPER_SWITCH

    @property
    def switch_ports(self) -> int:
        """Pr = 24 (Table 2)."""
        return self.switch.ports

    @property
    def switch_latency_s(self) -> float:
        """α_sw = 10 µs (Table 2)."""
        return self.switch.latency_s


#: The default evaluation parameters of the paper.
PAPER_PARAMETERS = PaperParameters()


def validate_cluster_count(num_clusters: int, total_processors: int) -> None:
    """Check that ``num_clusters`` can split ``total_processors`` evenly.

    ``num_clusters >= 1`` and divisibility are validated *separately* so the
    error names the actual failure.  (A previous guard short-circuited on
    membership in the paper's sweep list, letting any divisor-of-N count
    through while the message always claimed a divisibility failure — and
    ``num_clusters=0`` crashed with ``ZeroDivisionError`` before reaching
    the message at all.)
    """
    if num_clusters < 1:
        raise ExperimentError(f"num_clusters must be >= 1, got {num_clusters!r}")
    if total_processors % num_clusters != 0:
        raise ExperimentError(
            f"num_clusters={num_clusters} does not divide N={total_processors}"
        )


def build_scenario_system(
    scenario: NetworkScenario,
    num_clusters: int,
    parameters: PaperParameters = PAPER_PARAMETERS,
) -> MultiClusterSystem:
    """Build the 256-node Super-Cluster of Figures 4–7 for one scenario and C."""
    validate_cluster_count(num_clusters, parameters.total_processors)
    return paper_evaluation_system(
        num_clusters=num_clusters,
        icn_technology=scenario.icn1_technology,
        ecn_technology=scenario.ecn_technology,
        total_processors=parameters.total_processors,
        switch=parameters.switch,
    )


# ---------------------------------------------------------------------------
# The open scenario registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment scenario: system shape + workload + defaults.

    A scenario composes a system builder (which may produce heterogeneous
    Cluster-of-Clusters shapes) with optional workload overrides — a
    destination-policy factory (called with the built system's cluster
    sizes) and an arrival-process factory (called with each processor's
    scaled request rate).  ``supports_analysis`` records whether the
    paper's §4 closed-form model is *meaningful* for the scenario: it is
    ``False`` both when the model cannot be evaluated at all (unequal
    clusters, per-cluster technologies) and when the workload violates the
    uniform-routing assumption the model's ``P`` is derived from
    (hotspot/localized destinations).  Bursty-arrival scenarios keep it
    ``True``: the model is the paper's Poisson prediction, and the gap to
    the bursty simulation is exactly what the scenario measures.
    """

    name: str
    description: str
    build_system: Callable[[int, "PaperParameters"], MultiClusterSystem]
    supports_analysis: bool = True
    default_architecture: str = "non-blocking"
    default_cluster_counts: Optional[Tuple[int, ...]] = None
    default_message_sizes: Optional[Tuple[int, ...]] = None
    destination_policy: Optional[Callable[[Sequence[int]], DestinationPolicy]] = None
    arrival_factory: Optional[Callable[[float], ArrivalProcess]] = None
    #: Tiny cluster-count axis used by smoke specs (CI scenario matrix).
    smoke_cluster_counts: Tuple[int, ...] = (2, 4)
    #: Whether this scenario reproduces part of the paper's own evaluation.
    paper: bool = False
    #: Whether the §7 Cluster-of-Clusters extension
    #: (:class:`repro.core.cluster_of_clusters.ClusterOfClustersModel`)
    #: provides the scenario's analytical curve when the §4 homogeneous
    #: model does not apply (unequal clusters, per-cluster technologies).
    heterogeneous_analysis: bool = False
    #: Failure/repair block applied to every simulated point unless the
    #: spec carries its own ``failures`` (failure-prone scenarios set this;
    #: the analytical models assume always-up targets, so such scenarios
    #: are simulation-only).
    default_failures: Optional[FaultSpec] = None

    @property
    def analysis_capable(self) -> bool:
        """Whether *some* analytical model covers this scenario."""
        return self.supports_analysis or self.heterogeneous_analysis

    def system(
        self, num_clusters: int, parameters: "PaperParameters" = None
    ) -> MultiClusterSystem:
        """Build the scenario's system for one cluster count."""
        return self.build_system(
            num_clusters, parameters if parameters is not None else PAPER_PARAMETERS
        )

    def describe(self) -> str:
        """Human-readable one-liner for listings."""
        workload = []
        if self.destination_policy is not None:
            workload.append("custom destinations")
        if self.arrival_factory is not None:
            workload.append("custom arrivals")
        extras = f" [{', '.join(workload)}]" if workload else ""
        return f"{self.name}: {self.description}{extras}"


#: All registered scenarios by name (insertion-ordered).
SCENARIO_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add ``scenario`` to the registry (``replace=True`` to overwrite)."""
    if not replace and scenario.name in SCENARIO_REGISTRY:
        raise ExperimentError(
            f"scenario {scenario.name!r} is already registered; "
            "pass replace=True to overwrite it"
        )
    SCENARIO_REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario, with a helpful error."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(sorted(SCENARIO_REGISTRY))}"
        ) from None


def scenario_names() -> Tuple[str, ...]:
    """Names of all registered scenarios, in registration order."""
    return tuple(SCENARIO_REGISTRY)


# -- system builders ---------------------------------------------------------


def _mixed_nic_parameters(technologies: Sequence[NetworkTechnology]) -> Tuple[float, float]:
    """Effective ``(α, β)`` of per-node NICs under Eq. 10's pairwise rule.

    A pair ``i ≠ j`` transmits in ``T_ij = α_ij + M·β_ij`` with the slower
    endpoint dominating (``α_ij = max(α_i, α_j)``, ``β_ij = max(β_i, β_j)``).
    Over the ``n(n-1)`` ordered pairs, ``α_eff = mean T(0)`` and
    ``β_eff = mean T(1) − mean T(0)``, each mean a correctly rounded sum.
    """
    pairs = [
        (a, b)
        for i, a in enumerate(technologies)
        for j, b in enumerate(technologies)
        if i != j
    ]
    alpha = math.fsum(max(a.alpha, b.alpha) for a, b in pairs) / len(pairs)
    one_byte = math.fsum(max(a.alpha, b.alpha) + max(a.beta, b.beta) for a, b in pairs)
    return alpha, one_byte / len(pairs) - alpha


def _mixed_nic_technology(
    technologies: Sequence[NetworkTechnology], name: str = "mixed-nics"
) -> NetworkTechnology:
    """Aggregate per-node NIC technologies into one effective technology."""
    alpha, beta = _mixed_nic_parameters(technologies)
    return NetworkTechnology(
        name=name, latency_s=alpha, bandwidth_bytes_per_s=1.0 / beta
    )


def _build_heterogeneous_nics(
    num_clusters: int, parameters: PaperParameters
) -> MultiClusterSystem:
    """Per-cluster NIC mix: alternating ICN1 technologies, matrix-derived ICN2."""
    validate_cluster_count(num_clusters, parameters.total_processors)
    if num_clusters < 2:
        raise ExperimentError(
            "scenario 'het-nics' mixes per-cluster technologies and needs "
            f"num_clusters >= 2, got {num_clusters}"
        )
    size = parameters.total_processors // num_clusters
    icn = [
        GIGABIT_ETHERNET if i % 2 == 0 else MYRINET for i in range(num_clusters)
    ]
    ecn = [
        GIGABIT_ETHERNET if i % 2 == 0 else FAST_ETHERNET
        for i in range(num_clusters)
    ]
    return MultiClusterSystem.from_cluster_sizes(
        sizes=[size] * num_clusters,
        icn_technologies=icn,
        ecn_technologies=ecn,
        icn2_technology=_mixed_nic_technology(ecn, name="mixed-ge-fe"),
        switch=parameters.switch,
        name=f"het-nics-C{num_clusters}",
    )


def _build_das2(num_clusters: int, parameters: PaperParameters) -> MultiClusterSystem:
    """The DAS-2-like preset (5 x 64 nodes), rescalable to divisors of 320."""
    system = das2_like_system(switch=parameters.switch)
    if num_clusters == system.num_clusters:
        return system
    return system.rescaled(num_clusters)


def _build_llnl(num_clusters: int, parameters: PaperParameters) -> MultiClusterSystem:
    """The LLNL-like Cluster-of-Clusters preset (fixed 4-cluster shape)."""
    system = llnl_like_system(switch=parameters.switch)
    if num_clusters != system.num_clusters:
        raise ExperimentError(
            "scenario 'llnl-like' has a fixed 4-cluster shape "
            f"(MCR/ALC/Thunder/PVC); got num_clusters={num_clusters}"
        )
    return system


# -- workload factories (module-level so task arguments stay picklable) ------


def _hotspot_policy(cluster_sizes: Sequence[int]) -> DestinationPolicy:
    """15% of messages target node (0, 0); the rest are uniform."""
    return HotspotDestinations(cluster_sizes, hotspot=(0, 0), hotspot_fraction=0.15)


def _localized_policy(cluster_sizes: Sequence[int]) -> DestinationPolicy:
    """80% of messages stay inside the source cluster (§5.3's localized traffic)."""
    return LocalizedDestinations(cluster_sizes, locality=0.8)


def _hyperexponential_arrivals(rate: float) -> ArrivalProcess:
    """Bursty request trains: balanced-means H2 with CV² = 4 at the same load."""
    return HyperexponentialArrivals(rate=rate, cv2=4.0)


def _erlang_arrivals(rate: float) -> ArrivalProcess:
    """Smoothed request trains: Erlang-4 renewal process at the same load."""
    return ErlangArrivals(rate=rate, shape=4)


# -- the registry ------------------------------------------------------------

register_scenario(Scenario(
    name="case-1",
    description="Table 1 Case 1: ICN1 = Gigabit Ethernet, ECN1/ICN2 = Fast Ethernet",
    build_system=partial(build_scenario_system, CASE_1),
    paper=True,
))

register_scenario(Scenario(
    name="case-2",
    description="Table 1 Case 2: ICN1 = Fast Ethernet, ECN1/ICN2 = Gigabit Ethernet",
    build_system=partial(build_scenario_system, CASE_2),
    paper=True,
))

register_scenario(Scenario(
    name="het-nics",
    description=(
        "per-cluster NIC mix (GE/Myrinet ICN1s, GE/FE ECN NICs) with the "
        "ICN2 technology derived from the pairwise link matrix"
    ),
    build_system=_build_heterogeneous_nics,
    supports_analysis=False,
    heterogeneous_analysis=True,
    default_cluster_counts=(2, 4, 8, 16, 32),
    smoke_cluster_counts=(4,),
))

register_scenario(Scenario(
    name="hotspot",
    description="Case-1 platform under hot-spot traffic (15% of messages hit one node)",
    build_system=partial(build_scenario_system, CASE_1),
    supports_analysis=False,
    destination_policy=_hotspot_policy,
    smoke_cluster_counts=(4,),
))

register_scenario(Scenario(
    name="localized-linear",
    description=(
        "blocking linear-array network under localized traffic "
        "(80% intra-cluster; tests the §5.3 suitability remark)"
    ),
    build_system=partial(build_scenario_system, CASE_1),
    supports_analysis=False,
    default_architecture="blocking",
    destination_policy=_localized_policy,
    smoke_cluster_counts=(4,),
))

register_scenario(Scenario(
    name="bursty-hyper",
    description=(
        "Case-1 platform with bursty hyperexponential arrivals (CV² = 4) "
        "at the paper's offered load; analysis = Poisson prediction"
    ),
    build_system=partial(build_scenario_system, CASE_1),
    arrival_factory=_hyperexponential_arrivals,
    smoke_cluster_counts=(4,),
))

register_scenario(Scenario(
    name="bursty-erlang",
    description=(
        "Case-1 platform with smoothed Erlang-4 arrivals (CV² = 1/4) "
        "at the paper's offered load; analysis = Poisson prediction"
    ),
    build_system=partial(build_scenario_system, CASE_1),
    arrival_factory=_erlang_arrivals,
    smoke_cluster_counts=(4,),
))

register_scenario(Scenario(
    name="das2-like",
    description="DAS-2-like Super-Cluster (5 x 64 nodes, Myrinet ICN1s, FE wide-area)",
    build_system=_build_das2,
    default_cluster_counts=(5,),
    smoke_cluster_counts=(5,),
))

register_scenario(Scenario(
    name="llnl-like",
    description=(
        "LLNL-like Cluster-of-Clusters (MCR/ALC/Thunder/PVC: unequal sizes, "
        "mixed processors and networks)"
    ),
    build_system=_build_llnl,
    supports_analysis=False,
    heterogeneous_analysis=True,
    default_cluster_counts=(4,),
    smoke_cluster_counts=(4,),
))


# -- failure-prone scenarios (simulation-only: the analytical models assume
#    always-up nodes and links, so their curves would be meaningless) --------

register_scenario(Scenario(
    name="das2-churn",
    description=(
        "DAS-2-like platform under node churn: every processor alternates "
        "up/down (exponential MTBF 30 s, MTTR 3 s) and pauses generation "
        "while failed"
    ),
    build_system=_build_das2,
    supports_analysis=False,
    default_cluster_counts=(5,),
    smoke_cluster_counts=(5,),
    default_failures=FaultSpec(mtbf_s=30.0, mttr_s=3.0, targets="nodes", policy="stall"),
))

register_scenario(Scenario(
    name="llnl-failures",
    description=(
        "LLNL-like Cluster-of-Clusters with wear-out link outages "
        "(Weibull shape 1.5, MTBF 8 s, MTTR 1 s, preemptive-resume)"
    ),
    build_system=_build_llnl,
    supports_analysis=False,
    default_cluster_counts=(4,),
    smoke_cluster_counts=(4,),
    default_failures=FaultSpec(
        mtbf_s=8.0,
        mttr_s=1.0,
        failure_distribution="weibull",
        failure_shape=1.5,
        targets="links",
        policy="stall",
    ),
))

register_scenario(Scenario(
    name="case-1-lossy",
    description=(
        "Table 1 Case 1 platform with lossy links: messages hitting a "
        "failed network (exponential MTBF 15 s, MTTR 1.5 s) are dropped "
        "and counted"
    ),
    build_system=partial(build_scenario_system, CASE_1),
    supports_analysis=False,
    smoke_cluster_counts=(4,),
    default_failures=FaultSpec(mtbf_s=15.0, mttr_s=1.5, targets="links", policy="drop"),
))
