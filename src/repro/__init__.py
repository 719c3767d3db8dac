"""repro — reproduction of "Performance Analysis of Heterogeneous Multi-Cluster Systems".

The package implements the analytical queueing model of Javadi, Akbari and
Abawajy (ICPP Workshops 2005) for heterogeneous multi-cluster systems, the
blocking and non-blocking interconnect models it relies on, and the
discrete-event simulators used to validate it, plus the experiment harness
that regenerates every figure of the paper's evaluation.

Quickstart
----------
>>> from repro import AnalyticalModel, ModelConfig, paper_evaluation_system
>>> from repro.network import GIGABIT_ETHERNET, FAST_ETHERNET
>>> system = paper_evaluation_system(16, GIGABIT_ETHERNET, FAST_ETHERNET)
>>> report = AnalyticalModel(system, ModelConfig(message_bytes=1024)).evaluate()
>>> report.mean_latency_ms > 0
True

Subpackages
-----------
``repro.rng``
    Independent, seeded random streams for the simulator.
``repro.queueing``
    Queueing-theory substrate (service-time distributions, exact MVA).
``repro.topology``
    The paper's fat-tree and linear switch array topologies.
``repro.network``
    Technologies, switches and the blocking / non-blocking service models.
``repro.cluster``
    The HMSCS system model (clusters, processors, presets).
``repro.core``
    The paper's analytical model (routing, traffic, fixed point, latency).
``repro.workload``
    Arrival processes and destination policies.
``repro.simulation``
    The validation simulator and analysis-vs-simulation comparison.
``repro.parallel``
    Process-pool sweep engine and deterministic per-task seeding.
``repro.experiments``
    Scenario tables, figure drivers, the blocking-ratio study and ablations.
``repro.stats``
    Confidence intervals, series comparison and streaming observation sinks.
``repro.cache``
    Content-addressed result cache (spec + code-version → stored outcome).
``repro.service``
    The ``repro serve`` HTTP API: warm worker pool over the result cache.
``repro.analysis``
    The ``repro lint`` domain linter (reproducibility static analysis).
``repro.viz``
    ASCII charts and table/CSV writers.

The rendered documentation lives in ``docs/`` (architecture map, spec
reference, CLI guide and HTTP service reference).
"""

from ._lazy import lazy_exports

__all__ = [
    "__version__",
    # system model
    "ProcessorType",
    "ClusterSpec",
    "MultiClusterSystem",
    "paper_evaluation_system",
    "das2_like_system",
    "llnl_like_system",
    # analytical model
    "AnalyticalModel",
    "ModelConfig",
    "PerformanceReport",
    "ClusterOfClustersModel",
    "HeterogeneousModelConfig",
    "HeterogeneousReport",
    # networks
    "NetworkTechnology",
    "SwitchFabric",
    "GIGABIT_ETHERNET",
    "FAST_ETHERNET",
    "NonBlockingNetworkModel",
    "BlockingNetworkModel",
    # simulation
    "MultiClusterSimulator",
    "SimulationConfig",
    "SimulationResult",
    "validate_against_analysis",
    # experiments
    "run_figure",
    "FigureResult",
    "run_blocking_ratio_study",
    "CASE_1",
    "CASE_2",
    "PAPER_PARAMETERS",
    # errors
    "ReproError",
    "ConfigurationError",
    "StabilityError",
    "ConvergenceError",
    "TopologyError",
    "SimulationError",
    "ExperimentError",
]

# Each name is imported from its defining module on first use, so
# ``import repro`` loads no NumPy, simulator or execution backend.
__getattr__, __dir__ = lazy_exports(globals(), {
    "._version": ("__version__",),
    ".cluster.cluster": ("ClusterSpec",),
    ".cluster.presets": ("das2_like_system", "llnl_like_system", "paper_evaluation_system"),
    ".cluster.processor": ("ProcessorType",),
    ".cluster.system": ("MultiClusterSystem",),
    ".core.cluster_of_clusters": (
        "ClusterOfClustersModel", "HeterogeneousModelConfig", "HeterogeneousReport",
    ),
    ".core.model": ("AnalyticalModel", "ModelConfig", "PerformanceReport"),
    ".errors": (
        "ConfigurationError", "ConvergenceError", "ExperimentError", "ReproError",
        "SimulationError", "StabilityError", "TopologyError",
    ),
    ".experiments.blocking_ratio": ("run_blocking_ratio_study",),
    ".experiments.figures": ("FigureResult", "run_figure"),
    ".experiments.scenarios": ("CASE_1", "CASE_2", "PAPER_PARAMETERS"),
    ".network.models": ("BlockingNetworkModel", "NonBlockingNetworkModel"),
    ".network.switch": ("SwitchFabric",),
    ".network.technologies": ("FAST_ETHERNET", "GIGABIT_ETHERNET", "NetworkTechnology"),
    ".simulation.results": ("SimulationResult",),
    ".simulation.runner": ("validate_against_analysis",),
    ".simulation.simulator": ("MultiClusterSimulator", "SimulationConfig"),
})
