"""Multi-cluster system model (HMSCS): processors, clusters, systems and presets."""

from .._lazy import lazy_exports

__all__ = [
    "ProcessorType",
    "DEFAULT_PROCESSOR",
    "ClusterSpec",
    "MultiClusterSystem",
    "paper_evaluation_system",
    "das2_like_system",
    "llnl_like_system",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cluster": ("ClusterSpec",),
    ".presets": ("das2_like_system", "llnl_like_system", "paper_evaluation_system"),
    ".processor": ("DEFAULT_PROCESSOR", "ProcessorType"),
    ".system": ("MultiClusterSystem",),
})
