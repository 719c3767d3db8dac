"""Queueing-theory substrate: service-time distributions and exact MVA."""

from .._lazy import lazy_exports

__all__ = [
    "Distribution",
    "Exponential",
    "Deterministic",
    "Erlang",
    "HyperExponential",
    "UniformDistribution",
    "MVAStation",
    "MVAResult",
    "mean_value_analysis",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".distributions": (
        "Deterministic", "Distribution", "Erlang", "Exponential", "HyperExponential",
        "UniformDistribution",
    ),
    ".mva": ("mean_value_analysis", "MVAResult", "MVAStation"),
})
