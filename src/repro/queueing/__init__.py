"""Queueing-theory substrate: service-time distributions and exact MVA."""

from .distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    HyperExponential,
    UniformDistribution,
)
from .mva import MVAResult, MVAStation, mean_value_analysis

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
