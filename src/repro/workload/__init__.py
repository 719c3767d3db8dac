"""Workload generators: arrival processes and destination policies."""

from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    ErlangArrivals,
    HyperexponentialArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from .destinations import (
    DestinationPolicy,
    HotspotDestinations,
    LocalizedDestinations,
    NodeAddress,
    UniformDestinations,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "ErlangArrivals",
    "HyperexponentialArrivals",
    "MMPPArrivals",
    "DestinationPolicy",
    "UniformDestinations",
    "LocalizedDestinations",
    "HotspotDestinations",
    "NodeAddress",
]
