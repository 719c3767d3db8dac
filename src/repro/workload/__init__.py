"""Workload generators: arrival processes and destination policies."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    ".arrivals": (
        "ArrivalProcess", "DeterministicArrivals", "ErlangArrivals", "HyperexponentialArrivals",
        "MMPPArrivals", "PoissonArrivals",
    ),
    ".destinations": (
        "DestinationPolicy", "HotspotDestinations", "LocalizedDestinations", "NodeAddress",
        "UniformDestinations",
    ),
})
