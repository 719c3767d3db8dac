"""Random streams and measurement helpers for the simulation.

The multi-cluster validation simulator in :mod:`repro.simulation` draws
from this package's independent, seeded random streams and records into
its monitors; its closed loop owns its own event heap, ordered by
``(time, id)``.

Quick example
-------------
>>> from repro.des import RandomStreams, TimeWeightedMonitor
>>> rng = RandomStreams(seed=7).stream("arrivals")
>>> rng.exponential(1.0) == RandomStreams(seed=7).stream("arrivals").exponential(1.0)
True
>>> level = TimeWeightedMonitor()
>>> level.update(2.0, 1.0)
>>> level.time_average(4.0)
0.5
"""

from .._lazy import lazy_exports

__all__ = [
    "Monitor",
    "TimeWeightedMonitor",
    "RandomStreams",
    "VariateGenerator",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".monitor": ("Monitor", "TimeWeightedMonitor"),
    ".rng": ("RandomStreams", "VariateGenerator"),
})
