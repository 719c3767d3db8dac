"""Discrete-event simulation kernel (SimPy-compatible subset).

This package is the simulation substrate of the reproduction: a
deterministic discrete-event kernel with generator processes, timeouts,
independent random streams and measurement helpers.  The multi-cluster
validation simulator in :mod:`repro.simulation` runs no processes: its
closed loop borrows the environment's heap (``_queue``, ``_eid``) and
clock (``_now``) and the timeout event types, until it owns a heap of its
own.

Quick example
-------------
>>> from repro.des import Environment
>>> env = Environment()
>>> done = []
>>> def message(env, ident, service_time):
...     yield env.timeout(service_time)
...     done.append((ident, env.now))
>>> for i in range(3):
...     _ = env.process(message(env, i, 3.0 - i))
>>> env.run()
>>> done
[(2, 1.0), (1, 2.0), (0, 3.0)]
"""

from .._lazy import lazy_exports

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "AbsoluteTimeout",
    "Process",
    "Monitor",
    "TimeWeightedMonitor",
    "RandomStreams",
    "VariateGenerator",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core": ("EmptySchedule", "Environment", "StopSimulation"),
    ".events": ("AbsoluteTimeout", "Event", "Timeout"),
    ".monitor": ("Monitor", "TimeWeightedMonitor"),
    ".process": ("Process",),
    ".rng": ("RandomStreams", "VariateGenerator"),
})
