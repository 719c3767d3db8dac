"""Discrete-event simulation kernel.

This package is the simulation substrate of the reproduction: a
deterministic discrete-event kernel with timeouts, independent random
streams and measurement helpers.  It has no processes: code reacts to an
event through the callbacks attached to it.  The multi-cluster validation
simulator in :mod:`repro.simulation` borrows the environment's heap
(``_queue``, ``_eid``) and clock (``_now``) and the timeout event types,
until it owns a heap of its own.

Quick example
-------------
>>> from repro.des import Environment
>>> env = Environment()
>>> done = []
>>> for i in range(3):
...     env.timeout(3.0 - i, i).callbacks.append(
...         lambda event: done.append((event.value, env.now)))
>>> while env.queue_size:
...     env.step()
>>> done
[(2, 1.0), (1, 2.0), (0, 3.0)]
"""

from .._lazy import lazy_exports

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "AbsoluteTimeout",
    "Monitor",
    "TimeWeightedMonitor",
    "RandomStreams",
    "VariateGenerator",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core": ("EmptySchedule", "Environment"),
    ".events": ("AbsoluteTimeout", "Event", "Timeout"),
    ".monitor": ("Monitor", "TimeWeightedMonitor"),
    ".rng": ("RandomStreams", "VariateGenerator"),
})
