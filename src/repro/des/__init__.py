"""Discrete-event simulation kernel (SimPy-compatible subset).

This package is the simulation substrate of the reproduction: a
deterministic, generator-based discrete-event kernel with processes,
timeouts, conditions, independent random streams and measurement helpers.
The multi-cluster validation simulator in :mod:`repro.simulation` is
written entirely against this API.

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

from .core import EmptySchedule, Environment, StopSimulation
from .events import AbsoluteTimeout, AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .monitor import Monitor, TimeWeightedMonitor
from .process import Interrupt, Process
from .rng import RandomStreams, VariateGenerator

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "AbsoluteTimeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Interrupt",
    "Monitor",
    "TimeWeightedMonitor",
    "RandomStreams",
    "VariateGenerator",
]
