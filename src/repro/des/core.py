"""The discrete-event simulation environment (scheduler / event loop).

The :class:`Environment` keeps a priority queue of ``(time, id, event)``
tuples and processes them in order, advancing simulated time.  Event ids
come from one counter, so events at one instant run in the order they were
created.  It is a deterministic, single-threaded kernel with no processes:
code reacts to an event through the callbacks attached to it.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> log = []
>>> for name, delay in (("a", 2.0), ("b", 1.0)):
...     env.timeout(delay, name).callbacks.append(
...         lambda event: log.append((env.now, event.value)))
>>> while env.queue_size:
...     env.step()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from heapq import heappop
from itertools import count
from typing import Any, List, Tuple

from ..errors import SimulationError
from .events import AbsoluteTimeout, Event, Timeout

__all__ = ["Environment", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when the event queue is exhausted."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Simulated time at which the clock starts (default ``0.0``).

    Notes
    -----
    Time is a plain ``float`` with no attached unit; the multi-cluster
    simulator uses seconds throughout.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = count()

    # -- clock & introspection ---------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def queue_size(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._queue)

    def peek(self) -> float:
        """Return the time of the next scheduled event or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires ``delay`` time units from now.

        This is the hottest allocation site of the kernel (every arrival and
        every service completion goes through it); :class:`Timeout` inlines
        its own heap insertion.
        """
        return Timeout(self, delay, value)

    def timeout_at(self, at: float, value: Any = None) -> AbsoluteTimeout:
        """Create an :class:`AbsoluteTimeout` that fires at absolute time ``at``.

        Unlike ``timeout(at - now)`` this schedules the event at exactly
        ``at`` with no float round-trip through a relative delay, which the
        simulator's virtual-queue service centres rely on for bit-identical
        departure times.
        """
        return AbsoluteTimeout(self, at, value)

    # -- scheduling ----------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events are scheduled.
        """
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        self._now, _, event = heappop(queue)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"{event!r} was scheduled twice")
        for callback in callbacks:
            callback(event)

    def __repr__(self) -> str:
        return f"<Environment t={self._now!r} queued={len(self._queue)}>"
