"""The discrete-event simulation environment (scheduler / event loop).

The :class:`Environment` keeps a priority queue of ``(time, priority, id,
event)`` tuples and processes them in order, advancing simulated time.  It is
a deterministic, single-threaded kernel modelled on SimPy's API so that the
multi-cluster simulator in :mod:`repro.simulation` reads like conventional
simulation code.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, List, Optional, Tuple

from ..errors import SimulationError
from .events import AbsoluteTimeout, Event, NORMAL, Timeout, URGENT
from .process import Process, ProcessGenerator

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]


class EmptySchedule(Exception):
    """Raised internally when the event queue is exhausted."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at a target event."""

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that stops the simulation with the event's value."""
        if event.ok:
            raise cls(event.value)
        # Propagate the failure out of ``run``.
        raise event.value  # type: ignore[misc]


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
        self._queue: List[Tuple[float, int, int, Event]] = []
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
        its own heap insertion rather than going through :meth:`schedule`.
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

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay`` time units."""
        if delay:
            if delay < 0:
                raise ValueError(f"Negative delay {delay!r}")
            heappush(self._queue, (self._now + delay, priority, next(self._eid), event))
        else:
            # Immediate scheduling (succeed/fail/process resumption) is the
            # common case; skip the float add and the sign check.
            heappush(self._queue, (self._now, priority, next(self._eid), event))

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
        self._now, _, _, event = heappop(queue)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"{event!r} was scheduled twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: crash the simulation.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(repr(exc))  # pragma: no cover - defensive

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the event queue is empty;
            a number
                run until simulated time reaches that value (the clock is
                advanced to exactly ``until``);
            an :class:`Event`
                run until that event has been processed and return its value.

        Returns
        -------
        Any
            The value of the ``until`` event, if one was given.

        Raises
        ------
        BaseException
            If the ``until`` event failed (including when it had already
            been processed before ``run`` was called), its stored exception
            is re-raised rather than silently returning ``None``.
        """
        at_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                at_event = until
                if at_event.callbacks is None:
                    # Already processed: mirror StopSimulation.callback —
                    # return the value on success, re-raise the stored
                    # exception on failure instead of swallowing it.
                    if at_event.ok:
                        return at_event.value
                    exc = at_event.value
                    if not isinstance(exc, BaseException):  # pragma: no cover
                        exc = SimulationError(repr(exc))
                    raise exc
                at_event.callbacks.append(StopSimulation.callback)
            else:
                at = float(until)
                if at <= self._now:
                    raise ValueError(
                        f"until (={at}) must be greater than the current time (={self._now})"
                    )
                at_event = Event(self)
                # Schedule the stop marker with URGENT priority so that the
                # clock stops exactly at ``at`` before same-time events run.
                at_event._ok = True
                at_event._value = None
                self.schedule(at_event, priority=URGENT, delay=at - self._now)
                at_event.callbacks.append(StopSimulation.callback)

        step = self.step  # bind once: this loop is the simulation's hot path
        try:
            while True:
                step()
        except StopSimulation as stop:
            return stop.args[0]
        except EmptySchedule:
            if at_event is not None and isinstance(until, Event) and not at_event.triggered:
                raise SimulationError(
                    f"No scheduled events left but {until!r} was not triggered"
                ) from None
        return None

    def run_until_empty(self, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains; return the number processed.

        ``max_events`` guards against runaway simulations (e.g. an endless
        generator process) by raising :class:`SimulationError` once exceeded.
        """
        processed = 0
        step = self.step
        queue = self._queue
        while queue:
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"Simulation exceeded the budget of {max_events} events"
                )
            step()
            processed += 1
        return processed

    def __repr__(self) -> str:
        return f"<Environment t={self._now!r} queued={len(self._queue)}>"
