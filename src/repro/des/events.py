"""Event primitives for the discrete-event simulation kernel.

An event is a scheduled occurrence: once triggered it sits in the
environment's heap until its time is reached, and then the environment
runs its callbacks.  This module defines the event classes; the scheduler
lives in :mod:`repro.des.core`.

Semantics
---------
An event goes through three states:

``untriggered``
    Created but not yet scheduled.
``triggered``
    Scheduled in the environment's event queue with a value, waiting for
    its scheduled time to be reached.
``processed``
    Popped from the queue; all callbacks have run.

Every event succeeds: there is no failure path.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "AbsoluteTimeout",
]


#: Sentinel marking an event whose value has not been set yet.
PENDING: object = object()


class Event:
    """A single occurrence whose callbacks run when it is processed.

    Parameters
    ----------
    env:
        The :class:`~repro.des.core.Environment` the event belongs to.

    Notes
    -----
    ``Event`` instances are single-shot: once triggered they cannot be
    triggered again.  Callbacks are plain callables invoked with the event as
    their only argument after the event has been popped from the queue.
    """

    __slots__ = ("env", "callbacks", "_value")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is PENDING:
            raise AttributeError(f"Value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``, to be processed at the current time.

        Returns the event itself so calls can be chained.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        env = self.env
        heappush(env._queue, (env._now, next(env._eid), self))
        return self

    # -- misc -------------------------------------------------------------

    def __repr__(self) -> str:
        detail = ""
        if self.triggered:
            detail = f" value={self._value!r}"
        return f"<{type(self).__name__}{detail} at 0x{id(self):x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated ``delay``.

    Timeouts are triggered at creation time; they cannot be cancelled.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # Timeouts dominate event traffic (one per arrival and per service
        # completion), so the generic Event path is inlined here: one
        # validation, one heap push, no delegation.
        delay = float(delay)
        if delay < 0:
            raise ValueError(f"Negative delay {delay!r} is not allowed")
        self.env = env
        self.callbacks = []
        self._value = value
        self._delay = delay
        heappush(env._queue, (env._now + delay, next(env._eid), self))

    @property
    def delay(self) -> float:
        """The delay the timeout was created with."""
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay!r} at 0x{id(self):x}>"


class AbsoluteTimeout(Event):
    """An event that fires at an absolute simulated time ``at``.

    The simulation layer schedules departures at exact, precomputed times
    (``start + service_time``); expressing them as relative delays would
    re-derive the time as ``now + (at - now)``, which is not the same float.
    Like :class:`Timeout`, the event is triggered at creation and inlines
    its heap insertion.
    """

    __slots__ = ("_at",)

    def __init__(self, env: "Environment", at: float, value: Any = None) -> None:
        at = float(at)
        if at < env._now:
            raise ValueError(f"Cannot schedule at {at!r}, before current time {env._now!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._at = at
        heappush(env._queue, (at, next(env._eid), self))

    @property
    def at(self) -> float:
        """The absolute time the event fires at."""
        return self._at

    def __repr__(self) -> str:
        return f"<AbsoluteTimeout at={self._at!r} at 0x{id(self):x}>"
